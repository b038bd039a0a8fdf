type fields = { m_phi : float; best_seen : float; target : Local_view.address }

type msg = Explore of fields | Backtrack of fields

(* Transcription of the Algorithm 2 state machine (see
   Greedy_routing.Patch_dfs for the centralised version and the detailed
   commentary).  A handler invocation may perform several in-place
   transitions (the paper's step-free "resume" moves) before the token
   leaves the node in a single send. *)

(* A node's protocol state: a constant number of words. *)
type node = {
  mutable phi : float;
  mutable parent : int;
  mutable started : bool;
  mutable prev_phi : float;
}

let run ~inst ~source ~target ?latency ?(max_deliveries = 10_000_000) () =
  let n = Sparse_graph.Graph.n inst.Girg.Instance.graph in
  if source < 0 || source >= n || target < 0 || target >= n then
    invalid_arg "Dist_dfs.run: endpoint out of range";
  let config = Local_view.config inst in
  (* Per-node protocol state, held only for the nodes the token visits. *)
  let nodes = Hashtbl.create 16 in
  let node v =
    match Hashtbl.find_opt nodes v with
    | Some s -> s
    | None ->
        let s = { phi = nan; parent = -1; started = false; prev_phi = neg_infinity } in
        Hashtbl.add nodes v s;
        s
  in
  (* Observer state. *)
  let walk = ref [] in
  let status = ref Greedy_routing.Outcome.Cutoff in
  let handler (api : msg Sim.api) ~src initial_msg =
    let v = api.Sim.self in
    let st = node v in
    let view = Local_view.view config inst v in
    walk := v :: !walk;
    let phi_of addr target = Local_view.phi view addr ~target in
    let phi_self target = phi_of view.Local_view.self target in
    (* phi of a node we hold an edge to (the walk only moves along edges). *)
    let phi_neighbor u target =
      if u = v then phi_self target
      else begin
        let rec find k =
          if k >= Array.length view.Local_view.neighbors then
            invalid_arg "Dist_dfs: message from a non-neighbor"
          else if view.Local_view.neighbors.(k).Local_view.id = u then
            phi_of view.Local_view.neighbors.(k) target
          else find (k + 1)
        in
        find 0
      end
    in
    let exists_geq target threshold =
      Array.exists (fun a -> phi_of a target >= threshold) view.Local_view.neighbors
    in
    let best_neighbor target = Local_view.best_neighbor view ~target in
    let best_child target ~parent ~bound ~m_phi =
      let best = ref None and best_score = ref neg_infinity in
      Array.iter
        (fun a ->
          if a.Local_view.id <> parent then begin
            let s = phi_of a target in
            if s >= m_phi && s < bound && s > !best_score then begin
              best := Some a;
              best_score := s
            end
          end)
        view.Local_view.neighbors;
      !best
    in
    (* In-place transitions loop: [came_from] plays the pseudocode's
       m.last_visited_vertex role. *)
    let rec explore ~came_from (f : fields) =
      if v = f.target.Local_view.id then begin
        status := Greedy_routing.Outcome.Delivered;
        api.Sim.halt ()
      end
      else if st.phi = f.m_phi then backtrack_to came_from ~came_from f
      else begin
        let pv = phi_self f.target in
        let f =
          if pv > f.best_seen then begin
            let f = { f with best_seen = pv } in
            if exists_geq f.target pv then begin
              st.started <- true;
              st.prev_phi <- f.m_phi;
              { f with m_phi = pv }
            end
            else f
          end
          else f
        in
        st.phi <- f.m_phi;
        st.parent <- came_from;
        match best_neighbor f.target with
        | Some (u, pu) when pu >= f.m_phi -> api.Sim.send ~dst:u.Local_view.id (Explore f)
        | Some _ | None -> backtrack_to came_from ~came_from f
      end
    and backtrack_to dst ~came_from f =
      if dst = v then backtrack ~came_from f else api.Sim.send ~dst (Backtrack f)
    and backtrack ~came_from f =
      let bound = phi_neighbor came_from f.target in
      match best_child f.target ~parent:st.parent ~bound ~m_phi:f.m_phi with
      | Some u -> api.Sim.send ~dst:u.Local_view.id (Explore f)
      | None ->
          if st.started then begin
            st.started <- false;
            let f = { f with m_phi = st.prev_phi } in
            st.phi <- st.prev_phi;
            (match best_neighbor f.target with
            | Some (u, pu) when pu >= f.m_phi -> api.Sim.send ~dst:u.Local_view.id (Explore f)
            | Some _ | None ->
                if st.parent = v then begin
                  status := Greedy_routing.Outcome.Exhausted;
                  api.Sim.halt ()
                end
                else backtrack_to st.parent ~came_from f)
          end
          else if st.parent = v then begin
            status := Greedy_routing.Outcome.Exhausted;
            api.Sim.halt ()
          end
          else backtrack_to st.parent ~came_from f
    in
    match initial_msg with
    | Explore f -> explore ~came_from:src f
    | Backtrack f -> backtrack ~came_from:src f
  in
  let sim =
    Sim.create ~n ?latency
      ~msg_label:(function Explore _ -> "explore" | Backtrack _ -> "backtrack")
      ~handler ()
  in
  (* ROUTING initialisation (line 5 of the pseudocode). *)
  let target_addr = Local_view.address inst target in
  let src_view = Local_view.view config inst source in
  (node source).phi <- Local_view.phi src_view src_view.Local_view.self ~target:target_addr;
  Sim.inject sim ~dst:source
    (Explore { m_phi = neg_infinity; best_seen = neg_infinity; target = target_addr });
  let stats = Sim.run ~max_deliveries sim in
  let walk = List.rev !walk in
  let distinct = List.sort_uniq compare walk in
  ( {
      Greedy_routing.Outcome.status = !status;
      steps = max 0 (List.length walk - 1);
      visited = List.length distinct;
      walk;
    },
    stats )
