(* Iterative translation of the paper's Algorithm 2.  The mutually recursive
   EXPLORE / BACKTRACK_TO procedures become a two-state machine; the message
   token moves along one edge per state transition (except the in-place
   re-EXPLORE after resuming a paused DFS, line 27 of the pseudocode, which
   costs no step).  [m_last] always holds the vertex occupied immediately
   before the current one, which is what both the parent assignment
   (INIT_VERTEX) and the "children still unexplored" window in BACKTRACK_TO
   rely on. *)

let c_routes = Obs.Metrics.counter "route.patch_dfs.routes"
let c_patches = Obs.Metrics.counter "route.patch_dfs.patches"
let c_backtracks = Obs.Metrics.counter "route.patch_dfs.backtracks"
let c_steps = Obs.Metrics.counter "route.patch_dfs.steps"
let c_visited = Obs.Metrics.counter "route.patch_dfs.visited"

let route ~graph ~objective ~source ?max_steps () =
  let open Objective in
  Obs.Metrics.incr c_routes;
  let recording = Obs.Events.recording () in
  let rid = if recording then Obs.Events.next_route_id () else 0 in
  let n = Sparse_graph.Graph.n graph in
  let max_steps = Option.value max_steps ~default:((200 * n) + 10_000) in
  let phi = Objective.scorer objective in
  let target = objective.target in
  Sparse_graph.Scratch.with_domain ~n @@ fun scratch ->
  (* Per-vertex state, valid at vertices the walk has recorded (stamped
     in [record], which every vertex reaches before it is read). *)
  let v_phi = Sparse_graph.Scratch.floats scratch 0 in
  let v_prev_phi = Sparse_graph.Scratch.floats scratch 1 in
  let v_parent = Sparse_graph.Scratch.ints scratch 0 in
  let v_started = Sparse_graph.Scratch.ints scratch 1 in
  let visited = ref 0 in
  let steps = ref 0 in
  let cur = ref source in
  let m_phi = ref neg_infinity in
  let best_seen = ref neg_infinity in
  let m_last = ref source in
  (* phi of [cur] and of [m_last], evaluated once per move. *)
  let phi_cur = ref (phi source) in
  let phi_last = ref !phi_cur in
  let record v =
    Sparse_graph.Scratch.push scratch v;
    if Sparse_graph.Scratch.add scratch v then begin
      v_phi.(v) <- nan;
      v_prev_phi.(v) <- neg_infinity;
      v_parent.(v) <- -1;
      v_started.(v) <- 0;
      incr visited
    end
  in
  record source;
  if recording then
    Obs.Events.emit
      (Obs.Events.Route_hop { route = rid; hop = 0; vertex = source; objective = !phi_cur });
  let move v =
    if v <> !cur then begin
      incr steps;
      m_last := !cur;
      cur := v;
      record v;
      let p = phi v in
      phi_last := !phi_cur;
      phi_cur := p;
      if recording then
        Obs.Events.emit (Obs.Events.Route_hop { route = rid; hop = !steps; vertex = v; objective = p })
    end
  in
  (* The best neighbour of [v] overall (ties towards smaller id) when it
     reaches [m_phi], else -1.  Filtering by [lo] before the arg-max picks
     the same vertex as testing the overall best afterwards. *)
  let best_neighbor v =
    Objective.argmax objective graph v ~skip:(-1) ~lo:!m_phi
  in
  (* [threshold] is a new record, so it exceeds [neg_infinity]: a
     neighbour at or above it has a score above the arg-max's start. *)
  let exists_geq v threshold =
    Objective.argmax objective graph v ~skip:(-1) ~lo:threshold >= 0
  in
  (* Best unexplored child during backtracking: u <> parent with
     m_phi <= phi u < bound. *)
  let best_child v ~parent ~bound =
    Objective.argmax_below objective graph v ~skip:parent ~lo:!m_phi ~below:bound
  in
  v_phi.(source) <- !phi_cur;
  (* The next action: EXPLORE [next] when [exploring], else BACKTRACK to
     it. *)
  let exploring = ref true and next = ref source in
  let explore u =
    exploring := true;
    next := u
  in
  let backtrack u =
    exploring := false;
    next := u
  in
  let result = ref None in
  while !result = None do
    if !steps >= max_steps then result := Some Outcome.Cutoff
    else begin
      let v = !next in
      if !exploring then begin
        move v;
        if v = target then result := Some Outcome.Delivered
        else if v_phi.(v) = !m_phi then
          (* Already visited in the current Phi-DFS: return immediately. *)
          backtrack !m_last
        else begin
          let pv = !phi_cur in
          if pv > !best_seen then begin
            (* SET_NEW_PHI: only actually descend if a better neighbour
               exists, otherwise just remember the new record. *)
            best_seen := pv;
            if exists_geq v pv then begin
              Obs.Metrics.incr c_patches;
              if recording then
                Obs.Events.emit (Obs.Events.Patch_enter { route = rid; vertex = v; phi = pv });
              v_started.(v) <- 1;
              v_prev_phi.(v) <- !m_phi;
              m_phi := pv
            end
          end;
          (* INIT_VERTEX *)
          v_phi.(v) <- !m_phi;
          v_parent.(v) <- !m_last;
          let u = best_neighbor v in
          if u >= 0 then explore u else backtrack !m_last
        end
      end
      else begin
        Obs.Metrics.incr c_backtracks;
        move v;
        let u = best_child v ~parent:v_parent.(v) ~bound:!phi_last in
        if u >= 0 then explore u
        else if v_started.(v) = 1 then begin
          (* RESET_TO_OLD_PHI: the inner DFS rooted at v failed and is
             discarded; resume the outer DFS.  v counts as freshly
             visited there, so enumerate all its children again — the
             inner DFS only covered the sublevel set G[V >= phi(v)],
             and regions hanging below high-objective neighbours are
             reachable only by descending through them once more. *)
          v_started.(v) <- 0;
          if recording then
            Obs.Events.emit
              (Obs.Events.Patch_exit { route = rid; vertex = v; phi = v_prev_phi.(v) });
          m_phi := v_prev_phi.(v);
          v_phi.(v) <- v_prev_phi.(v);
          let u = best_neighbor v in
          if u >= 0 then explore u
          else if v_parent.(v) = v then result := Some Outcome.Exhausted
          else backtrack v_parent.(v)
        end
        else if v_parent.(v) = v then
          (* Self-backtracking with nothing left is a fixed point of
             the walk: the component is exhausted. *)
          result := Some Outcome.Exhausted
        else backtrack v_parent.(v)
      end
    end
  done;
  match !result with
  | None -> assert false
  | Some status ->
      Obs.Metrics.add c_steps !steps;
      Obs.Metrics.add c_visited !visited;
      { Outcome.status; steps = !steps; visited = !visited; walk = Sparse_graph.Scratch.trail scratch }
