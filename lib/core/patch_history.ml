let route ~graph ~objective ~source ?max_steps () =
  let open Objective in
  let n = Sparse_graph.Graph.n graph in
  let max_steps = Option.value max_steps ~default:((50 * n) + 1000) in
  let phi = Objective.scorer objective in
  let target = objective.target in
  Sparse_graph.Scratch.with_domain ~n @@ fun scratch ->
  (* A vertex is visited iff stamped; its slots are set in [visit]. *)
  let seen v = Sparse_graph.Scratch.mem scratch v in
  let tree_parent = Sparse_graph.Scratch.ints scratch 0 in
  (* Per visited vertex: its neighbours sorted by descending objective,
     stored in [rows.(cursor.(v)) .. rows.(stop.(v) - 1)], where [cursor]
     advances past the best not-yet-consumed one. *)
  let cursor = Sparse_graph.Scratch.ints scratch 1 in
  let stop = Sparse_graph.Scratch.ints scratch 2 in
  let rows = ref (Array.make 64 0) and rows_len = ref 0 in
  let frontier : int Binary_heap.t = Binary_heap.create () in
  let visited = ref 0 in
  let steps = ref 0 in
  let record v = Sparse_graph.Scratch.push scratch v in
  (* Best unvisited neighbour of [v], advancing the cursor past visited
     ones.  Returns its objective or [neg_infinity]. *)
  let rec frontier_score v =
    if cursor.(v) >= stop.(v) then neg_infinity
    else if seen !rows.(cursor.(v)) then begin
      cursor.(v) <- cursor.(v) + 1;
      frontier_score v
    end
    else phi !rows.(cursor.(v))
  in
  let consume v =
    let u = !rows.(cursor.(v)) in
    cursor.(v) <- cursor.(v) + 1;
    u
  in
  let visit v ~parent =
    ignore (Sparse_graph.Scratch.add scratch v);
    incr visited;
    tree_parent.(v) <- parent;
    let nbrs = Sparse_graph.Graph.neighbors graph v in
    (* Descending objective; ascending id on ties for determinism. *)
    Array.sort
      (fun a b ->
        let c = compare (phi b) (phi a) in
        if c <> 0 then c else compare a b)
      nbrs;
    let len = Array.length nbrs in
    if !rows_len + len > Array.length !rows then begin
      let grown = Array.make (max (2 * Array.length !rows) (!rows_len + len)) 0 in
      Array.blit !rows 0 grown 0 !rows_len;
      rows := grown
    end;
    Array.blit nbrs 0 !rows !rows_len len;
    cursor.(v) <- !rows_len;
    rows_len := !rows_len + len;
    stop.(v) <- !rows_len;
    let s = frontier_score v in
    if s > neg_infinity then Binary_heap.push frontier s v
  in
  (* Path from [a] to [b] through the visited tree (via their LCA); the
     message physically retraces it, so every hop counts as a step. *)
  let tree_path a b =
    let rec ancestors v acc = if v < 0 then acc else ancestors tree_parent.(v) (v :: acc) in
    let chain_a = ancestors a [] and chain_b = ancestors b [] in
    let rec split ca cb =
      match (ca, cb) with
      | x :: ca', y :: cb' when x = y -> begin
          match (ca', cb') with
          | x' :: _, y' :: _ when x' = y' -> split ca' cb'
          | _ -> (x, ca', cb')
        end
      | _ -> invalid_arg "tree_path: disjoint trees"
    in
    let lca, rest_a, rest_b = split chain_a chain_b in
    (* Path: a, ..., lca, ..., b  — rest_a reversed gives a..(just below lca). *)
    List.rev rest_a @ (lca :: rest_b)
  in
  let move_along path =
    (* path starts at the current vertex; each subsequent element is a hop. *)
    match path with
    | [] -> ()
    | _ :: hops ->
        List.iter
          (fun v ->
            incr steps;
            record v)
          hops
  in
  (* Best neighbour overall, visited or not — (P1) requires moving to it on
     a first visit whenever it improves. *)
  let best_neighbor v =
    Objective.argmax objective graph v ~skip:(-1) ~lo:neg_infinity
  in
  let result = ref None in
  let cur = ref source in
  record source;
  visit source ~parent:(-1);
  while !result = None do
    let v = !cur in
    if v = target then result := Some Outcome.Delivered
    else if !steps >= max_steps then result := Some Outcome.Cutoff
    else begin
      let b = best_neighbor v in
      if b >= 0 && phi b > phi v then begin
        (* Greedy move.  The objective strictly increases along greedy
           moves, so revisits cannot cycle; an already-visited best
           neighbour just means the walk continues from there. *)
        (* No frontier bookkeeping needed: once b is marked seen, every
           cursor skips it lazily. *)
        incr steps;
        record b;
        if not (seen b) then visit b ~parent:v;
        cur := b
      end
      else begin
        (* Local optimum: jump to the visited vertex owning the globally
           best unexplored edge.  Lazy heap: re-validate priorities. *)
        let rec next_jump () =
          match Binary_heap.pop_max frontier with
          | None -> None
          | Some (p, w) ->
              let s' = frontier_score w in
              if s' = neg_infinity then next_jump ()
              else if s' < p then begin
                (* Stale: its best unexplored changed; re-queue. *)
                Binary_heap.push frontier s' w;
                next_jump ()
              end
              else Some w
        in
        match next_jump () with
        | None -> result := Some Outcome.Exhausted
        | Some w ->
            if w <> v then move_along (tree_path v w);
            let u = consume w in
            let s' = frontier_score w in
            if s' > neg_infinity then Binary_heap.push frontier s' w;
            incr steps;
            record u;
            visit u ~parent:w;
            cur := u
      end
    end
  done;
  match !result with
  | None -> assert false
  | Some status ->
      { Outcome.status; steps = !steps; visited = !visited; walk = Sparse_graph.Scratch.trail scratch }
