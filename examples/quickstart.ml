(* Quickstart: generate a GIRG, route one message greedily, inspect the path.

     dune exec examples/quickstart.exe                                        *)

let () =
  (* 1. Sample a geometric inhomogeneous random graph.  All randomness flows
     through an explicit generator, so runs are reproducible. *)
  let rng = Prng.Rng.create ~seed:2017 in
  let params =
    Girg.Params.make ~n:50_000 ~dim:2 ~beta:2.5 ~alpha:(Girg.Params.Finite 2.0) ~c:0.2 ()
  in
  let inst = Girg.Instance.generate ~rng params in
  let graph = inst.graph in
  Printf.printf "sampled %s\n" (Girg.Params.to_string params);
  Printf.printf "  vertices: %d, edges: %d, average degree: %.1f\n\n"
    (Sparse_graph.Graph.n graph) (Sparse_graph.Graph.m graph)
    (Sparse_graph.Graph.avg_degree graph);

  (* 2. Pick a random source and target inside the giant component. *)
  let comps = Sparse_graph.Components.compute graph in
  let giant = Sparse_graph.Components.giant_members comps in
  let i, j = Prng.Dist.sample_distinct_pair rng ~n:(Array.length giant) in
  let source = giant.(i) and target = giant.(j) in
  Printf.printf "routing from %d (w=%.2f, x=%s) to %d (w=%.2f, x=%s)\n" source
    inst.weights.(source)
    (Geometry.Torus.to_string (Geometry.Torus.Packed.get inst.packed source))
    target inst.weights.(target)
    (Geometry.Torus.to_string (Geometry.Torus.Packed.get inst.packed target));

  (* 3. Greedy routing with the paper's objective phi. *)
  let objective = Greedy_routing.Objective.girg_phi inst ~target in
  let outcome = Greedy_routing.Greedy.route ~graph ~objective ~source () in
  Printf.printf "greedy: %s\n" (Greedy_routing.Outcome.to_string outcome);

  (* 4. Inspect the trajectory: weights climb, then distance collapses. *)
  let trajectory =
    Greedy_routing.Trajectory.of_walk ~inst ~target ~walk:outcome.walk
  in
  Printf.printf "\n  hop  vertex    weight   dist_to_target   phi\n";
  List.iter
    (fun p ->
      Printf.printf "  %3d  %6d  %8.2f   %14.5f   %g\n" p.Greedy_routing.Trajectory.hop
        p.Greedy_routing.Trajectory.vertex p.Greedy_routing.Trajectory.weight
        p.Greedy_routing.Trajectory.dist_to_target p.Greedy_routing.Trajectory.objective)
    trajectory;

  (* 5. Compare with the true shortest path (stretch). *)
  (match Sparse_graph.Bfs.distance graph ~source ~target with
  | Some d when Greedy_routing.Outcome.delivered outcome ->
      Printf.printf "\nshortest path: %d hops -> stretch %.3f\n" d
        (float_of_int outcome.steps /. float_of_int d)
  | Some d -> Printf.printf "\nshortest path: %d hops (greedy was dropped)\n" d
  | None -> print_endline "\nsource and target are disconnected");

  (* 6. If greedy got stuck, patching (Algorithm 2) is guaranteed to work. *)
  if not (Greedy_routing.Outcome.delivered outcome) then begin
    let patched = Greedy_routing.Patch_dfs.route ~graph ~objective ~source () in
    Printf.printf "phi-DFS patching: %s\n" (Greedy_routing.Outcome.to_string patched)
  end
