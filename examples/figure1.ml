(* An ASCII rendition of the paper's Figure 1: the typical trajectory of a
   greedy path, averaged over many routes.

   Phase 1: the walk climbs the weight hierarchy (one exponent ~ 1/(beta-2)
   per hop); phase 2: it descends towards the target while the geometric
   distance collapses and the objective phi keeps rising.

     dune exec examples/figure1.exe                                        *)

let bar ~width ~max_value value =
  let k = int_of_float (Float.max 0.0 value /. max_value *. float_of_int width) in
  String.make (min width k) '#'

let () =
  let beta = 2.5 in
  let rng = Prng.Rng.create ~seed:1612 in
  let params = Girg.Params.make ~n:100_000 ~dim:2 ~beta ~c:0.2 () in
  let inst = Girg.Instance.generate ~rng params in
  Printf.printf "GIRG: n=%d, beta=%.1f, avg degree %.1f\n"
    (Sparse_graph.Graph.n inst.graph) beta
    (Sparse_graph.Graph.avg_degree inst.graph);
  let comps = Sparse_graph.Components.compute inst.graph in
  let giant = Sparse_graph.Components.giant_members comps in

  (* Collect successful routes between low-weight, far-apart endpoints. *)
  let trajectories = ref [] in
  let attempts = 4000 in
  for _ = 1 to attempts do
    let i, j = Prng.Dist.sample_distinct_pair rng ~n:(Array.length giant) in
    let s = giant.(i) and t = giant.(j) in
    if
      inst.weights.(s) <= 1.5 && inst.weights.(t) <= 1.5
      && Geometry.Torus.Packed.dist_between_fn inst.packed Geometry.Torus.Linf s t >= 0.2
    then begin
      let objective = Greedy_routing.Objective.girg_phi inst ~target:t in
      let outcome = Greedy_routing.Greedy.route ~graph:inst.graph ~objective ~source:s () in
      if Greedy_routing.Outcome.delivered outcome then
        trajectories :=
          Greedy_routing.Trajectory.of_walk ~inst ~target:t ~walk:outcome.walk
          :: !trajectories
    end
  done;
  let trajectories = !trajectories in
  Printf.printf "%d successful low-weight far-apart routes collected\n\n"
    (List.length trajectories);

  (* Fix the modal path length; average per hop over those routes. *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun tr ->
      let l = List.length tr - 1 in
      Hashtbl.replace tbl l (1 + Option.value ~default:0 (Hashtbl.find_opt tbl l)))
    trajectories;
  let modal, _ =
    Hashtbl.fold (fun l c (bl, bc) -> if c > bc then (l, c) else (bl, bc)) tbl (0, 0)
  in
  let sample = List.filter (fun tr -> List.length tr - 1 = modal) trajectories in
  Printf.printf "modal path length: %d hops (%d routes)\n\n" modal (List.length sample);

  let per_hop f =
    List.init (modal + 1) (fun hop ->
        let values =
          List.filter_map
            (fun tr -> Option.map f (List.nth_opt tr hop))
            sample
        in
        Stats.Summary.mean (Array.of_list values))
  in
  let log_weights = per_hop (fun p -> Float.log2 p.Greedy_routing.Trajectory.weight) in
  let dists = per_hop (fun p -> p.Greedy_routing.Trajectory.dist_to_target) in

  let width = 48 in
  let max_w = List.fold_left Float.max 1e-9 log_weights in
  let max_d = List.fold_left Float.max 1e-9 dists in
  print_endline "mean log2(weight) per hop           <- Figure 1, the w-axis";
  List.iteri
    (fun hop w ->
      let phase =
        if hop = 0 then "  start"
        else if w = max_w then "  <- core of the network"
        else if hop = modal then "  target"
        else ""
      in
      Printf.printf "  hop %2d |%-*s| %5.2f%s\n" hop width (bar ~width ~max_value:max_w w) w
        phase)
    log_weights;
  print_newline ();
  print_endline "mean distance to target per hop     <- Figure 1, the phi-axis (inverted)";
  List.iteri
    (fun hop d ->
      Printf.printf "  hop %2d |%-*s| %7.4f\n" hop width (bar ~width ~max_value:max_d d) d)
    dists;
  print_newline ();
  let exponents =
    List.concat_map Greedy_routing.Trajectory.weight_doubling_exponents sample
  in
  (match exponents with
  | [] -> ()
  | xs ->
      Printf.printf
        "phase-1 weight growth: median exponent %.2f per hop (paper: 1/(beta-2) = %.2f)\n"
        (Stats.Summary.percentile (Array.of_list xs) ~p:0.5)
        (1.0 /. (beta -. 2.0)));
  print_endline
    "the rise-then-fall weight profile with monotonically collapsing distance\n\
     is exactly the two-phase trajectory of Figure 1 / Section 6."
