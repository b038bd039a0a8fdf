let id = "E4"
let title = "Typical greedy trajectory (Figure 1, Section 6)"

let claim =
  "A successful greedy path first climbs to ever-heavier vertices (weight \
   exponent ~ 1/(beta-2) per hop), then descends towards the target with \
   rapidly shrinking geometric distance; the objective rises throughout."

let run ctx =
  let n = Context.pick ctx ~quick:8192 ~standard:65536 in
  let beta = 2.5 in
  let attempts = Context.pick ctx ~quick:300 ~standard:1200 in
  let rng = Context.rng ctx ~salt:4000 in
  let params = Girg.Params.make ~dim:2 ~beta ~c:0.25 ~n () in
  let inst = Girg.Instance.generate ~rng params in
  let graph = inst.graph in
  let comps = Sparse_graph.Components.compute graph in
  let giant = Sparse_graph.Components.giant_members comps in
  (* Milgram-typical endpoints: low weight, geometrically far apart. *)
  let eligible v = inst.weights.(v) <= 1.5 in
  let dist = Geometry.Torus.Packed.dist_between_fn inst.packed Geometry.Torus.Linf in
  let trajectories = ref [] in
  for _ = 1 to attempts do
    let i, j = Prng.Dist.sample_distinct_pair rng ~n:(Array.length giant) in
    let s = giant.(i) and t = giant.(j) in
    if
      eligible s && eligible t
      && dist s t >= 0.2
    then begin
      let objective = Greedy_routing.Objective.girg_phi inst ~target:t in
      let outcome =
        Greedy_routing.Greedy.route ~graph ~objective ~source:s ()
      in
      if Greedy_routing.Outcome.delivered outcome then
        trajectories :=
          Greedy_routing.Trajectory.of_walk ~inst ~target:t ~walk:outcome.walk
          :: !trajectories
    end
  done;
  let trajectories = !trajectories in
  (* Per-hop profile over trajectories of the modal length. *)
  let lengths = List.map (fun tr -> List.length tr - 1) trajectories in
  let modal =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun l -> Hashtbl.replace tbl l (1 + Option.value ~default:0 (Hashtbl.find_opt tbl l)))
      lengths;
    Hashtbl.fold (fun l c (bl, bc) -> if c > bc then (l, c) else (bl, bc)) tbl (0, 0) |> fst
  in
  let modal_trs = List.filter (fun tr -> List.length tr - 1 = modal) trajectories in
  let profile =
    Stats.Table.create
      ~title:(Printf.sprintf "%s: per-hop profile (paths of modal length %d)" id modal)
      ~columns:[ "hop"; "mean log2 weight"; "median dist to t"; "median objective"; "paper" ]
  in
  for hop = 0 to modal do
    let at_hop = List.filter_map (fun tr -> List.nth_opt tr hop) modal_trs in
    let weights = Array.of_list (List.map (fun p -> Float.log2 p.Greedy_routing.Trajectory.weight) at_hop) in
    let dists = Array.of_list (List.map (fun p -> p.Greedy_routing.Trajectory.dist_to_target) at_hop) in
    let objs = Array.of_list (List.map (fun p -> p.Greedy_routing.Trajectory.objective) at_hop) in
    let shape =
      if hop = 0 then "start (low weight)"
      else if 2 * hop < modal then "phase 1: climb weights"
      else if hop = modal then "target"
      else "phase 2: close distance"
    in
    let finite_fmt fmt x =
      if Float.is_finite x then Printf.sprintf fmt x
      else if x = infinity then "inf"
      else "inf" (* median over a set containing the target's infinite phi *)
    in
    Stats.Table.add_row profile
      [
        string_of_int hop;
        Printf.sprintf "%.2f" (Stats.Summary.mean weights);
        Printf.sprintf "%.4f" (Stats.Summary.percentile dists ~p:0.5);
        finite_fmt "%.3g" (Stats.Summary.percentile objs ~p:0.5);
        shape;
      ]
  done;
  (* Phase-1 growth exponents and structural checks. *)
  let summary =
    Stats.Table.create
      ~title:(id ^ "b: trajectory structure")
      ~columns:[ "metric"; "measured"; "paper" ]
  in
  let exponents =
    List.concat_map Greedy_routing.Trajectory.weight_doubling_exponents trajectories
  in
  let peak_inner =
    List.filter
      (fun tr ->
        let peak = Greedy_routing.Trajectory.peak_weight_hop tr in
        peak > 0 && peak < List.length tr - 1)
      trajectories
  in
  Stats.Table.add_row summary
    [ "successful low-weight far-apart routes"; string_of_int (List.length trajectories); "" ];
  (if exponents <> [] then
     Stats.Table.add_row summary
       [
         "median phase-1 weight exponent";
         Printf.sprintf "%.2f" (Stats.Summary.percentile (Array.of_list exponents) ~p:0.5);
         Printf.sprintf "1/(beta-2) = %.2f" (1.0 /. (beta -. 2.0));
       ]);
  Stats.Table.add_row summary
    [
      "fraction with interior weight peak";
      (if trajectories = [] then "nan"
       else
         Printf.sprintf "%.2f"
           (float_of_int (List.length peak_inner) /. float_of_int (List.length trajectories)));
      "~1 (two-phase shape)";
    ];
  [ profile; summary ]
