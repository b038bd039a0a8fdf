open Hyperbolic

let hrg_graph ?(n = 1500) ?(alpha_h = 0.65) () =
  let p = Hrg.make ~alpha_h ~radius_c:(-1.0) ~temperature:0.0 ~n () in
  Hrg.generate ~rng:(Prng.Rng.create ~seed:61) p

let test_empty_graph_rejected () =
  let g = Sparse_graph.Graph.of_edges ~n:0 [||] in
  Alcotest.check_raises "empty" (Invalid_argument "Embed.infer: empty graph") (fun () ->
      ignore (Embed.infer ~rng:(Prng.Rng.create ~seed:1) ~graph:g ()))

let test_coordinates_well_formed () =
  let h = hrg_graph () in
  let emb = Embed.infer ~rng:(Prng.Rng.create ~seed:2) ~graph:h.Hrg.graph () in
  let big_r = Hrg.disk_radius emb.Embed.params in
  Alcotest.(check int) "one coord per vertex"
    (Sparse_graph.Graph.n h.Hrg.graph)
    (Array.length emb.Embed.coords);
  Array.iter
    (fun c ->
      if c.Hrg.r < 0.0 || c.Hrg.r > big_r +. 1e-6 then Alcotest.fail "radius out of disk";
      if c.Hrg.angle < 0.0 || c.Hrg.angle >= 2.0 *. Float.pi +. 1e-9 then
        Alcotest.fail "angle out of range")
    emb.Embed.coords

let test_radii_monotone_in_degree () =
  let h = hrg_graph () in
  let g = h.Hrg.graph in
  let emb = Embed.infer ~rng:(Prng.Rng.create ~seed:3) ~graph:g () in
  let n = Sparse_graph.Graph.n g in
  for _ = 1 to 500 do
    let u = Random.int n and v = Random.int n in
    let du = Sparse_graph.Graph.degree g u and dv = Sparse_graph.Graph.degree g v in
    if du > dv && emb.Embed.coords.(u).Hrg.r > emb.Embed.coords.(v).Hrg.r +. 1e-9 then
      Alcotest.fail "higher degree must not sit further out"
  done

let test_deterministic () =
  let h = hrg_graph ~n:500 () in
  let run seed = (Embed.infer ~rng:(Prng.Rng.create ~seed) ~graph:h.Hrg.graph ()).Embed.coords in
  Alcotest.(check bool) "same seed same coords" true (run 5 = run 5)

let test_edge_angular_locality () =
  (* Edges must be far more angularly local than random pairs. *)
  let h = hrg_graph () in
  let g = h.Hrg.graph in
  let emb = Embed.infer ~rng:(Prng.Rng.create ~seed:4) ~graph:g () in
  let ang v = emb.Embed.coords.(v).Hrg.angle in
  let ang_dist a b =
    let d = abs_float (a -. b) in
    if d > Float.pi then (2.0 *. Float.pi) -. d else d
  in
  let sum = ref 0.0 and cnt = ref 0 in
  Sparse_graph.Graph.iter_edges g (fun u v ->
      incr cnt;
      sum := !sum +. ang_dist (ang u) (ang v));
  let mean_edge = !sum /. float_of_int !cnt in
  (* Random pairs average pi/2 ~ 1.571. *)
  if mean_edge > 1.45 then Alcotest.failf "edges not angularly local: %.3f" mean_edge

let test_routing_beats_chance () =
  let h = hrg_graph () in
  let g = h.Hrg.graph in
  let emb = Embed.infer ~rng:(Prng.Rng.create ~seed:5) ~graph:g () in
  let embedded = Embed.to_hrg emb ~graph:g in
  let comps = Sparse_graph.Components.compute g in
  let giant = Sparse_graph.Components.giant_members comps in
  let rng = Prng.Rng.create ~seed:6 in
  let delivered = ref 0 in
  let trials = 200 in
  for _ = 1 to trials do
    let i, j = Prng.Dist.sample_distinct_pair rng ~n:(Array.length giant) in
    let objective = Greedy_routing.Objective.hyperbolic embedded ~target:giant.(j) in
    let r = Greedy_routing.Greedy.route ~graph:g ~objective ~source:giant.(i) () in
    if Greedy_routing.Outcome.delivered r then incr delivered
  done;
  let rate = float_of_int !delivered /. float_of_int trials in
  if rate < 0.35 then Alcotest.failf "embedded routing success %.2f too low" rate

let test_to_hrg_consistency () =
  let h = hrg_graph ~n:400 () in
  let emb = Embed.infer ~rng:(Prng.Rng.create ~seed:7) ~graph:h.Hrg.graph () in
  let packaged = Embed.to_hrg emb ~graph:h.Hrg.graph in
  Array.iteri
    (fun v c ->
      let w = packaged.Hrg.weights.(v) in
      Alcotest.(check (float 1e-6)) "weight matches radius"
        (Hrg.girg_weight emb.Embed.params ~r:c.Hrg.r)
        w;
      Alcotest.(check (float 1e-9)) "position matches angle"
        (c.Hrg.angle /. (2.0 *. Float.pi))
        (Geometry.Torus.Packed.coord packaged.Hrg.packed v 0))
    emb.Embed.coords

let test_disconnected_graph () =
  (* Two cliques, no inter-edges: embedding must still terminate and give
     every vertex a coordinate. *)
  let edges = ref [] in
  for i = 0 to 4 do
    for j = i + 1 to 4 do
      edges := (i, j) :: (i + 5, j + 5) :: !edges
    done
  done;
  let g = Sparse_graph.Graph.of_edge_list ~n:10 !edges in
  let emb = Embed.infer ~rng:(Prng.Rng.create ~seed:8) ~graph:g () in
  Alcotest.(check int) "all placed" 10 (Array.length emb.Embed.coords)

let test_refinement_tightens_edges () =
  let h = hrg_graph ~n:800 () in
  let g = h.Hrg.graph in
  let mean_edge_angle sweeps =
    let emb = Embed.infer ~rng:(Prng.Rng.create ~seed:9) ~graph:g ~refinement_sweeps:sweeps () in
    let ang v = emb.Embed.coords.(v).Hrg.angle in
    let ang_dist a b =
      let d = abs_float (a -. b) in
      if d > Float.pi then (2.0 *. Float.pi) -. d else d
    in
    let sum = ref 0.0 and cnt = ref 0 in
    Sparse_graph.Graph.iter_edges g (fun u v ->
        incr cnt;
        sum := !sum +. ang_dist (ang u) (ang v));
    !sum /. float_of_int !cnt
  in
  let base = mean_edge_angle 0 and refined = mean_edge_angle 3 in
  if refined > base +. 1e-9 then
    Alcotest.failf "refinement should tighten edges: %.3f -> %.3f" base refined

let suite =
  [
    Alcotest.test_case "empty graph rejected" `Quick test_empty_graph_rejected;
    Alcotest.test_case "coordinates well-formed" `Quick test_coordinates_well_formed;
    Alcotest.test_case "radii monotone in degree" `Quick test_radii_monotone_in_degree;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "edge angular locality" `Quick test_edge_angular_locality;
    Alcotest.test_case "routing beats chance" `Quick test_routing_beats_chance;
    Alcotest.test_case "to_hrg consistency" `Quick test_to_hrg_consistency;
    Alcotest.test_case "disconnected graph" `Quick test_disconnected_graph;
    Alcotest.test_case "refinement tightens edges" `Quick test_refinement_tightens_edges;
  ]
