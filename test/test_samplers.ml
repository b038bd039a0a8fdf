(* The executable-specification tests of the GIRG generator: the cell
   sampler must produce the same edge distribution as the naive sampler,
   and the generated graphs must have the structural properties the model
   promises (degrees ~ weights, power-law tail, giant component). *)

open Girg

let fixed_instance_inputs ~seed ~count ~params =
  let rng = Prng.Rng.create ~seed in
  let weights = Instance.sample_weights ~rng ~params ~count in
  let positions = Instance.sample_positions ~rng ~params ~count in
  (weights, positions)

let total_edges sampler ~params ~weights ~positions ~trials ~seed0 =
  let kernel = Kernel.girg params in
  let total = ref 0 in
  for s = 1 to trials do
    let rng = Prng.Rng.create ~seed:(seed0 + s) in
    let edges =
      match sampler with
      | `Naive -> Naive.sample_edges ~rng ~kernel ~weights ~positions
      | `Cell -> Cell.sample_edges ~rng ~kernel ~weights ~positions ()
    in
    total := !total + Array.length edges
  done;
  !total

let check_agreement ~dim ~beta ~alpha ~count ~trials =
  let params = Params.make ~dim ~beta ~alpha ~n:count ~poisson_count:false () in
  let weights, positions = fixed_instance_inputs ~seed:97 ~count ~params in
  let naive = total_edges `Naive ~params ~weights ~positions ~trials ~seed0:100 in
  let cell = total_edges `Cell ~params ~weights ~positions ~trials ~seed0:9000 in
  let ratio = float_of_int cell /. float_of_int naive in
  (* Edge totals are sums of independent Bernoullis; with >= 1e4 expected
     edges the ratio concentrates within a few percent. *)
  if abs_float (ratio -. 1.0) > 0.05 then
    Alcotest.failf "cell/naive edge ratio %.4f (naive=%d cell=%d)" ratio naive cell

let test_agreement_d1 () =
  check_agreement ~dim:1 ~beta:2.5 ~alpha:(Params.Finite 2.0) ~count:300 ~trials:15

let test_agreement_d2 () =
  check_agreement ~dim:2 ~beta:2.5 ~alpha:(Params.Finite 2.0) ~count:300 ~trials:15

let test_agreement_d3 () =
  check_agreement ~dim:3 ~beta:2.2 ~alpha:(Params.Finite 1.5) ~count:200 ~trials:15

let test_agreement_d4 () =
  (* Exercises the generic-dimension code paths (Morton codes at d=4, the
     generic dist^d power). *)
  check_agreement ~dim:4 ~beta:2.5 ~alpha:(Params.Finite 2.0) ~count:200 ~trials:15

let test_agreement_l2_norm () =
  (* Norm-generic sampling: the L-inf cell separation bounds must stay valid
     envelopes when pair distances are measured in L2. *)
  let params =
    Girg.Params.make ~dim:2 ~beta:2.5 ~alpha:(Params.Finite 2.0)
      ~norm:Geometry.Torus.L2 ~n:300 ~poisson_count:false ()
  in
  let weights, positions = fixed_instance_inputs ~seed:98 ~count:300 ~params in
  let naive = total_edges `Naive ~params ~weights ~positions ~trials:15 ~seed0:200 in
  let cell = total_edges `Cell ~params ~weights ~positions ~trials:15 ~seed0:9200 in
  let ratio = float_of_int cell /. float_of_int naive in
  if abs_float (ratio -. 1.0) > 0.05 then
    Alcotest.failf "L2 cell/naive ratio %.4f (naive=%d cell=%d)" ratio naive cell

let test_agreement_threshold_exact () =
  (* alpha = infinity: all edges are deterministic given weights/positions,
     so the two samplers must agree EXACTLY. *)
  let params = Params.make ~dim:2 ~beta:2.7 ~alpha:Params.Infinite ~n:400 ~poisson_count:false () in
  let weights, positions = fixed_instance_inputs ~seed:3 ~count:400 ~params in
  let kernel = Kernel.girg params in
  let rng = Prng.Rng.create ~seed:1 in
  let naive = Naive.sample_edges ~rng ~kernel ~weights ~positions in
  let cell = Cell.sample_edges ~rng:(Prng.Rng.create ~seed:2) ~kernel ~weights ~positions () in
  let norm edges =
    List.sort compare (Array.to_list (Array.map (fun (u, v) -> (min u v, max u v)) edges))
  in
  Alcotest.(check (list (pair int int))) "identical edge sets" (norm naive) (norm cell)

let test_per_pair_distribution () =
  (* Monte-Carlo per-pair frequencies of the cell sampler vs the exact
     kernel probability on one fixed small instance. *)
  let count = 60 in
  let params = Params.make ~dim:2 ~beta:2.5 ~alpha:(Params.Finite 2.0) ~n:count ~poisson_count:false () in
  let weights, positions = fixed_instance_inputs ~seed:11 ~count ~params in
  let kernel = Kernel.girg params in
  let trials = 2500 in
  let counts = Array.make_matrix count count 0 in
  for s = 1 to trials do
    let rng = Prng.Rng.create ~seed:(40_000 + s) in
    Array.iter
      (fun (u, v) ->
        let u, v = (min u v, max u v) in
        counts.(u).(v) <- counts.(u).(v) + 1)
      (Cell.sample_edges ~rng ~kernel ~weights ~positions ())
  done;
  for u = 0 to count - 1 do
    for v = u + 1 to count - 1 do
      let dist = Geometry.Torus.dist_linf positions.(u) positions.(v) in
      let p = Kernel.girg_prob params ~wu:weights.(u) ~wv:weights.(v) ~dist in
      let observed = float_of_int counts.(u).(v) /. float_of_int trials in
      let tolerance = 0.03 +. (4.5 *. sqrt (p *. (1.0 -. p) /. float_of_int trials)) in
      if abs_float (observed -. p) > tolerance then
        Alcotest.failf "pair (%d,%d): exact %.4f observed %.4f" u v p observed
    done
  done

let test_degree_tracks_weight () =
  let params = Params.make ~dim:2 ~beta:2.5 ~c:0.5 ~n:20_000 () in
  let rng = Prng.Rng.create ~seed:5 in
  let inst = Instance.generate ~rng params in
  (* Lemma 7.2: E[deg v] = Theta(w_v).  Check the log-log slope ~ 1. *)
  let points =
    Array.of_seq
      (Seq.filter_map
         (fun v ->
           let d = Sparse_graph.Graph.degree inst.graph v in
           if d > 0 then Some (inst.weights.(v), float_of_int d) else None)
         (Seq.init (Sparse_graph.Graph.n inst.graph) Fun.id))
  in
  let fit = Stats.Regression.log_log points in
  if abs_float (fit.Stats.Regression.slope -. 1.0) > 0.15 then
    Alcotest.failf "degree/weight slope %.3f" fit.Stats.Regression.slope

let test_power_law_degrees () =
  let params = Params.make ~dim:2 ~beta:2.5 ~c:0.5 ~n:30_000 () in
  let rng = Prng.Rng.create ~seed:6 in
  let inst = Instance.generate ~rng params in
  (* The tail estimator needs its cutoff above the degree bulk. *)
  let d_min = 2 * int_of_float (Sparse_graph.Graph.avg_degree inst.graph) in
  match Sparse_graph.Gstats.power_law_exponent_mle ~d_min inst.graph with
  | None -> Alcotest.fail "no MLE"
  | Some b -> if abs_float (b -. 2.5) > 0.35 then Alcotest.failf "beta MLE %.2f" b

let test_giant_component () =
  let params = Params.make ~dim:2 ~beta:2.5 ~c:0.5 ~n:20_000 () in
  let rng = Prng.Rng.create ~seed:7 in
  let inst = Instance.generate ~rng params in
  let comps = Sparse_graph.Components.compute inst.graph in
  let frac =
    float_of_int (Sparse_graph.Components.giant_size comps)
    /. float_of_int (Sparse_graph.Graph.n inst.graph)
  in
  if frac < 0.5 then Alcotest.failf "giant fraction %.3f" frac

let test_generate_determinism () =
  let params = Params.make ~dim:2 ~beta:2.5 ~n:2000 () in
  let a = Instance.generate ~rng:(Prng.Rng.create ~seed:9) params in
  let b = Instance.generate ~rng:(Prng.Rng.create ~seed:9) params in
  Alcotest.(check int) "same n" (Sparse_graph.Graph.n a.graph) (Sparse_graph.Graph.n b.graph);
  Alcotest.(check int) "same m" (Sparse_graph.Graph.m a.graph) (Sparse_graph.Graph.m b.graph);
  Alcotest.(check bool) "same weights" true (a.weights = b.weights)

let test_generate_with_pins_data () =
  let params = Params.make ~dim:1 ~beta:2.5 ~n:50 ~poisson_count:false () in
  let weights = Array.make 50 2.0 in
  let positions = Array.init 50 (fun i -> [| float_of_int i /. 50.0 |]) in
  let rng = Prng.Rng.create ~seed:1 in
  let inst = Instance.generate_with ~rng ~params ~weights ~positions () in
  Alcotest.(check bool) "weights kept" true (inst.weights == weights);
  Alcotest.(check int) "n" 50 (Sparse_graph.Graph.n inst.graph)

let test_connection_prob_accessor () =
  let params = Params.make ~dim:1 ~beta:2.5 ~n:10 ~poisson_count:false () in
  let weights = [| 1.0; 1.0 |] in
  let positions = [| [| 0.0 |]; [| 0.5 |] |] in
  let rng = Prng.Rng.create ~seed:1 in
  let inst = Instance.generate_with ~rng ~params ~weights ~positions () in
  Alcotest.(check (float 1e-12)) "matches kernel"
    (Kernel.girg_prob params ~wu:1.0 ~wv:1.0 ~dist:0.5)
    (Instance.connection_prob inst 0 1)

let test_generate_pinned () =
  let params = Params.make ~dim:2 ~beta:2.5 ~w_min:1.0 ~n:500 () in
  let pinned = [ (7.5, [| 0.25; 0.75 |]); (1.0, [| 0.1; 0.1 |]) ] in
  let inst =
    Instance.generate_pinned ~rng:(Prng.Rng.create ~seed:33) ~params ~pinned ()
  in
  Alcotest.(check (float 0.0)) "pinned weight 0" 7.5 inst.weights.(0);
  Alcotest.(check (float 0.0)) "pinned weight 1" 1.0 inst.weights.(1);
  Alcotest.(check (float 0.0)) "pinned position" 0.25 (Geometry.Torus.Packed.coord inst.packed 0 0);
  Alcotest.(check (float 0.0)) "pinned position y" 0.75 (Geometry.Torus.Packed.coord inst.packed 0 1);
  Alcotest.check_raises "weight below w_min"
    (Invalid_argument "Girg.generate_pinned: pinned weight below w_min") (fun () ->
      ignore
        (Instance.generate_pinned ~rng:(Prng.Rng.create ~seed:1) ~params
           ~pinned:[ (0.5, [| 0.0; 0.0 |]) ] ()));
  Alcotest.check_raises "wrong dimension"
    (Invalid_argument "Girg.generate_pinned: pinned position has wrong dimension")
    (fun () ->
      ignore
        (Instance.generate_pinned ~rng:(Prng.Rng.create ~seed:1) ~params
           ~pinned:[ (2.0, [| 0.0 |]) ] ()))

let test_capped_vertices_path () =
  (* Force the cell sampler's exhaustive capped-vertex branch by lowering the
     kernel's weight cap; in the threshold model all edges are deterministic,
     so the result must still equal the naive sampler's exactly. *)
  let params = Params.make ~dim:2 ~beta:2.7 ~alpha:Params.Infinite ~n:300 ~poisson_count:false () in
  let weights, positions = fixed_instance_inputs ~seed:44 ~count:300 ~params in
  let base = Kernel.girg params in
  let capped_kernel =
    { base with Kernel.weight_cap = Stats.Summary.percentile weights ~p:0.8 }
  in
  let norm edges =
    List.sort compare (Array.to_list (Array.map (fun (u, v) -> (min u v, max u v)) edges))
  in
  let naive = Naive.sample_edges ~rng:(Prng.Rng.create ~seed:1) ~kernel:base ~weights ~positions in
  let cell =
    Cell.sample_edges ~rng:(Prng.Rng.create ~seed:2) ~kernel:capped_kernel ~weights ~positions ()
  in
  Alcotest.(check (list (pair int int))) "capped path exact" (norm naive) (norm cell)

let test_pvt_ordering_matches_phi () =
  (* Section 2.2: maximising p_vt is equivalent to maximising phi wherever
     p_vt < 1 (the saturated region ties at 1, which phi refines). *)
  let params = Params.make ~dim:2 ~beta:2.5 ~alpha:(Params.Finite 2.0) ~n:400 () in
  let inst = Instance.generate ~rng:(Prng.Rng.create ~seed:45) params in
  let count = Sparse_graph.Graph.n inst.graph in
  let target = count / 2 in
  let phi v =
    inst.weights.(v)
    /. (params.Params.w_min *. float_of_int params.Params.n
       *. (Geometry.Torus.Packed.dist_between_fn inst.packed Geometry.Torus.Linf v target ** 2.0))
  in
  let rng = Prng.Rng.create ~seed:46 in
  for _ = 1 to 2000 do
    let u = Prng.Rng.int rng count and v = Prng.Rng.int rng count in
    if u <> target && v <> target && u <> v then begin
      let pu = Instance.connection_prob inst u target in
      let pv = Instance.connection_prob inst v target in
      if pu < 1.0 && pv < 1.0 && pu > pv && phi u <= phi v then
        Alcotest.fail "p_vt ordering disagrees with phi ordering"
    end
  done

let test_empty_and_tiny () =
  let kernel = Kernel.girg (Params.make ~n:10 ()) in
  let rng = Prng.Rng.create ~seed:1 in
  Alcotest.(check int) "no vertices" 0
    (Array.length (Cell.sample_edges ~rng ~kernel ~weights:[||] ~positions:[||] ()));
  Alcotest.(check int) "one vertex" 0
    (Array.length
       (Cell.sample_edges ~rng ~kernel ~weights:[| 1.0 |] ~positions:[| [| 0.1; 0.2 |] |] ()))

let test_cell_near_linear_scaling () =
  (* The whole point of the cell sampler: its work scales near-linearly.  A
     quadratic sampler would multiply tested pairs by 16 when n quadruples;
     we require far less. *)
  let pairs_tested count =
    let params = Params.make ~dim:2 ~beta:2.5 ~c:0.25 ~n:count ~poisson_count:false () in
    let weights, positions = fixed_instance_inputs ~seed:55 ~count ~params in
    let _, stats =
      Cell.sample_edges_stats ~rng:(Prng.Rng.create ~seed:1)
        ~kernel:(Kernel.girg params) ~weights ~positions ()
    in
    stats.Cell.type1_pairs + stats.Cell.type2_trials
  in
  let small = pairs_tested 10_000 and large = pairs_tested 40_000 in
  let ratio = float_of_int large /. float_of_int small in
  if ratio > 8.0 then Alcotest.failf "work ratio %.1f for 4x vertices (quadratic?)" ratio

let test_cell_stats_sane () =
  let count = 2000 in
  let params = Params.make ~dim:2 ~beta:2.5 ~n:count ~poisson_count:false () in
  let weights, positions = fixed_instance_inputs ~seed:21 ~count ~params in
  let kernel = Kernel.girg params in
  let rng = Prng.Rng.create ~seed:3 in
  let edges, stats = Cell.sample_edges_stats ~rng ~kernel ~weights ~positions () in
  Alcotest.(check bool) "visited cells" true (stats.Cell.cells_visited > 0);
  Alcotest.(check bool) "type1 bounded" true
    (stats.Cell.type1_pairs < count * count / 2);
  Alcotest.(check bool) "edges nonzero" true (Array.length edges > 0)

let suite =
  [
    Alcotest.test_case "cell=naive d=1" `Slow test_agreement_d1;
    Alcotest.test_case "cell=naive d=2" `Slow test_agreement_d2;
    Alcotest.test_case "cell=naive d=3" `Slow test_agreement_d3;
    Alcotest.test_case "cell=naive d=4" `Slow test_agreement_d4;
    Alcotest.test_case "cell=naive L2 norm" `Slow test_agreement_l2_norm;
    Alcotest.test_case "threshold: identical edge sets" `Quick test_agreement_threshold_exact;
    Alcotest.test_case "per-pair distribution" `Slow test_per_pair_distribution;
    Alcotest.test_case "degree tracks weight (Lemma 7.2)" `Quick test_degree_tracks_weight;
    Alcotest.test_case "power-law degrees" `Quick test_power_law_degrees;
    Alcotest.test_case "giant component" `Quick test_giant_component;
    Alcotest.test_case "generate determinism" `Quick test_generate_determinism;
    Alcotest.test_case "generate_with pins data" `Quick test_generate_with_pins_data;
    Alcotest.test_case "connection_prob accessor" `Quick test_connection_prob_accessor;
    Alcotest.test_case "generate_pinned" `Quick test_generate_pinned;
    Alcotest.test_case "capped-vertex sampler path" `Quick test_capped_vertices_path;
    Alcotest.test_case "p_vt ordering = phi ordering" `Quick test_pvt_ordering_matches_phi;
    Alcotest.test_case "empty and tiny inputs" `Quick test_empty_and_tiny;
    Alcotest.test_case "cell near-linear scaling" `Slow test_cell_near_linear_scaling;
    Alcotest.test_case "cell sampler stats" `Quick test_cell_stats_sane;
  ]
