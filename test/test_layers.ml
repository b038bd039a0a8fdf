open Greedy_routing

let make_instance ?(beta = 2.5) ?(alpha = Girg.Params.Finite 2.0) () =
  let params = Girg.Params.make ~dim:2 ~beta ~alpha ~c:0.25 ~n:5000 () in
  Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:41) params

let test_make_validation () =
  let inst = make_instance () in
  Alcotest.check_raises "epsilon 0" (Invalid_argument "Layers.make: epsilon must lie in (0, 1)")
    (fun () -> ignore (Layers.make ~inst ~target:0 ~epsilon:0.0 ()))

let test_gamma_and_growth () =
  let inst = make_instance () in
  let t = Layers.make ~inst ~target:0 ~epsilon:0.1 () in
  (* gamma = (1 - 0.1)/(2.5 - 2) = 1.8; zeta = 1.5 => growth = 0.85/0.5 = 1.7. *)
  Alcotest.(check (float 1e-9)) "gamma" 1.8 (Layers.gamma t);
  Alcotest.(check (float 1e-9)) "growth" 1.7 (Layers.growth t)

let test_growth_threshold_case () =
  let inst = make_instance ~alpha:Girg.Params.Infinite () in
  let t = Layers.make ~inst ~target:0 () in
  Alcotest.(check (float 1e-9)) "zeta = 3/2 for threshold" 1.7 (Layers.growth t)

let test_phase_boundary () =
  let inst = make_instance () in
  let t = Layers.make ~inst ~target:17 () in
  let objective = Objective.girg_phi inst ~target:17 in
  let n = Sparse_graph.Graph.n inst.graph in
  for v = 0 to min 999 (n - 1) do
    if v <> 17 then begin
      let expected =
        if objective.Objective.score v <= inst.weights.(v) ** -1.8 then Layers.Weight_phase
        else Layers.Objective_phase
      in
      if Layers.phase t v <> expected then Alcotest.failf "phase mismatch at %d" v
    end
  done

let test_weight_layer_examples () =
  (* Base layer starts at w = 2 with growth g = 1.7: boundaries are
     2, 2^1.7, 2^(1.7^2), ... — check a few hand-computed indices by
     patching one vertex's weight. *)
  let inst = make_instance () in
  let layer_of_weight w =
    let weights = Array.copy inst.weights in
    weights.(1) <- w;
    let inst' =
      Girg.Instance.make ~params:inst.params ~weights ~packed:inst.packed ~graph:inst.graph
    in
    Layers.weight_layer (Layers.make ~inst:inst' ~target:0 ()) 1
  in
  Alcotest.(check int) "below base" (-1) (layer_of_weight 1.5);
  Alcotest.(check int) "at base" 0 (layer_of_weight 2.0);
  Alcotest.(check int) "inside layer 0" 0 (layer_of_weight (2.0 ** 1.6));
  Alcotest.(check int) "layer 1" 1 (layer_of_weight (2.0 ** 1.8));
  Alcotest.(check int) "layer 2" 2 (layer_of_weight (2.0 ** (1.7 *. 1.7 *. 1.01)))

let test_weight_layer_monotone () =
  let inst = make_instance () in
  let t = Layers.make ~inst ~target:0 () in
  (* Heavier vertices never have a smaller layer index. *)
  let n = Sparse_graph.Graph.n inst.graph in
  let indexed = List.init (min 2000 n) (fun v -> (inst.weights.(v), Layers.weight_layer t v)) in
  let sorted = List.sort compare indexed in
  let rec check = function
    | (_, j1) :: ((_, j2) :: _ as rest) ->
        if j1 > j2 then Alcotest.fail "weight layer not monotone in weight";
        check rest
    | [ _ ] | [] -> ()
  in
  check sorted

let test_below_base_layer () =
  let inst = make_instance () in
  let t = Layers.make ~inst ~target:0 () in
  (* w_min = 1 < base 2: some vertex below the base must map to -1. *)
  let n = Sparse_graph.Graph.n inst.graph in
  let found = ref false in
  for v = 0 to n - 1 do
    if inst.weights.(v) < 2.0 then begin
      if Layers.weight_layer t v <> -1 then Alcotest.fail "light vertex not in layer -1";
      found := true
    end
  done;
  Alcotest.(check bool) "light vertices exist" true !found

let test_objective_layer_direction () =
  let inst = make_instance () in
  let target = 3 in
  let t = Layers.make ~inst ~target () in
  let objective = Objective.girg_phi inst ~target in
  (* Larger objectives get smaller (or equal) layer indices; the target
     itself (phi = infinity) is index -1. *)
  Alcotest.(check int) "target index" (-1) (Layers.objective_layer t target);
  let n = Sparse_graph.Graph.n inst.graph in
  let scored =
    List.init (min 2000 n) (fun v -> (objective.Objective.score v, Layers.objective_layer t v))
  in
  let in_range = List.filter (fun (s, _) -> s <= 0.5 && s > 0.0) scored in
  let sorted = List.sort compare in_range in
  let rec check = function
    | (_, j1) :: ((_, j2) :: _ as rest) ->
        if j1 < j2 then Alcotest.fail "objective layer not antitone in objective";
        check rest
    | [ _ ] | [] -> ()
  in
  check sorted

let test_analyze_short_walks () =
  let inst = make_instance () in
  let t = Layers.make ~inst ~target:5 () in
  let empty = Layers.analyze_walk t [] in
  Alcotest.(check int) "empty length" 0 empty.Layers.length;
  Alcotest.(check int) "empty switches" 0 empty.Layers.phase_switches;
  let single = Layers.analyze_walk t [ 0 ] in
  Alcotest.(check int) "single length" 0 single.Layers.length

let test_analyze_greedy_walks () =
  let inst = make_instance () in
  let graph = inst.graph in
  let rng = Prng.Rng.create ~seed:42 in
  let n = Sparse_graph.Graph.n graph in
  let clean = ref 0 and total = ref 0 in
  for _ = 1 to 200 do
    let s, target = Prng.Dist.sample_distinct_pair rng ~n in
    let objective = Objective.girg_phi inst ~target in
    let outcome = Greedy.route ~graph ~objective ~source:s () in
    if Outcome.delivered outcome && outcome.steps >= 2 then begin
      incr total;
      let t = Layers.make ~inst ~target () in
      let body = List.filteri (fun k _ -> k < List.length outcome.walk - 1) outcome.walk in
      let r = Layers.analyze_walk t body in
      if
        r.Layers.phase_switches <= 1
        && r.Layers.repeated_weight_layers = 0
        && r.Layers.repeated_objective_layers = 0
      then incr clean
    end
  done;
  (* Lemma 8.1 is an a.a.s. statement; at n = 5000 the clean fraction should
     already be overwhelming. *)
  if !total = 0 then Alcotest.fail "no walks analyzed";
  let frac = float_of_int !clean /. float_of_int !total in
  if frac < 0.9 then Alcotest.failf "clean fraction %.2f below 0.9" frac

let suite =
  [
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "gamma and growth" `Quick test_gamma_and_growth;
    Alcotest.test_case "growth threshold case" `Quick test_growth_threshold_case;
    Alcotest.test_case "phase boundary" `Quick test_phase_boundary;
    Alcotest.test_case "weight layer examples" `Quick test_weight_layer_examples;
    Alcotest.test_case "weight layer monotone" `Quick test_weight_layer_monotone;
    Alcotest.test_case "below base layer" `Quick test_below_base_layer;
    Alcotest.test_case "objective layer direction" `Quick test_objective_layer_direction;
    Alcotest.test_case "analyze short walks" `Quick test_analyze_short_walks;
    Alcotest.test_case "analyze greedy walks (Lemma 8.1)" `Quick test_analyze_greedy_walks;
  ]
