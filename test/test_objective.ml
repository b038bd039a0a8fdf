open Greedy_routing

let make_instance () =
  (* 1-d instance with hand-placed vertices for exact phi computations. *)
  let params = Girg.Params.make ~dim:1 ~beta:2.5 ~w_min:1.0 ~n:10 ~poisson_count:false () in
  let weights = [| 1.0; 2.0; 4.0; 1.0 |] in
  let positions = [| [| 0.0 |]; [| 0.1 |]; [| 0.3 |]; [| 0.5 |] |] in
  let rng = Prng.Rng.create ~seed:1 in
  Girg.Instance.generate_with ~rng ~params ~weights ~positions ()

let test_girg_phi_values () =
  let inst = make_instance () in
  let obj = Objective.girg_phi inst ~target:3 in
  (* phi(v) = w_v / (w_min * n * dist(v, t)^d); target at 0.5. *)
  Alcotest.(check (float 1e-9)) "phi(0)" (1.0 /. (10.0 *. 0.5)) (obj.Objective.score 0);
  Alcotest.(check (float 1e-9)) "phi(1)" (2.0 /. (10.0 *. 0.4)) (obj.Objective.score 1);
  Alcotest.(check (float 1e-9)) "phi(2)" (4.0 /. (10.0 *. 0.2)) (obj.Objective.score 2);
  Alcotest.(check bool) "phi(t) = inf" true (obj.Objective.score 3 = infinity)

let test_phi_maximised_at_target () =
  let params = Girg.Params.make ~dim:2 ~beta:2.5 ~n:500 () in
  let inst = Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:2) params in
  let n = Sparse_graph.Graph.n inst.graph in
  let obj = Objective.girg_phi inst ~target:(n / 2) in
  for v = 0 to n - 1 do
    if v <> n / 2 && obj.Objective.score v >= obj.Objective.score (n / 2) then
      Alcotest.fail "target not the global maximum"
  done

let test_geometric_objective () =
  let packed = Geometry.Torus.Packed.of_flat ~dim:2 [| 0.0; 0.0; 0.4; 0.4; 0.5; 0.5 |] in
  let obj = Objective.geometric ~packed ~target:2 in
  Alcotest.(check bool) "closer scores higher" true
    (obj.Objective.score 1 > obj.Objective.score 0);
  Alcotest.(check bool) "target inf" true (obj.Objective.score 2 = infinity)

let test_hyperbolic_objective_ordering () =
  let p = Hyperbolic.Hrg.make ~n:200 () in
  let h = Hyperbolic.Hrg.generate ~rng:(Prng.Rng.create ~seed:3) p in
  let target = 17 in
  let obj = Objective.hyperbolic h ~target in
  (* phi_H ordering must match (inverse) hyperbolic distance ordering. *)
  let rng = Prng.Rng.create ~seed:4 in
  for _ = 1 to 500 do
    let u = Prng.Rng.int rng 200 and v = Prng.Rng.int rng 200 in
    if u <> target && v <> target then begin
      let du = Hyperbolic.Hrg.distance h.coords.(u) h.coords.(target) in
      let dv = Hyperbolic.Hrg.distance h.coords.(v) h.coords.(target) in
      let su = obj.Objective.score u and sv = obj.Objective.score v in
      if du < dv -. 1e-9 && su < sv then
        Alcotest.fail "phi_H ordering disagrees with hyperbolic distance"
    end
  done;
  Alcotest.(check bool) "target inf" true (obj.Objective.score target = infinity)

let test_of_fun_forces_target () =
  let obj = Objective.of_fun ~name:"const" ~target:5 (fun _ -> 1.0) in
  Alcotest.(check bool) "target inf" true (obj.Objective.score 5 = infinity);
  Alcotest.(check (float 0.0)) "others" 1.0 (obj.Objective.score 0)

let test_noisy_factor_bounds () =
  let inst = make_instance () in
  let base = Objective.girg_phi inst ~target:3 in
  let noisy = Objective.noisy_factor ~seed:7 ~spread:1.0 base in
  for v = 0 to 2 do
    let ratio = noisy.Objective.score v /. base.Objective.score v in
    if ratio < exp (-1.0) -. 1e-9 || ratio > exp 1.0 +. 1e-9 then
      Alcotest.fail "factor out of bounds"
  done;
  Alcotest.(check bool) "target still inf" true (noisy.Objective.score 3 = infinity)

let test_noisy_deterministic () =
  let inst = make_instance () in
  let base = Objective.girg_phi inst ~target:3 in
  let a = Objective.noisy_factor ~seed:7 ~spread:1.0 base in
  let b = Objective.noisy_factor ~seed:7 ~spread:1.0 base in
  for v = 0 to 2 do
    Alcotest.(check (float 0.0)) "same noise" (a.Objective.score v) (b.Objective.score v)
  done;
  let c = Objective.noisy_factor ~seed:8 ~spread:1.0 base in
  Alcotest.(check bool) "different seed differs" true
    (List.exists (fun v -> a.Objective.score v <> c.Objective.score v) [ 0; 1; 2 ])

let test_noisy_zero_spread_identity () =
  let inst = make_instance () in
  let base = Objective.girg_phi inst ~target:3 in
  let noisy = Objective.noisy_factor ~seed:7 ~spread:0.0 base in
  for v = 0 to 2 do
    Alcotest.(check (float 1e-12)) "identity" (base.Objective.score v) (noisy.Objective.score v)
  done

let test_noisy_polynomial_bounds () =
  let inst = make_instance () in
  let base = Objective.girg_phi inst ~target:3 in
  let noisy = Objective.noisy_polynomial ~seed:9 ~delta:0.5 ~weights:inst.weights base in
  for v = 0 to 2 do
    let s = base.Objective.score v in
    let m = Float.max 1.0 (Float.min inst.weights.(v) (1.0 /. s)) in
    let ratio = noisy.Objective.score v /. s in
    if ratio < (m ** -0.5) -. 1e-9 || ratio > (m ** 0.5) +. 1e-9 then
      Alcotest.fail "polynomial noise out of Theorem 3.5 bounds"
  done

let test_noisy_rejects_negative () =
  let inst = make_instance () in
  let base = Objective.girg_phi inst ~target:3 in
  Alcotest.check_raises "negative spread"
    (Invalid_argument "Objective.noisy_factor: negative spread") (fun () ->
      ignore (Objective.noisy_factor ~seed:1 ~spread:(-1.0) base))

(* --- hash_unit: pinned outputs + boxed Int64 reference ------------------ *)

(* The shipped implementation mixes on native-int halves; this is the boxed
   Int64 formulation it replaced, kept as an executable specification. *)
let hash_unit_int64 ~seed v =
  let z = Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int (v + 1)) 0x9E3779B97F4A7C15L) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  let bits53 = Int64.to_int (Int64.shift_right_logical z 11) in
  float_of_int bits53 /. 9007199254740992.0

let test_hash_unit_pinned () =
  (* Values produced by the original Int64 implementation: any drift here is
     a silent change to every noisy-objective experiment. *)
  List.iter
    (fun (seed, v, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "hash_unit ~seed:%d %d" seed v)
        expected
        (Printf.sprintf "%h" (Objective.hash_unit ~seed v)))
    [
      (0, 0, "0x1.c4415072f63b9p-1");
      (0, 1, "0x1.b9e279aa86e58p-2");
      (42, 7, "0x1.99ec6bdd3d3c5p-1");
      (42, 123456, "0x1.d6952525d5c63p-1");
      (-5, 3, "0x1.b1de70de4fe21p-1");
      (1000003, 999999, "0x1.06593fd05705p-1");
      (4611686018427387903, 2, "0x1.ee247b72d7622p-1");
      (-4611686018427387904, 11, "0x1.df250b5c5f24p-5");
      (123, 0, "0x1.69b937a8c5bc8p-1");
      (7, 1000000000, "0x1.69b0aeffc8abp-2");
    ]

let test_hash_unit_matches_int64 () =
  let rng = Prng.Rng.create ~seed:99 in
  for _ = 1 to 5000 do
    let seed = Prng.Rng.int rng 2_000_003 - 1_000_001 in
    let v = Prng.Rng.int rng 10_000_000 in
    let a = Objective.hash_unit ~seed v in
    let b = hash_unit_int64 ~seed v in
    if a <> b then
      Alcotest.failf "hash_unit mismatch at seed=%d v=%d: %h <> %h" seed v a b
  done;
  (* Extremes of the native-int range. *)
  List.iter
    (fun (seed, v) ->
      let a = Objective.hash_unit ~seed v in
      let b = hash_unit_int64 ~seed v in
      if a <> b then Alcotest.failf "hash_unit mismatch at seed=%d v=%d" seed v)
    [ (max_int, 0); (min_int, 0); (max_int, max_int - 1); (min_int, 17); (0, max_int - 1) ]

(* --- the dense score closures: bit-identical to reference formulas ------- *)

(* Each objective's [score] reads flat stores through (norm, dim)-specialised
   kernels.  The references below spell each formula out over
   [Geometry.Torus.dist] on points copied out of the packed store (for phi_H,
   over [Hrg.coords]); the two must agree bit for bit. *)

let check_identical ~name ~n (obj : Objective.t) reference =
  for v = 0 to n - 1 do
    let a = obj.Objective.score v in
    let b = reference v in
    if Int64.bits_of_float a <> Int64.bits_of_float b then
      Alcotest.failf "%s: score <> reference at v=%d: %h <> %h" name v a b
  done

let phi_reference (inst : Girg.Instance.t) ~target v =
  if v = target then infinity
  else begin
    let p = inst.params in
    let point = Geometry.Torus.Packed.get inst.packed in
    let dist = Geometry.Torus.dist ~norm:p.Girg.Params.norm (point v) (point target) in
    let dist_d =
      match p.Girg.Params.dim with
      | 1 -> dist
      | 2 -> dist *. dist
      | 3 -> dist *. dist *. dist
      | d -> dist ** float_of_int d
    in
    inst.weights.(v) /. (p.Girg.Params.w_min *. float_of_int p.Girg.Params.n *. dist_d)
  end

let test_dense_girg_phi_identical () =
  List.iter
    (fun (norm, dim) ->
      let params =
        Girg.Params.make ~dim ~beta:2.5 ~c:0.4 ~norm ~n:300 ~poisson_count:false ()
      in
      let inst = Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:11) params in
      let n = Array.length inst.weights in
      let name =
        Printf.sprintf "phi %s dim=%d" (Girg.Params.norm_to_string norm) dim
      in
      let target = n / 3 in
      check_identical ~name ~n (Objective.girg_phi inst ~target) (phi_reference inst ~target))
    [
      (Geometry.Torus.Linf, 1);
      (Geometry.Torus.Linf, 2);
      (Geometry.Torus.Linf, 3);
      (Geometry.Torus.Linf, 4);
      (Geometry.Torus.L2, 1);
      (Geometry.Torus.L2, 2);
      (Geometry.Torus.L2, 3);
      (Geometry.Torus.L1, 2);
      (Geometry.Torus.L1, 4);
    ]

let test_dense_geometric_identical () =
  let rng = Prng.Rng.create ~seed:12 in
  let positions = Array.init 200 (fun _ -> Geometry.Torus.random_point rng ~dim:2) in
  let packed = Geometry.Torus.Packed.of_points ~dim:2 positions in
  let target = 55 in
  let point = Geometry.Torus.Packed.get packed in
  check_identical ~name:"geometric" ~n:200 (Objective.geometric ~packed ~target) (fun v ->
      if v = target then infinity
      else 1.0 /. Geometry.Torus.dist ~norm:Geometry.Torus.Linf (point v) (point target))

let test_dense_hyperbolic_identical () =
  let p = Hyperbolic.Hrg.make ~n:300 () in
  let h = Hyperbolic.Hrg.generate ~rng:(Prng.Rng.create ~seed:13) p in
  let target = 42 in
  let ct = h.coords.(target) in
  let reference v =
    if v = target then infinity
    else begin
      let a = h.coords.(v) in
      let dangle =
        let d = abs_float (a.Hyperbolic.Hrg.angle -. ct.Hyperbolic.Hrg.angle) in
        if d > Float.pi then (2.0 *. Float.pi) -. d else d
      in
      let cosh_dh =
        cosh (a.Hyperbolic.Hrg.r -. ct.Hyperbolic.Hrg.r)
        +. ((1.0 -. cos dangle) *. sinh a.Hyperbolic.Hrg.r *. sinh ct.Hyperbolic.Hrg.r)
      in
      float_of_int p.Hyperbolic.Hrg.n
      /. (h.weights.(target) *. exp (-.p.Hyperbolic.Hrg.radius_c /. 2.0)
         *. sqrt (Float.max 1.0 cosh_dh))
    end
  in
  check_identical ~name:"phi_H" ~n:300 (Objective.hyperbolic h ~target) reference

let test_dense_noisy_identical () =
  let params = Girg.Params.make ~dim:2 ~beta:2.5 ~c:0.4 ~n:300 ~poisson_count:false () in
  let inst = Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:14) params in
  let n = Array.length inst.weights in
  let target = n / 2 in
  let base = Objective.girg_phi inst ~target in
  let phi = phi_reference inst ~target in
  let u v = (2.0 *. Objective.hash_unit ~seed:5 v) -. 1.0 in
  check_identical ~name:"noisy_factor" ~n
    (Objective.noisy_factor ~seed:5 ~spread:1.5 base)
    (fun v -> if v = target then infinity else phi v *. exp (u v *. 1.5));
  check_identical ~name:"noisy_polynomial" ~n
    (Objective.noisy_polynomial ~seed:5 ~delta:0.7 ~weights:inst.weights base)
    (fun v ->
      let s = phi v in
      if v = target || s <= 0.0 then s
      else s *. (Float.max 1.0 (Float.min inst.weights.(v) (1.0 /. s)) ** (u v *. 0.7)))

(* --- Memo ---------------------------------------------------------------- *)

let test_memo_identity_and_counting () =
  let calls = ref 0 in
  let obj =
    Objective.of_fun ~name:"counted" ~target:9 (fun v ->
        incr calls;
        float_of_int (v * v))
  in
  let scratch = Objective.Memo.create () in
  let wrapped = Objective.Memo.wrap scratch ~n:10 obj in
  let phi = Objective.scorer wrapped in
  for v = 0 to 9 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "memo value %d" v)
      (obj.Objective.score v) (phi v)
  done;
  let after_first = !calls in
  for v = 0 to 9 do ignore (phi v) done;
  Alcotest.(check int) "second sweep fully cached" after_first !calls;
  (* A re-wrap starts a fresh generation: values recompute. *)
  let wrapped2 = Objective.Memo.wrap scratch ~n:10 obj in
  let phi2 = Objective.scorer wrapped2 in
  ignore (phi2 0);
  Alcotest.(check bool) "new generation recomputes" true (!calls > after_first)

let suite =
  [
    Alcotest.test_case "girg phi values" `Quick test_girg_phi_values;
    Alcotest.test_case "phi maximised at target" `Quick test_phi_maximised_at_target;
    Alcotest.test_case "geometric objective" `Quick test_geometric_objective;
    Alcotest.test_case "hyperbolic objective ordering" `Quick test_hyperbolic_objective_ordering;
    Alcotest.test_case "of_fun forces target" `Quick test_of_fun_forces_target;
    Alcotest.test_case "noisy factor bounds" `Quick test_noisy_factor_bounds;
    Alcotest.test_case "noisy deterministic" `Quick test_noisy_deterministic;
    Alcotest.test_case "zero spread identity" `Quick test_noisy_zero_spread_identity;
    Alcotest.test_case "polynomial noise bounds" `Quick test_noisy_polynomial_bounds;
    Alcotest.test_case "rejects negative spread" `Quick test_noisy_rejects_negative;
    Alcotest.test_case "hash_unit pinned values" `Quick test_hash_unit_pinned;
    Alcotest.test_case "hash_unit = Int64 reference" `Quick test_hash_unit_matches_int64;
    Alcotest.test_case "dense girg_phi bit-identical" `Quick test_dense_girg_phi_identical;
    Alcotest.test_case "dense geometric bit-identical" `Quick test_dense_geometric_identical;
    Alcotest.test_case "dense hyperbolic bit-identical" `Quick test_dense_hyperbolic_identical;
    Alcotest.test_case "dense noisy chain bit-identical" `Quick test_dense_noisy_identical;
    Alcotest.test_case "memo identity and counting" `Quick test_memo_identity_and_counting;
  ]
