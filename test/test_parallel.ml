(* The multicore execution layer: Pool combinator semantics, and the
   determinism contract — GIRG edge arrays, HRG graphs, route batches
   and whole experiment tables must be bit-identical for any job count
   at a fixed seed (DESIGN.md "Parallel execution"). *)

module Pool = Parallel.Pool

let with_pool jobs f =
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* Restores the job count the suite runs at (SMALLWORLD_JOBS), so later
   suites keep running at it. *)
let with_global_jobs jobs f =
  let prev = Parallel.Global.jobs () in
  Fun.protect ~finally:(fun () -> Parallel.Global.set_jobs prev)
    (fun () -> Parallel.Global.set_jobs jobs; f ())

(* ------------------------------------------------------------------ *)
(* Pool sanity *)

let test_map_matches_sequential () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          let got = Pool.map pool ~n:97 (fun i -> (i * i) - 3) in
          let want = Array.init 97 (fun i -> (i * i) - 3) in
          Alcotest.(check (array int))
            (Printf.sprintf "map jobs=%d" jobs) want got))
    [ 1; 2; 4 ]

let test_parallel_for_covers_range () =
  with_pool 4 (fun pool ->
      let hits = Array.make 100 0 in
      (* Disjoint chunks: each index is written by exactly one task. *)
      Pool.parallel_for pool ~lo:0 ~hi:100 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check (array int)) "each index once" (Array.make 100 1) hits;
      let sum = Atomic.make 0 in
      Pool.parallel_for pool ~chunk_size:3 ~lo:10 ~hi:55 (fun i ->
          ignore (Atomic.fetch_and_add sum i));
      Alcotest.(check int) "sum 10..54" (45 * (10 + 54) / 2) (Atomic.get sum))

let test_empty_and_tiny_ranges () =
  with_pool 4 (fun pool ->
      Pool.run pool ~n:0 (fun _ -> Alcotest.fail "body called on n=0");
      Pool.parallel_for pool ~lo:5 ~hi:5 (fun _ -> Alcotest.fail "body on empty range");
      Alcotest.(check (array int)) "map n=0" [||] (Pool.map pool ~n:0 (fun i -> i)))

let test_more_jobs_than_work () =
  (* Workers starve but every index still runs exactly once. *)
  with_pool 8 (fun pool ->
      let got = Pool.map pool ~n:3 (fun i -> 10 * i) in
      Alcotest.(check (array int)) "3 items on 8 jobs" [| 0; 10; 20 |] got)

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          Alcotest.check_raises
            (Printf.sprintf "raise reaches submitter (jobs=%d)" jobs)
            (Failure "boom-42")
            (fun () ->
              Pool.run pool ~n:64 (fun i -> if i = 42 then failwith "boom-42"));
          (* The pool survives a failed batch. *)
          Alcotest.(check (array int)) "pool usable after failure"
            [| 0; 1; 2; 3 |]
            (Pool.map pool ~n:4 (fun i -> i))))
    [ 1; 4 ]

let test_nested_submission_runs_inline () =
  with_pool 2 (fun pool ->
      let got =
        Pool.map pool ~n:6 (fun i ->
            (* Re-entering the pool from a task must not deadlock. *)
            Pool.map_reduce pool ~n:4 ~map:(fun j -> i + j) ~reduce:( + ) ~init:0)
      in
      let want = Array.init 6 (fun i -> (4 * i) + 6) in
      Alcotest.(check (array int)) "nested map_reduce" want got)

let test_map_reduce_order () =
  (* Non-commutative reduce: result must follow index order, not
     completion order. *)
  with_pool 4 (fun pool ->
      let s =
        Pool.map_reduce pool ~n:26
          ~map:(fun i -> String.make 1 (Char.chr (Char.code 'a' + i)))
          ~reduce:( ^ ) ~init:""
      in
      Alcotest.(check string) "concat in index order" "abcdefghijklmnopqrstuvwxyz" s)

let test_resolve_jobs () =
  Alcotest.(check int) "explicit wins" 3 (Pool.resolve_jobs ~jobs:3 ());
  Alcotest.(check bool) "0 = recommended >= 1" true (Pool.resolve_jobs ~jobs:0 () >= 1);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Pool.resolve_jobs: bad job count -1") (fun () ->
      ignore (Pool.create ~jobs:(-1) ()))

(* ------------------------------------------------------------------ *)
(* Determinism across job counts *)

let girg_edges ~jobs =
  let params =
    Girg.Params.make ~dim:2 ~beta:2.5 ~alpha:(Girg.Params.Finite 2.0) ~n:2000
      ~poisson_count:false ()
  in
  let rng = Prng.Rng.create ~seed:97 in
  let count = 2000 in
  let weights = Girg.Instance.sample_weights ~rng ~params ~count in
  let positions = Girg.Instance.sample_positions ~rng ~params ~count in
  let kernel = Girg.Kernel.girg params in
  let rng_edges = Prng.Rng.create ~seed:11 in
  with_pool jobs (fun pool ->
      let edges = Girg.Cell.sample_edges ~pool ~rng:rng_edges ~kernel ~weights ~positions () in
      (* The caller's rng must advance identically for every job count. *)
      (edges, Prng.Rng.bits64 rng_edges))

let test_girg_edges_bit_identical () =
  let reference, rng_after = girg_edges ~jobs:1 in
  Alcotest.(check bool) "sampler produced edges" true (Array.length reference > 1000);
  List.iter
    (fun jobs ->
      let edges, rng_after' = girg_edges ~jobs in
      Alcotest.(check bool)
        (Printf.sprintf "edge array identical, jobs=%d" jobs)
        true
        (edges = reference);
      Alcotest.(check int64)
        (Printf.sprintf "caller rng state identical, jobs=%d" jobs)
        rng_after rng_after')
    [ 2; 4 ]

let adjacency g =
  Array.init (Sparse_graph.Graph.n g) (fun v -> Sparse_graph.Graph.neighbors g v)

let test_hrg_graph_bit_identical () =
  (* HRG kernels have a finite weight_cap, so this also pins the capped
     exhaustive-test task stream; generation goes through the shared
     global pool, exercising the Global.set_jobs path. *)
  let gen jobs =
    with_global_jobs jobs (fun () ->
        let p = Hyperbolic.Hrg.make ~alpha_h:0.75 ~radius_c:(-1.0) ~n:1500 () in
        Hyperbolic.Hrg.generate ~sampler:Hyperbolic.Hrg.Use_cell
          ~rng:(Prng.Rng.create ~seed:5) p)
  in
  let reference = gen 1 in
  List.iter
    (fun jobs ->
      let h = gen jobs in
      Alcotest.(check int)
        (Printf.sprintf "edge count, jobs=%d" jobs)
        (Sparse_graph.Graph.m reference.Hyperbolic.Hrg.graph)
        (Sparse_graph.Graph.m h.Hyperbolic.Hrg.graph);
      Alcotest.(check bool)
        (Printf.sprintf "adjacency identical, jobs=%d" jobs)
        true
        (adjacency h.Hyperbolic.Hrg.graph = adjacency reference.Hyperbolic.Hrg.graph))
    [ 2; 4 ]

let route_batch ~jobs =
  let params = Girg.Params.make ~dim:2 ~beta:2.5 ~c:0.3 ~n:800 ~poisson_count:false () in
  let inst = Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:21) params in
  let rng = Prng.Rng.create ~seed:33 in
  let pairs = Experiments.Workload.sample_pairs_giant ~rng ~graph:inst.graph ~count:120 in
  with_pool jobs (fun pool ->
      Experiments.Workload.run ~pool ~graph:inst.graph
        ~objective_for:(fun ~target -> Greedy_routing.Objective.girg_phi inst ~target)
        ~protocol:Greedy_routing.Protocol.Patch_dfs ~with_stretch:true ~pairs ())

let test_route_batch_bit_identical () =
  let reference = route_batch ~jobs:1 in
  Alcotest.(check bool) "batch delivered something" true (reference.delivered > 0);
  List.iter
    (fun jobs ->
      let r = route_batch ~jobs in
      Alcotest.(check bool)
        (Printf.sprintf "results record identical, jobs=%d" jobs)
        true (r = reference))
    [ 2; 4 ]

let test_experiment_tables_identical () =
  (* End-to-end: a full registry experiment (generation + route batches
     + table assembly) rendered to CSV under the global pool. *)
  let e =
    match Experiments.Registry.find "E15" with
    | Some e -> e
    | None -> Alcotest.fail "experiment E15 missing"
  in
  let tables jobs =
    with_global_jobs jobs (fun () ->
        let ctx = Experiments.Context.make ~seed:7 ~scale:Experiments.Context.Quick () in
        List.map Stats.Table.to_csv (e.run ctx))
  in
  let reference = tables 1 in
  Alcotest.(check bool) "experiment produced tables" true (reference <> []);
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "tables identical, jobs=%d" jobs)
        reference (tables jobs))
    [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "pool: map matches sequential" `Quick test_map_matches_sequential;
    Alcotest.test_case "pool: parallel_for covers range" `Quick test_parallel_for_covers_range;
    Alcotest.test_case "pool: empty ranges" `Quick test_empty_and_tiny_ranges;
    Alcotest.test_case "pool: more jobs than work" `Quick test_more_jobs_than_work;
    Alcotest.test_case "pool: exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "pool: nested submission inline" `Quick test_nested_submission_runs_inline;
    Alcotest.test_case "pool: map_reduce index order" `Quick test_map_reduce_order;
    Alcotest.test_case "pool: resolve_jobs" `Quick test_resolve_jobs;
    Alcotest.test_case "determinism: girg edges jobs=1/2/4" `Quick test_girg_edges_bit_identical;
    Alcotest.test_case "determinism: hrg graph jobs=1/2/4" `Quick test_hrg_graph_bit_identical;
    Alcotest.test_case "determinism: route batch jobs=1/2/4" `Quick test_route_batch_bit_identical;
    Alcotest.test_case "determinism: experiment tables jobs=1/2/4" `Quick
      test_experiment_tables_identical;
  ]
