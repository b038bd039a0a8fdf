(* Live-graph mutation: op codec, script application, deterministic
   resampling (heap vs mmap base), and bit-identical churn replay at
   any job count. *)

module G = Sparse_graph.Graph

let instance () = Test_greedy.girg_instance ~seed:901 ~n:1500 ~c:0.2 ()

let graphs_equal a b =
  G.n a = G.n b
  && G.m a = G.m b
  && G.epoch a = G.epoch b
  && G.live_count a = G.live_count b
  && List.for_all (fun v -> G.neighbors a v = G.neighbors b v) (List.init (G.n a) Fun.id)

let test_op_strings () =
  let cases =
    [
      (Girg.Mutate.Leave 5, "leave:5");
      (Girg.Mutate.Rejoin 0, "rejoin:0");
      (Girg.Mutate.Drop (3, 7), "drop:3:7");
      (Girg.Mutate.Resample 12, "resample:12");
    ]
  in
  List.iter
    (fun (op, s) ->
      Alcotest.(check string) "to_string" s (Girg.Mutate.op_to_string op);
      match Girg.Mutate.op_of_string s with
      | Ok op' -> Alcotest.(check bool) "round-trip" true (op = op')
      | Error m -> Alcotest.failf "parse %s: %s" s m)
    cases;
  (match Girg.Mutate.op_of_string "explode:3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown mutation accepted");
  (match Girg.Mutate.ops_of_strings [ "leave:1"; "drop:x:2" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad integer accepted");
  match Girg.Mutate.validate ~n:10 [ Girg.Mutate.Leave 10 ] with
  | Error _ -> (
      match Girg.Mutate.validate ~n:10 [ Girg.Mutate.Drop (3, 3) ] with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "self-loop drop validated")
  | Ok () -> Alcotest.fail "out-of-range vertex validated"

let test_apply_deterministic () =
  let inst = instance () in
  let ops =
    [
      Girg.Mutate.Leave 3;
      Girg.Mutate.Resample 17;
      Girg.Mutate.Drop (1, 2);
      Girg.Mutate.Rejoin 3;
      Girg.Mutate.Resample 40;
    ]
  in
  let a = Girg.Mutate.apply ~seed:5 inst ops in
  let b = Girg.Mutate.apply ~seed:5 inst ops in
  Alcotest.(check bool) "replay is bit-identical" true
    (graphs_equal a.Girg.Instance.graph b.Girg.Instance.graph);
  let c = Girg.Mutate.apply ~seed:6 inst ops in
  Alcotest.(check bool) "seed matters (resample draws differ)" false
    (graphs_equal a.Girg.Instance.graph c.Girg.Instance.graph)

let test_empty_script_advances_epoch () =
  let inst = instance () in
  let a = Girg.Mutate.apply ~seed:1 inst [] in
  Alcotest.(check int) "epoch advanced" 1 (G.epoch a.Girg.Instance.graph);
  Alcotest.(check int) "input untouched" 0 (G.epoch inst.Girg.Instance.graph);
  Alcotest.(check bool) "same edges" true
    (G.m a.Girg.Instance.graph = G.m inst.Girg.Instance.graph)

(* The resample substream is keyed on (seed, epoch, vertex, partner) —
   not on how the base CSR is stored — so a heap-built instance and its
   mmap'd snapshot mutate identically. *)
let test_resample_heap_vs_mmap () =
  let inst = instance () in
  let path = Filename.temp_file "mutate" ".girg" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Girg.Store.save_binary ~path inst;
      match Girg.Store.load_mmap ~path with
      | Error e -> Alcotest.failf "load_mmap: %s" e
      | Ok mapped ->
          let ops = [ Girg.Mutate.Resample 7; Girg.Mutate.Leave 2; Girg.Mutate.Resample 31 ] in
          let a = Girg.Mutate.apply ~seed:11 inst ops in
          let b = Girg.Mutate.apply ~seed:11 mapped ops in
          Alcotest.(check bool) "heap and mmap agree" true
            (graphs_equal a.Girg.Instance.graph b.Girg.Instance.graph))

let config scenario ~events ~quit : Experiments.Churn.config =
  {
    scenario;
    epochs = 2;
    events;
    quit;
    seed = 33;
    count = 60;
    pair_seed = 17;
    protocol = Greedy_routing.Protocol.Greedy;
    max_steps = None;
  }

let float_eq a b = (Float.is_nan a && Float.is_nan b) || a = b

let rows_equal (a : Experiments.Churn.epoch_row) (b : Experiments.Churn.epoch_row) =
  a.epoch = b.epoch && a.live = b.live && a.edges = b.edges
  && a.attempted = b.attempted
  && a.delivered = b.delivered
  && float_eq a.mean_steps b.mean_steps
  && float_eq a.mean_stretch b.mean_stretch

(* One scenario, three job counts, heap and mmap backing: every run
   must produce the same rows, or served churn results would depend on
   the daemon's parallelism. *)
let test_churn_replay_invariant () =
  let inst = instance () in
  let path = Filename.temp_file "churn" ".girg" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Girg.Store.save_binary ~path inst;
      let mapped =
        match Girg.Store.load_mmap ~path with
        | Ok i -> i
        | Error e -> Alcotest.failf "load_mmap: %s" e
      in
      List.iter
        (fun cfg ->
          let _, reference = Experiments.Churn.run_local cfg inst in
          List.iter
            (fun jobs ->
              let pool = Parallel.Pool.create ~jobs () in
              Fun.protect
                ~finally:(fun () -> Parallel.Pool.shutdown pool)
                (fun () ->
                  let _, rows = Experiments.Churn.run_local ~pool cfg inst in
                  Alcotest.(check bool)
                    (Printf.sprintf "heap rows invariant at jobs=%d" jobs)
                    true
                    (List.for_all2 rows_equal reference rows);
                  let _, mrows = Experiments.Churn.run_local ~pool cfg mapped in
                  Alcotest.(check bool)
                    (Printf.sprintf "mmap rows identical at jobs=%d" jobs)
                    true
                    (List.for_all2 rows_equal reference mrows)))
            [ 1; 2; 4 ])
        [
          config Experiments.Churn.Uniform ~events:25 ~quit:0.0;
          config Experiments.Churn.Adversarial ~events:5 ~quit:0.0;
          config Experiments.Churn.Milgram ~events:0 ~quit:0.2;
        ])

let test_churn_scenarios_behave () =
  let inst = instance () in
  let baseline_then_epochs rows =
    match rows with
    | base :: rest -> (base, rest)
    | [] -> Alcotest.fail "no rows"
  in
  (* Adversarial churn removes exactly [events] live vertices per epoch. *)
  let cfg = config Experiments.Churn.Adversarial ~events:5 ~quit:0.0 in
  let _, rows = Experiments.Churn.run_local cfg inst in
  Alcotest.(check int) "baseline + one row per epoch" (cfg.epochs + 1) (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check bool) "smallworld.churn.v1 schema" true
        (Obs.Export.member "schema" (Experiments.Churn.record_json cfg row)
        = Some (Obs.Export.Str "smallworld.churn.v1")))
    rows;
  let base, rest = baseline_then_epochs rows in
  Alcotest.(check int) "baseline epoch" 0 base.Experiments.Churn.epoch;
  List.iteri
    (fun i row ->
      Alcotest.(check int)
        (Printf.sprintf "live count after epoch %d" (i + 1))
        (base.Experiments.Churn.live - (5 * (i + 1)))
        row.Experiments.Churn.live)
    rest;
  (* Milgram: no structural change, only attrition of delivered runs. *)
  let cfg = config Experiments.Churn.Milgram ~events:0 ~quit:0.9 in
  let _, rows = Experiments.Churn.run_local cfg inst in
  let base, rest = baseline_then_epochs rows in
  List.iter
    (fun row ->
      Alcotest.(check int) "no structural churn" base.Experiments.Churn.edges
        row.Experiments.Churn.edges;
      Alcotest.(check bool) "quit filters deliveries" true
        (row.Experiments.Churn.delivered <= row.Experiments.Churn.attempted))
    rest

let suite =
  [
    Alcotest.test_case "mutation op strings" `Quick test_op_strings;
    Alcotest.test_case "apply is deterministic" `Quick test_apply_deterministic;
    Alcotest.test_case "empty script advances epoch" `Quick
      test_empty_script_advances_epoch;
    Alcotest.test_case "resample: heap vs mmap base" `Quick test_resample_heap_vs_mmap;
    Alcotest.test_case "churn replay invariant (jobs 1/2/4, heap+mmap)" `Slow
      test_churn_replay_invariant;
    Alcotest.test_case "churn scenarios behave" `Quick test_churn_scenarios_behave;
  ]
