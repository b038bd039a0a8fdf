(* The v1 API contract: both codecs (JSON wire form and argument
   vectors) round-trip every request and reply shape exactly, the
   deprecation shims parse, unknown flags suggest the canonical
   spelling, and the error taxonomy's code strings / exit codes are
   pinned (CI and clients depend on them). *)

module V1 = Api.V1
module E = Api.Error

let envelope_t : V1.envelope Alcotest.testable =
  Alcotest.testable
    (fun fmt e -> Format.pp_print_string fmt (V1.request_line e))
    ( = )

let reply_t : V1.reply Alcotest.testable =
  Alcotest.testable
    (fun fmt r -> Format.pp_print_string fmt (V1.reply_line r))
    ( = )

let ok ?(what = "result") = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected error: %s" what (E.to_string e)

let err ?(what = "result") = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error (e : E.t) -> e

(* One envelope per request shape, with enough non-default fields to
   catch a codec that drops or reorders anything. *)
let sample_envelopes =
  let girg =
    Girg.Params.make ~dim:3 ~beta:2.25 ~w_min:0.75 ~alpha:(Girg.Params.Finite 1.5)
      ~c:0.3 ~poisson_count:false ~n:1234 ()
  in
  let girg_inf =
    Girg.Params.make ~alpha:Girg.Params.Infinite ~c:1.0 ~n:500 ()
  in
  let hrg = Hyperbolic.Hrg.make ~alpha_h:0.8 ~radius_c:(-0.5) ~temperature:0.3 ~n:777 () in
  let kle = Kleinberg.Lattice.make ~long_range:2 ~exponent:1.5 ~side:17 () in
  [
    V1.envelope (V1.Load { name = "net"; path = "/tmp/net.girg" });
    V1.envelope ~id:7 (V1.Sample { name = "g"; model = V1.Girg girg; seed = 9 });
    V1.envelope (V1.Sample { name = "gi"; model = V1.Girg girg_inf; seed = 42 });
    V1.envelope (V1.Sample { name = "h"; model = V1.Hrg hrg; seed = 1 });
    V1.envelope (V1.Sample { name = "k"; model = V1.Kleinberg kle; seed = 3 });
    V1.envelope ~id:1 ~deadline_ms:250
      (V1.Route
         {
           instance = "net";
           source = 4;
           target = 93;
           protocol = Greedy_routing.Protocol.Patch_dfs;
           max_steps = Some 1000;
         });
    V1.envelope
      (V1.Route
         {
           instance = "net";
           source = 0;
           target = 1;
           protocol = Greedy_routing.Protocol.Greedy;
           max_steps = None;
         });
    V1.envelope
      (V1.Route_batch
         {
           instance = "net";
           pairs = V1.Pairs [ (1, 2); (3, 4); (5, 6) ];
           protocol = Greedy_routing.Protocol.Patch_history;
           max_steps = None;
         });
    V1.envelope ~deadline_ms:5000
      (V1.Route_batch
         {
           instance = "net";
           pairs = V1.Drawn { count = 64; pair_seed = 11; pool = V1.Giant };
           protocol = Greedy_routing.Protocol.Gravity_pressure;
           max_steps = Some 50_000;
         });
    V1.envelope
      (V1.Route_batch
         {
           instance = "net";
           pairs = V1.Drawn { count = 8; pair_seed = 0; pool = V1.Any };
           protocol = Greedy_routing.Protocol.Greedy;
           max_steps = None;
         });
    (* Trace contexts ride in the envelope; both spellings (explicit
       parent span and the 0 default) must survive the codecs. *)
    V1.envelope ~id:12 ~trace:{ V1.trace_id = "cli-1f2e"; parent_span = 1 }
      (V1.Route
         {
           instance = "net";
           source = 2;
           target = 7;
           protocol = Greedy_routing.Protocol.Greedy;
           max_steps = None;
         });
    V1.envelope ~deadline_ms:100
      ~trace:{ V1.trace_id = "batch-trace"; parent_span = 0 }
      (V1.Route_batch
         {
           instance = "net";
           pairs = V1.Pairs [ (9, 10) ];
           protocol = Greedy_routing.Protocol.Greedy;
           max_steps = None;
         });
    V1.envelope (V1.Stats { instance = "net" });
    (* Out-of-core ops: spill one shard, merge a spill set, re-encode
       as a binary snapshot. *)
    V1.envelope ~id:21
      (V1.Gen_shard
         { params = girg; seed = 9; shards = 4; shard = 2; out = "/tmp/s2.spill" });
    V1.envelope
      (V1.Gen_shard
         { params = girg_inf; seed = 42; shards = 1; shard = 0; out = "s.spill" });
    V1.envelope
      (V1.Merge_shards
         { name = "big"; spills = [ "/tmp/s0.spill"; "/tmp/s1.spill"; "/tmp/s2.spill" ] });
    V1.envelope ~id:22 (V1.Snapshot { instance = "net"; out = "/tmp/net.bin" });
    (* Live-graph ops: a mutation script and a churn scenario. *)
    V1.envelope ~id:30
      (V1.Mutate
         {
           instance = "net";
           ops =
             [
               Girg.Mutate.Leave 5;
               Girg.Mutate.Drop (3, 7);
               Girg.Mutate.Resample 2;
               Girg.Mutate.Rejoin 1;
             ];
           seed = 13;
         });
    V1.envelope (V1.Mutate { instance = "net"; ops = [ Girg.Mutate.Leave 0 ]; seed = 42 });
    V1.envelope ~id:31
      (V1.Churn
         {
           instance = "net";
           config =
             {
               Experiments.Churn.scenario = Experiments.Churn.Adversarial;
               epochs = 2;
               events = 9;
               quit = 0.25;
               seed = 7;
               count = 40;
               pair_seed = 3;
               protocol = Greedy_routing.Protocol.Patch_dfs;
               max_steps = Some 500;
             };
         });
    V1.envelope
      (V1.Churn
         {
           instance = "net";
           config =
             {
               Experiments.Churn.scenario = Experiments.Churn.Milgram;
               epochs = 3;
               events = 16;
               quit = 0.0;
               seed = 42;
               count = 200;
               pair_seed = 0;
               protocol = Greedy_routing.Protocol.Greedy;
               max_steps = None;
             };
         });
    V1.envelope ~id:99 V1.Health;
    V1.envelope ~id:5 V1.Server_stats;
    V1.envelope V1.Drain;
  ]

let test_json_round_trip () =
  List.iter
    (fun e ->
      let line = V1.request_line e in
      let e' = ok ~what:line (V1.envelope_of_line line) in
      Alcotest.check envelope_t line e e')
    sample_envelopes

let test_args_round_trip () =
  let execs =
    [
      V1.no_exec;
      {
        V1.output = Some "/tmp/out.girg";
        obs_out = Some "/tmp/manifest.jsonl";
        events_out = Some "/tmp/events.jsonl";
        trace_out = Some "/tmp/trace.jsonl";
        jobs = Some 4;
      };
    ]
  in
  List.iter
    (fun exec ->
      List.iter
        (fun e ->
          (* [sample] falls back to --output for the name only when
             --name is absent; to_args always emits --name, so the
             round-trip is exact for every exec_opts. *)
          let args = V1.to_args ~exec e in
          let what = String.concat " " args in
          let e', exec' = ok ~what (V1.of_args args) in
          Alcotest.check envelope_t what e e';
          Alcotest.(check bool) (what ^ " exec") true (exec = exec'))
        sample_envelopes)
    execs

let sample_replies =
  let info =
    { V1.name = "net"; params = "girg(n=100)"; vertices = 100; edges = 321 }
  in
  let route =
    {
      V1.source = 4;
      target = 93;
      status = Greedy_routing.Outcome.Delivered;
      steps = 7;
      visited = 8;
      shortest = Some 5;
      text = "greedy: delivered\nwalk: 4 -> 93\nshortest path: 5\n";
    }
  in
  let failed_route =
    { route with status = Greedy_routing.Outcome.Dead_end; shortest = None; text = "x\n" }
  in
  [
    { V1.reply_id = Some 7; response = V1.Loaded info };
    { V1.reply_id = None; response = V1.Sampled info };
    { V1.reply_id = Some 1; response = V1.Routed route };
    { V1.reply_id = None; response = V1.Routed_batch [ route; failed_route ] };
    { V1.reply_id = None; response = V1.Routed_batch [] };
    {
      V1.reply_id = None;
      response =
        V1.Stats_reply
          {
            V1.params = "girg(n=100)";
            vertices = 100;
            edges = 321;
            avg_degree = 6.42;
            max_degree = 17;
            components = 3;
            giant = 88;
          };
    };
    {
      V1.reply_id = Some 2;
      response =
        V1.Health_reply
          {
            V1.draining = false;
            instances = [ "a"; "b" ];
            counters = [ ("server.accepted", 10); ("server.served", 9) ];
          };
    };
    {
      V1.reply_id = Some 5;
      response =
        V1.Server_stats_reply
          {
            V1.uptime_s = 12.5;
            s_draining = false;
            obs_live = true;
            s_counters = [ ("server.accepted", 10); ("server.served", 9) ];
            gauges = [ ("server.queue_depth", 2.0); ("server.inflight", 1.0) ];
            stages =
              [
                {
                  V1.stage = "stage.compute";
                  s_count = 9;
                  p50 = 0.001;
                  p90 = 0.0025;
                  p99 = 0.005;
                  p999 = 0.005;
                  s_max = 0.00475;
                };
                {
                  V1.stage = "latency.route";
                  s_count = 4;
                  p50 = 0.002;
                  p90 = 0.002;
                  p99 = 0.002;
                  p999 = 0.002;
                  s_max = 0.002;
                };
              ];
            prometheus = "# TYPE smallworld_server_accepted counter\n";
          };
    };
    {
      V1.reply_id = Some 21;
      response =
        V1.Spilled
          {
            V1.sp_path = "/tmp/s2.spill";
            sp_shard = 2;
            sp_shards = 4;
            sp_vertices = 1234;
            sp_edges = 999;
          };
    };
    { V1.reply_id = None; response = V1.Merged info };
    {
      V1.reply_id = Some 22;
      response =
        V1.Snapshotted
          { V1.sn_path = "/tmp/net.bin"; sn_bytes = 123_456; sn_vertices = 100; sn_edges = 321 };
    };
    {
      V1.reply_id = Some 30;
      response =
        V1.Mutated
          {
            V1.mu_name = "net";
            mu_epoch = 3;
            mu_generation = 4;
            mu_live = 1995;
            mu_vertices = 2000;
            mu_edges = 10_412;
            mu_applied = 4;
          };
    };
    {
      V1.reply_id = Some 31;
      response =
        V1.Churned
          {
            V1.ch_name = "net";
            ch_scenario = Experiments.Churn.Adversarial;
            ch_generation = 6;
            ch_rows =
              [
                {
                  Experiments.Churn.epoch = 0;
                  live = 2000;
                  edges = 10_412;
                  attempted = 40;
                  delivered = 38;
                  mean_steps = 5.25;
                  mean_stretch = 1.5;
                };
                {
                  Experiments.Churn.epoch = 1;
                  live = 1991;
                  edges = 10_007;
                  attempted = 40;
                  delivered = 31;
                  mean_steps = 6.0;
                  mean_stretch = 1.75;
                };
              ];
          };
    };
    { V1.reply_id = None; response = V1.Drain_ack };
    {
      V1.reply_id = Some 3;
      response = V1.Failed (E.make E.Overloaded "queue full");
    };
    { V1.reply_id = None; response = V1.Failed (E.make E.Unknown_instance "no %S" "x") };
  ]

let test_reply_round_trip () =
  List.iter
    (fun r ->
      let line = V1.reply_line r in
      let r' = ok ~what:line (V1.reply_of_line line) in
      Alcotest.check reply_t line r r')
    sample_replies

(* The pre-v1 CLI spellings must keep parsing to the same requests as
   their canonical replacements. *)
let test_deprecated_shims () =
  let parse args = ok ~what:(String.concat " " args) (V1.of_args args) in
  let canonical, _ =
    parse
      [ "sample"; "girg"; "--n"; "2000"; "--c"; "0.25"; "--name"; "net";
        "--seed"; "7" ]
  in
  let shimmed, exec =
    parse [ "gen"; "girg"; "-n"; "2000"; "-c"; "0.25"; "--name"; "net"; "--seed"; "7"; "-o"; "f.girg"; "-j"; "2" ]
  in
  Alcotest.check envelope_t "gen girg -n -c" canonical shimmed;
  Alcotest.(check (option string)) "-o shim" (Some "f.girg") exec.V1.output;
  Alcotest.(check (option int)) "-j shim" (Some 2) exec.V1.jobs;
  let route_canonical, _ =
    parse [ "route"; "net.girg"; "--source"; "4"; "--target"; "93"; "--protocol"; "phi-dfs" ]
  in
  let route_shimmed, _ =
    parse [ "route"; "net.girg"; "-s"; "4"; "-t"; "93"; "--protocol"; "dfs" ]
  in
  Alcotest.check envelope_t "route -s -t + dfs alias" route_canonical route_shimmed;
  (match route_canonical.V1.request with
  | V1.Route { instance; source; target; protocol; _ } ->
      Alcotest.(check string) "positional instance" "net.girg" instance;
      Alcotest.(check int) "source" 4 source;
      Alcotest.(check int) "target" 93 target;
      Alcotest.(check bool) "protocol" true (protocol = Greedy_routing.Protocol.Patch_dfs)
  | _ -> Alcotest.fail "expected a route request");
  let batch, _ = parse [ "route_batch"; "net"; "--count"; "5"; "--pool"; "any" ] in
  match batch.V1.request with
  | V1.Route_batch { pairs = V1.Drawn { count = 5; pair_seed = 0; pool = V1.Any }; _ } -> ()
  | _ -> Alcotest.fail "route_batch alias did not parse to sampled pairs"

let test_unknown_flag_suggestion () =
  let e = err (V1.of_args [ "route"; "net"; "--sorce"; "4"; "--target"; "9" ]) in
  Alcotest.(check bool) "code" true (e.E.code = E.Bad_request);
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "names the bad flag" true (contains e.E.message "--sorce");
  Alcotest.(check bool) "suggests --source" true (contains e.E.message "\"--source\"")

let test_arg_errors () =
  let code args =
    (err ~what:(String.concat " " args) (V1.of_args args)).E.code
  in
  Alcotest.(check bool) "missing op" true (code [] = E.Bad_request);
  Alcotest.(check bool) "unknown op" true (code [ "frobnicate" ] = E.Bad_request);
  Alcotest.(check bool) "sample w/o model" true (code [ "sample" ] = E.Bad_request);
  Alcotest.(check bool) "route w/o target" true (code [ "route"; "net"; "-s"; "1" ] = E.Bad_request);
  Alcotest.(check bool) "bad int" true
    (code [ "route"; "net"; "-s"; "one"; "-t"; "2" ] = E.Bad_request);
  Alcotest.(check bool) "pairs+count" true
    (code [ "route-batch"; "net"; "--pairs"; "1:2"; "--count"; "3" ] = E.Bad_request);
  Alcotest.(check bool) "girg validation" true
    (code [ "sample"; "girg"; "--beta"; "5"; "--name"; "x" ] = E.Bad_request)

(* Each op's minimal JSON form and minimal argument vector parse to the
   same request (so every default agrees across codecs, and with the
   schema), and every conflicting or incomplete input is refused as
   bad-request by both codecs.  Entries are (op, JSON fields, argv). *)
let drift_minimal =
  [
    ("load", {|"name":"a","path":"p.girg"|}, [ "load"; "p.girg"; "--name"; "a" ]);
    ("sample", {|"name":"g","model":"girg"|}, [ "sample"; "girg"; "--name"; "g" ]);
    ("sample", {|"name":"h","model":"hrg"|}, [ "sample"; "hrg"; "--name"; "h" ]);
    ( "sample",
      {|"name":"k","model":"kleinberg","side":5|},
      [ "sample"; "kleinberg"; "--name"; "k"; "--side"; "5" ] );
    ( "route",
      {|"instance":"net","source":1,"target":2|},
      [ "route"; "net"; "--source"; "1"; "--target"; "2" ] );
    ("route_batch", {|"instance":"net","count":3|}, [ "route-batch"; "net"; "--count"; "3" ]);
    ( "route_batch",
      {|"instance":"net","pairs":[[1,2],[3,4]]|},
      [ "route-batch"; "net"; "--pairs"; "1:2,3:4" ] );
    ("stats", {|"instance":"net"|}, [ "stats"; "net" ]);
    ( "gen_shard",
      {|"model":"girg","out":"s.spill"|},
      [ "sample"; "girg"; "--spill-out"; "s.spill" ] );
    ( "merge_shards",
      {|"name":"m","spills":["a.spill"]|},
      [ "merge-shards"; "a.spill"; "--name"; "m" ] );
    ("snapshot", {|"instance":"net","out":"o.bin"|}, [ "snapshot"; "net"; "--out"; "o.bin" ]);
    ("mutate", {|"instance":"net","ops":["leave:1"]|}, [ "mutate"; "net"; "--ops"; "leave:1" ]);
    ("churn", {|"instance":"net"|}, [ "churn"; "net" ]);
    ("health", "", [ "health" ]);
    ("stats-server", "", [ "stats-server" ]);
    ("drain", "", [ "drain" ]);
  ]

let drift_refused =
  [
    ( "route_batch",
      {|"instance":"net","pairs":[[1,2]],"count":3|},
      [ "route-batch"; "net"; "--pairs"; "1:2"; "--count"; "3" ] );
    ("route_batch", {|"instance":"net"|}, [ "route-batch"; "net" ]);
    ("load", {|"name":"a"|}, [ "load"; "--name"; "a" ]);
    ("load", {|"path":"p.girg"|}, [ "load"; "p.girg" ]);
    ("sample", {|"model":"girg"|}, [ "sample"; "girg" ]);
    ("sample", {|"name":"g"|}, [ "sample"; "--name"; "g" ]);
    ("sample", {|"name":"k","model":"kleinberg"|}, [ "sample"; "kleinberg"; "--name"; "k" ]);
    ( "sample",
      {|"name":"g","model":"girg","beta":5|},
      [ "sample"; "girg"; "--name"; "g"; "--beta"; "5" ] );
    ("route", {|"instance":"net","source":1|}, [ "route"; "net"; "--source"; "1" ]);
    ("route", {|"source":1,"target":2|}, [ "route"; "--source"; "1"; "--target"; "2" ]);
    ("stats", "", [ "stats" ]);
    ( "gen_shard",
      {|"model":"girg","shards":2,"shard":2,"out":"s.spill"|},
      [ "sample"; "girg"; "--shards"; "2"; "--shard"; "2"; "--spill-out"; "s.spill" ] );
    ("merge_shards", {|"spills":["a.spill"]|}, [ "merge-shards"; "a.spill" ]);
    ( "merge_shards",
      {|"name":"m","spills":[]|},
      [ "merge-shards"; "--name"; "m"; "--spills"; "," ] );
    ("snapshot", {|"instance":"net"|}, [ "snapshot"; "net" ]);
    ("mutate", {|"instance":"net"|}, [ "mutate"; "net" ]);
    ("mutate", {|"instance":"net","ops":[]|}, [ "mutate"; "net"; "--ops"; "" ]);
    ("churn", "", [ "churn" ]);
  ]

let test_codecs_agree () =
  let json op fields =
    Printf.sprintf {|{"v":1,"op":%S%s}|} op (if fields = "" then "" else "," ^ fields)
  in
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (op ^ " has a minimal form")
        true
        (List.exists (fun (o, _, _) -> o = op) drift_minimal))
    V1.op_names;
  List.iter
    (fun (op, fields, args) ->
      let line = json op fields in
      let from_json = ok ~what:line (V1.envelope_of_line line) in
      let from_args, _ = ok ~what:(String.concat " " args) (V1.of_args args) in
      Alcotest.check envelope_t line from_json from_args)
    drift_minimal;
  (* The schema's defaults are the contract both codecs follow. *)
  (match (ok (V1.envelope_of_line (json "sample" {|"name":"g","model":"girg"|}))).V1.request with
  | V1.Sample { model = V1.Girg p; _ } ->
      Alcotest.(check int) "girg n default" 10_000 p.Girg.Params.n;
      Alcotest.(check (float 0.0)) "girg c default" 0.25 p.Girg.Params.c
  | _ -> Alcotest.fail "minimal girg sample did not parse to a girg sample");
  List.iter
    (fun (op, fields, args) ->
      let line = json op fields in
      Alcotest.(check bool) (line ^ " refused") true
        ((err ~what:line (V1.envelope_of_line line)).E.code = E.Bad_request);
      let what = String.concat " " args in
      Alcotest.(check bool) (what ^ " refused") true
        ((err ~what (V1.of_args args)).E.code = E.Bad_request))
    drift_refused

(* The code strings and exit statuses are the wire/CI contract. *)
let test_error_taxonomy () =
  let expect =
    [
      (E.Bad_request, "bad-request", 2);
      (E.Unsupported_version, "unsupported-version", 2);
      (E.Unknown_instance, "unknown-instance", 2);
      (E.Overloaded, "overloaded", 75);
      (E.Deadline, "deadline", 75);
      (E.Draining, "draining", 75);
      (E.Io, "io", 2);
      (E.Usage, "usage", 2);
      (E.Incomparable, "incomparable", 2);
      (E.Regression, "perf-regression", 1);
      (E.Internal, "internal", 70);
    ]
  in
  List.iter
    (fun (c, s, x) ->
      Alcotest.(check string) "code string" s (E.code_string c);
      Alcotest.(check int) ("exit of " ^ s) x (E.exit_code c);
      let e = E.make c "boom %d" 7 in
      Alcotest.(check string) "render" (Printf.sprintf "error [%s] boom 7" s) (E.to_string e);
      match E.of_json (E.to_json e) with
      | Ok e' -> Alcotest.(check bool) "json round-trip" true (e = e')
      | Error m -> Alcotest.failf "error json round-trip: %s" m)
    expect

(* Envelope versioning is first-class: a request carrying a "v" we do
   not speak gets a structured error naming the supported range, not a
   generic parse failure.  The message text is part of the contract. *)
let test_unsupported_version () =
  let e =
    err ~what:"v2 envelope" (V1.envelope_of_line {|{"v":2,"op":"health"}|})
  in
  Alcotest.(check bool) "code" true (e.E.code = E.Unsupported_version);
  Alcotest.(check string) "message names the supported range"
    "unsupported API version 2 (this server speaks v1 only)" e.E.message;
  let e = err ~what:"v0 envelope" (V1.envelope_of_line {|{"v":0,"op":"health"}|}) in
  Alcotest.(check bool) "v0 also refused" true (e.E.code = E.Unsupported_version);
  let e = err ~what:"missing v" (V1.envelope_of_line {|{"op":"health"}|}) in
  Alcotest.(check bool) "missing v is bad-request" true (e.E.code = E.Bad_request);
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "missing v names the field" true
    (contains e.E.message "\"v\"");
  let e = err ~what:"string v" (V1.envelope_of_line {|{"v":"one","op":"health"}|}) in
  Alcotest.(check bool) "non-integer v is bad-request" true (e.E.code = E.Bad_request)

(* Churn rows from an epoch with zero deliveries carry NaN means; on
   the wire those become JSON null and must come back as NaN (generic
   equality can't see this — nan <> nan). *)
let test_churn_nan_round_trip () =
  let reply =
    {
      V1.reply_id = Some 7;
      response =
        V1.Churned
          {
            V1.ch_name = "net";
            ch_scenario = Experiments.Churn.Milgram;
            ch_generation = 2;
            ch_rows =
              [
                {
                  Experiments.Churn.epoch = 1;
                  live = 100;
                  edges = 400;
                  attempted = 10;
                  delivered = 0;
                  mean_steps = Float.nan;
                  mean_stretch = Float.nan;
                };
              ];
          };
    }
  in
  let check_round what r =
    match r with
    | V1.Churned { V1.ch_rows = [ row ]; _ } ->
        Alcotest.(check bool) (what ^ ": steps nan") true
          (Float.is_nan row.Experiments.Churn.mean_steps);
        Alcotest.(check bool) (what ^ ": stretch nan") true
          (Float.is_nan row.Experiments.Churn.mean_stretch)
    | _ -> Alcotest.fail (what ^ ": reply shape changed in flight")
  in
  let line = V1.reply_line reply in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "nan encodes as null" true (contains line "null");
  (match V1.reply_of_line line with
  | Ok r -> check_round "json" r.V1.response
  | Error e -> Alcotest.failf "json round-trip: %s" (E.to_string e));
  let frame = Api.Binary.reply_frame reply in
  match Api.Binary.parse frame ~pos:0 ~len:(String.length frame) with
  | Api.Binary.Frame { payload; _ } -> (
      match Api.Binary.reply_of_payload payload with
      | Ok r -> check_round "binary" r.V1.response
      | Error e -> Alcotest.failf "binary round-trip: %s" (E.to_string e))
  | _ -> Alcotest.fail "binary framing failed"

let test_float_arg () =
  let cases = [ 0.25; 2.5; 1.0; 0.1; 3.0; 1e-9; 123456.789; -0.75; Float.pi ] in
  List.iter
    (fun f ->
      let s = V1.float_arg f in
      Alcotest.(check (float 0.0)) ("float_arg " ^ s) f (float_of_string s))
    cases

(* --- binary codec ------------------------------------------------------ *)

module B = Api.Binary
module J = Obs.Export

let parse_one ?max_len bytes =
  match B.parse ?max_len bytes ~pos:0 ~len:(String.length bytes) with
  | B.Frame { payload; consumed } -> (payload, consumed)
  | B.Need -> Alcotest.fail "parser wants more bytes of a complete frame"
  | B.Oversized _ -> Alcotest.fail "unexpected oversized verdict"
  | B.Bad_version v -> Alcotest.failf "unexpected version verdict: v%d" v
  | B.Bad msg -> Alcotest.failf "bad frame: %s" msg

(* Every request shape survives framing, and the decoded payload
   re-renders to the byte-identical JSON line the JSON codec sends —
   the two codecs are the same document in two framings. *)
let test_binary_request_round_trip () =
  List.iter
    (fun e ->
      let line = V1.request_line e in
      let payload, consumed = parse_one (B.request_frame e) in
      Alcotest.(check int) (line ^ " consumed") (String.length (B.request_frame e)) consumed;
      let e' = ok ~what:line (B.envelope_of_payload payload) in
      Alcotest.check envelope_t line e e';
      match B.decode_json payload with
      | Ok tree -> Alcotest.(check string) (line ^ " bytes") line (J.json_to_string tree)
      | Error m -> Alcotest.failf "%s: decode_json: %s" line m)
    sample_envelopes

let test_binary_reply_round_trip () =
  List.iter
    (fun r ->
      let line = V1.reply_line r in
      let payload, _ = parse_one (B.reply_frame r) in
      let r' = ok ~what:line (B.reply_of_payload payload) in
      Alcotest.check reply_t line r r';
      match B.decode_json payload with
      | Ok tree -> Alcotest.(check string) (line ^ " bytes") line (J.json_to_string tree)
      | Error m -> Alcotest.failf "%s: decode_json: %s" line m)
    sample_replies

(* The incremental parser never consumes a partial frame, finds frame
   boundaries in a pipelined buffer, and survives oversized payloads
   by reporting how many bytes to skip. *)
let test_binary_partial_frames () =
  let e = List.hd sample_envelopes in
  let frame = B.request_frame e in
  let n = String.length frame in
  for keep = 0 to n - 1 do
    match B.parse frame ~pos:0 ~len:keep with
    | B.Need -> ()
    | _ -> Alcotest.failf "prefix of %d/%d bytes should be Need" keep n
  done;
  (* Two pipelined frames in one buffer parse in order at moving pos. *)
  let e2 = List.nth sample_envelopes 1 in
  let buf = frame ^ B.request_frame e2 in
  let p1, c1 = parse_one buf in
  Alcotest.check envelope_t "first of pipeline" e (ok (B.envelope_of_payload p1));
  (match B.parse buf ~pos:c1 ~len:(String.length buf - c1) with
  | B.Frame { payload; _ } ->
      Alcotest.check envelope_t "second of pipeline" e2 (ok (B.envelope_of_payload payload))
  | _ -> Alcotest.fail "second pipelined frame did not parse")

let test_binary_oversized_and_bad () =
  let big = B.frame (String.make 100 'x') in
  (match B.parse ~max_len:10 big ~pos:0 ~len:(String.length big) with
  | B.Oversized { declared; consumed } ->
      Alcotest.(check int) "declared" 100 declared;
      (* Skipping header + declared payload resynchronises on the next
         frame — the connection survives an oversized request. *)
      let skip = consumed + declared in
      let next = B.request_frame (List.hd sample_envelopes) in
      let buf = big ^ next in
      (match B.parse buf ~pos:skip ~len:(String.length buf - skip) with
      | B.Frame _ -> ()
      | _ -> Alcotest.fail "did not resynchronise after oversized frame")
  | _ -> Alcotest.fail "oversized frame not flagged");
  (match B.parse "zzzz" ~pos:0 ~len:4 with
  | B.Bad _ -> ()
  | _ -> Alcotest.fail "bad magic not flagged");
  (let bad_version = Printf.sprintf "%c\x07rest" B.magic in
   match B.parse bad_version ~pos:0 ~len:(String.length bad_version) with
   | B.Bad_version 7 -> ()
   | B.Bad_version v -> Alcotest.failf "wrong version reported: %d" v
   | _ -> Alcotest.fail "bad version not flagged");
  (* A 9-byte varint setting bit 62 decodes to a negative OCaml int
     (2^62 = min_int on 64-bit); it must be rejected as Bad, never
     reach String.sub with a negative length. *)
  let neg_len =
    Printf.sprintf "%c%c%s" B.magic (Char.chr B.version)
      (String.make 8 '\x80' ^ "\x40")
  in
  match B.parse neg_len ~pos:0 ~len:(String.length neg_len) with
  | B.Bad _ -> ()
  | B.Frame _ | B.Need | B.Oversized _ | B.Bad_version _ ->
      Alcotest.fail "negative frame length not flagged as Bad"

let test_binary_scalar_edges () =
  let rt j =
    match B.decode_json (B.encode_json j) with
    | Ok j' -> Alcotest.(check bool) (J.json_to_string j) true (j = j')
    | Error m -> Alcotest.failf "%s: %s" (J.json_to_string j) m
  in
  List.iter rt
    [
      J.Int max_int;
      J.Int min_int;
      J.Int 0;
      J.Int (-1);
      J.Str (String.init 256 Char.chr);
      J.Float infinity;
      J.Float neg_infinity;
      J.Float Float.max_float;
      J.Float (-0.);
      J.Arr [];
      J.Obj [];
    ];
  (* NaN has no structural equality; the bit pattern must survive. *)
  match B.decode_json (B.encode_json (J.Float Float.nan)) with
  | Ok (J.Float f) ->
      Alcotest.(check bool) "nan bits" true
        (Int64.bits_of_float f = Int64.bits_of_float Float.nan)
  | _ -> Alcotest.fail "nan did not round-trip as a float"

let binary_json_tree_prop =
  let gen =
    QCheck2.Gen.(
      sized
      @@ fix (fun self n ->
             let leaf =
               oneof
                 [
                   return J.Null;
                   map (fun b -> J.Bool b) bool;
                   map (fun i -> J.Int i) int;
                   map
                     (fun f -> J.Float f)
                     (oneofl
                        [ 0.0; -0.0; 1.5; -2.25; 0.1; 1e300; 1e-300; 12345.6789 ]);
                   map (fun s -> J.Str s) (string_size (int_bound 16));
                 ]
             in
             if n <= 0 then leaf
             else
               oneof
                 [
                   leaf;
                   map (fun l -> J.Arr l) (list_size (int_bound 4) (self (n / 2)));
                   map
                     (fun l -> J.Obj l)
                     (list_size (int_bound 4)
                        (pair (string_size (int_bound 8)) (self (n / 2))));
                 ]))
  in
  QCheck2.Test.make ~name:"binary codec round-trips random json trees" ~count:300
    ~print:(fun j -> J.json_to_string j)
    gen
    (fun j -> B.decode_json (B.encode_json j) = Ok j)

(* Round-trips cannot see a renamed or reordered field; this pins the
   bytes each codec emits for every sample shape, plus the schema dump.
   Regenerate like the other golden fixtures (see test_golden.ml). *)
let test_wire_golden () =
  let buf = Buffer.create 32768 in
  let hex s =
    String.to_seq s
    |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c))
    |> List.of_seq |> String.concat ""
  in
  let line tag s = Buffer.add_string buf (tag ^ " " ^ s ^ "\n") in
  List.iter (fun e -> line "request" (V1.request_line e)) sample_envelopes;
  List.iter (fun r -> line "reply" (V1.reply_line r)) sample_replies;
  List.iter (fun e -> line "request-frame" (hex (B.request_frame e))) sample_envelopes;
  List.iter (fun r -> line "reply-frame" (hex (B.reply_frame r))) sample_replies;
  line "schema" (J.json_to_string (V1.schema_json ()));
  Test_golden.check_or_regen ~name:"api_v1_wire.txt" (Buffer.contents buf)

let test_schema_dump () =
  match V1.schema_json () with
  | Obs.Export.Obj fields ->
      Alcotest.(check bool) "schema name" true
        (List.assoc_opt "schema" fields = Some (Obs.Export.Str "smallworld.api.v1"));
      (match List.assoc_opt "ops" fields with
      | Some (Obs.Export.Arr ops) ->
          Alcotest.(check int) "twelve ops" 12 (List.length ops)
      | _ -> Alcotest.fail "schema has no ops array");
      Alcotest.(check bool) "error codes listed" true
        (List.mem_assoc "error_codes" fields)
  | _ -> Alcotest.fail "schema_json is not an object"

let suite =
  [
    Alcotest.test_case "json round-trip (every request shape)" `Quick test_json_round_trip;
    Alcotest.test_case "args round-trip (every request shape)" `Quick test_args_round_trip;
    Alcotest.test_case "reply round-trip (every response shape)" `Quick test_reply_round_trip;
    Alcotest.test_case "deprecated flag shims" `Quick test_deprecated_shims;
    Alcotest.test_case "unknown flag names the canonical spelling" `Quick
      test_unknown_flag_suggestion;
    Alcotest.test_case "argument errors are bad-request" `Quick test_arg_errors;
    Alcotest.test_case "json and argv agree on every op" `Quick test_codecs_agree;
    Alcotest.test_case "error taxonomy is pinned" `Quick test_error_taxonomy;
    Alcotest.test_case "unsupported envelope version is structured" `Quick
      test_unsupported_version;
    Alcotest.test_case "churn nan means survive both codecs" `Quick
      test_churn_nan_round_trip;
    Alcotest.test_case "float args round-trip exactly" `Quick test_float_arg;
    Alcotest.test_case "binary frames round-trip every request shape" `Quick
      test_binary_request_round_trip;
    Alcotest.test_case "binary frames round-trip every reply shape" `Quick
      test_binary_reply_round_trip;
    Alcotest.test_case "binary parser handles partial and pipelined frames" `Quick
      test_binary_partial_frames;
    Alcotest.test_case "binary parser flags oversized and malformed frames" `Quick
      test_binary_oversized_and_bad;
    Alcotest.test_case "binary scalar edge cases" `Quick test_binary_scalar_edges;
    QCheck_alcotest.to_alcotest binary_json_tree_prop;
    Alcotest.test_case "schema dump" `Quick test_schema_dump;
    Alcotest.test_case "wire bytes match the golden fixture" `Quick test_wire_golden;
  ]
