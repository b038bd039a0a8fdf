(* Bench telemetry: smallworld.bench.v1 round-trip and the noise-aware
   regression comparator behind `bench diff`. *)

module B = Obs.Bench

let entry ?(runs = 3) ?(counters = []) ?(rss = 0.0) id median_s =
  { B.id; runs; median_s; min_s = median_s *. 0.9; alloc_bytes = 1e6; rss_bytes = rss; counters }

let report ?(label = "test") ?(jobs = 1) entries =
  { B.label; git_rev = "deadbeef"; scale = "quick"; seed = 42; jobs; entries }

let test_median () =
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (B.median []));
  Alcotest.(check (float 1e-9)) "odd" 2.0 (B.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (B.median [ 4.0; 1.0; 2.0; 3.0 ])

let test_make_entry () =
  let e =
    B.make_entry ~id:"E1" ~wall_s:[ 0.3; 0.1; 0.2 ] ~alloc_bytes:5.0
      ~counters:[ ("route.greedy.steps", 7) ] ()
  in
  Alcotest.(check (float 1e-9)) "median" 0.2 e.B.median_s;
  Alcotest.(check (float 1e-9)) "min" 0.1 e.B.min_s;
  Alcotest.(check int) "runs" 3 e.B.runs;
  Alcotest.(check (float 1e-9)) "rss defaults to unrecorded" 0.0 e.B.rss_bytes;
  Alcotest.check_raises "empty samples rejected"
    (Invalid_argument "Obs.Bench.make_entry: no samples") (fun () ->
      ignore (B.make_entry ~id:"E1" ~wall_s:[] ~alloc_bytes:0.0 ~counters:[] ()))

let test_roundtrip () =
  let r =
    report
      [
        entry "E1" 0.5 ~counters:[ ("route.greedy.steps", 1234); ("netsim.sends", 5) ];
        entry "E2" 1.25;
      ]
  in
  let s = B.to_string r in
  Alcotest.(check bool) "single line" false (String.contains s '\n');
  (match B.of_string s with
  | Ok r' -> Alcotest.(check bool) "roundtrip equal" true (r = r')
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* Schema is enforced. *)
  (match B.of_string "{\"schema\":\"smallworld.obs.v1\"}" with
  | Ok _ -> Alcotest.fail "wrong schema accepted"
  | Error _ -> ());
  (* jobs round-trips, and reports predating the field parse as jobs=1. *)
  (match B.of_string (B.to_string (report ~jobs:4 [ entry "E1" 0.5 ])) with
  | Ok r' -> Alcotest.(check int) "jobs roundtrip" 4 r'.B.jobs
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* rss_bytes round-trips when recorded and is omitted when not. *)
  (match B.of_string (B.to_string (report [ entry "S1" 0.5 ~rss:2e8 ])) with
  | Ok r' ->
      Alcotest.(check (float 1.0)) "rss roundtrip" 2e8
        (List.hd r'.B.entries).B.rss_bytes
  | Error e -> Alcotest.failf "parse failed: %s" e);
  Alcotest.(check bool) "rss omitted when unrecorded" false
    (let s = B.to_string (report [ entry "E1" 0.5 ]) in
     let rec contains i =
       i + 9 <= String.length s && (String.sub s i 9 = "rss_bytes" || contains (i + 1))
     in
     contains 0);
  match
    B.of_string
      "{\"schema\":\"smallworld.bench.v1\",\"label\":\"old\",\"git_rev\":\"x\",\
       \"scale\":\"quick\",\"seed\":42,\"experiments\":[]}"
  with
  | Ok r' -> Alcotest.(check int) "legacy jobs default" 1 r'.B.jobs
  | Error e -> Alcotest.failf "legacy parse failed: %s" e

let test_counters_of_registry () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~registry:r "t.bench.counter" in
  Obs.Metrics.add c 9;
  ignore (Obs.Metrics.gauge ~registry:r "t.bench.gauge");
  ignore (Obs.Metrics.histogram ~registry:r "t.bench.hist");
  Alcotest.(check (list (pair string int))) "counters only" [ ("t.bench.counter", 9) ]
    (B.counters_of_registry r)

let test_diff_self_is_clean () =
  let r = report [ entry "E1" 0.5; entry "E2" 2.0 ] in
  let comparisons = B.diff ~baseline:r ~current:r () in
  Alcotest.(check int) "one comparison per entry" 2 (List.length comparisons);
  Alcotest.(check bool) "no regression against self" false (B.regressed comparisons);
  List.iter
    (fun (c : B.comparison) ->
      Alcotest.(check bool) "verdict ok" true (c.B.verdict = B.Ok_within_noise);
      Alcotest.(check (float 1e-9)) "ratio 1" 1.0 c.B.ratio)
    comparisons

let test_diff_flags_regression () =
  (* Synthetic regression fixture: E2 doubles, E1 is unchanged. *)
  let baseline = report [ entry "E1" 0.5; entry "E2" 1.0 ] in
  let current = report [ entry "E1" 0.5; entry "E2" 2.0 ] in
  let comparisons = B.diff ~baseline ~current () in
  Alcotest.(check bool) "regression detected" true (B.regressed comparisons);
  let e2 = List.find (fun (c : B.comparison) -> c.B.c_id = "E2") comparisons in
  Alcotest.(check bool) "E2 regressed" true (e2.B.verdict = B.Regressed);
  Alcotest.(check (float 1e-9)) "ratio 2x" 2.0 e2.B.ratio;
  let e1 = List.find (fun (c : B.comparison) -> c.B.c_id = "E1") comparisons in
  Alcotest.(check bool) "E1 clean" true (e1.B.verdict = B.Ok_within_noise);
  (* The reverse direction is an improvement, not a failure. *)
  let comparisons = B.diff ~baseline:current ~current:baseline () in
  Alcotest.(check bool) "improvement is not a regression" false (B.regressed comparisons);
  let e2 = List.find (fun (c : B.comparison) -> c.B.c_id = "E2") comparisons in
  Alcotest.(check bool) "E2 improved" true (e2.B.verdict = B.Improved)

let test_diff_noise_floor () =
  (* 3x ratio but only 3ms absolute: below the 5ms floor, so noise. *)
  let baseline = report [ entry "E1" 0.0015 ] in
  let current = report [ entry "E1" 0.0045 ] in
  Alcotest.(check bool) "sub-floor delta ignored" false
    (B.regressed (B.diff ~baseline ~current ()));
  (* A generous threshold forgives a large absolute delta. *)
  let baseline = report [ entry "E1" 1.0 ] in
  let current = report [ entry "E1" 1.2 ] in
  Alcotest.(check bool) "within 25% band" false (B.regressed (B.diff ~baseline ~current ()));
  Alcotest.(check bool) "tighter threshold flags it" true
    (B.regressed (B.diff ~threshold_pct:10.0 ~baseline ~current ()))

let test_diff_missing_experiment () =
  let baseline = report [ entry "E1" 0.5; entry "E2" 1.0 ] in
  let current = report [ entry "E1" 0.5 ] in
  let comparisons = B.diff ~baseline ~current () in
  let e2 = List.find (fun (c : B.comparison) -> c.B.c_id = "E2") comparisons in
  Alcotest.(check bool) "missing flagged" true (e2.B.verdict = B.Missing);
  Alcotest.(check bool) "missing fails the gate" true (B.regressed comparisons);
  (* The other direction: an id only CURRENT has gets no comparison and
     no gate, but the rendered diff names it. *)
  let current = report [ entry "E1" 0.5; entry "E2" 1.0; entry "E3" 9.0 ] in
  let comparisons = B.diff ~baseline ~current () in
  let unbaselined = B.unbaselined ~baseline ~current in
  Alcotest.(check (list string)) "current-only ids" [ "E3" ] unbaselined;
  Alcotest.(check (list string)) "comparisons cover the baseline only" [ "E1"; "E2" ]
    (List.map (fun (c : B.comparison) -> c.B.c_id) comparisons);
  Alcotest.(check string) "rendered diff names the ungated id under the table"
    (B.render_diff comparisons ^ "  not in baseline (not gated): E3\n")
    (B.render_diff ~unbaselined comparisons);
  Alcotest.(check bool) "a current-only id is not gated" false (B.regressed comparisons)

let test_diff_rss_gate () =
  (* An mmap phase that started materialising its sections: RSS triples
     at unchanged wall time. *)
  let baseline = report [ entry "scale/n1048576/mmap-route" 1.0 ~rss:1e8 ] in
  let current = report [ entry "scale/n1048576/mmap-route" 1.0 ~rss:3e8 ] in
  let comparisons = B.diff ~baseline ~current () in
  Alcotest.(check bool) "rss regression detected" true (B.rss_regressed comparisons);
  Alcotest.(check bool) "full gate fails" true (B.regressed comparisons);
  let c = List.hd comparisons in
  Alcotest.(check bool) "verdict regressed" true (c.B.rss_verdict = B.Regressed);
  Alcotest.(check (float 1e-9)) "ratio 3x" 3.0 c.B.rss_ratio;
  Alcotest.(check bool) "looser threshold forgives" false
    (B.rss_regressed (B.diff ~rss_threshold_pct:250.0 ~baseline ~current ()));
  (* 3x ratio but only 8MB absolute: below the 16MB floor, so noise. *)
  let baseline = report [ entry "S" 1.0 ~rss:4e6 ] in
  let current = report [ entry "S" 1.0 ~rss:1.2e7 ] in
  Alcotest.(check bool) "sub-floor rss ignored" false
    (B.rss_regressed (B.diff ~baseline ~current ()));
  (* A pre-RSS baseline (rss 0) must not fail against a recording
     current report, in either direction. *)
  let old = report [ entry "E1" 1.0 ] in
  let recorded = report [ entry "E1" 1.0 ~rss:5e8 ] in
  Alcotest.(check bool) "unrecorded baseline never gates" false
    (B.rss_regressed (B.diff ~baseline:old ~current:recorded ()));
  Alcotest.(check bool) "unrecorded current never gates" false
    (B.rss_regressed (B.diff ~baseline:recorded ~current:old ()));
  (* A missing experiment fails the timing axis, not the RSS one. *)
  let cs = B.diff ~baseline:(report [ entry "S" 1.0 ~rss:1e8 ]) ~current:(report []) () in
  Alcotest.(check bool) "missing is not an rss failure" false (B.rss_regressed cs);
  Alcotest.(check bool) "missing still fails overall" true (B.regressed cs)

let suite =
  [
    Alcotest.test_case "median" `Quick test_median;
    Alcotest.test_case "make_entry" `Quick test_make_entry;
    Alcotest.test_case "schema roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "counters_of_registry" `Quick test_counters_of_registry;
    Alcotest.test_case "diff: self is clean" `Quick test_diff_self_is_clean;
    Alcotest.test_case "diff: synthetic regression fails" `Quick test_diff_flags_regression;
    Alcotest.test_case "diff: noise floor" `Quick test_diff_noise_floor;
    Alcotest.test_case "diff: missing experiment fails" `Quick test_diff_missing_experiment;
    Alcotest.test_case "diff: rss gate" `Quick test_diff_rss_gate;
  ]
