(* Obs library: metric arithmetic, span nesting/rollup invariants,
   snapshot determinism, no-op mode, and exporter output shape. *)

module M = Obs.Metrics
module S = Obs.Span

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_counter_arithmetic () =
  let r = M.create () in
  let c = M.counter ~registry:r "t.counter" in
  Alcotest.(check int) "starts at 0" 0 (M.counter_value c);
  M.incr c;
  M.add c 41;
  Alcotest.(check int) "incr + add" 42 (M.counter_value c);
  match M.find_value r "t.counter" with
  | Some (M.Counter_v 42) -> ()
  | _ -> Alcotest.fail "registry does not reflect counter value"

let test_counter_dedup () =
  let r = M.create () in
  let a = M.counter ~registry:r "t.shared" in
  let b = M.counter ~registry:r "t.shared" in
  M.incr a;
  M.incr b;
  Alcotest.(check int) "same cell" 2 (M.counter_value a)

let test_kind_mismatch_rejected () =
  let r = M.create () in
  ignore (M.counter ~registry:r "t.kinded");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Obs.Metrics: \"t.kinded\" already registered as a counter")
    (fun () -> ignore (M.gauge ~registry:r "t.kinded"))

let test_gauge () =
  let r = M.create () in
  let g = M.gauge ~registry:r "t.gauge" in
  M.set g 3.0;
  M.set_max g 2.0;
  Alcotest.(check (float 0.0)) "set_max keeps max" 3.0 (M.gauge_value g);
  M.set_max g 5.0;
  Alcotest.(check (float 0.0)) "set_max raises" 5.0 (M.gauge_value g)

let test_histogram_arithmetic () =
  let r = M.create () in
  let h = M.histogram ~registry:r "t.hist" in
  let values = [ 0.0; 0.5; 1.0; 2.0; 3.0; 100.0 ] in
  List.iter (M.observe h) values;
  Alcotest.(check int) "count" 6 (M.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 106.5 (M.hist_sum h);
  match M.find_value r "t.hist" with
  | Some (M.Histogram_v snap) ->
      Alcotest.(check (float 0.0)) "min" 0.0 snap.M.min;
      Alcotest.(check (float 0.0)) "max" 100.0 snap.M.max;
      Alcotest.(check int) "bucket mass = count" 6
        (List.fold_left (fun acc (_, c) -> acc + c) 0 snap.M.buckets);
      (* Exact subbucket edges land on their own bound (powers of two
         and 3.0 = 2 * (1 + 4/8)); 100 rounds up to 104, the next
         subbucket edge of the (64, 128] binade. *)
      let bounds = List.map fst snap.M.buckets in
      List.iter
        (fun ub -> if not (List.mem ub [ 0.0; 0.5; 1.0; 2.0; 3.0; 104.0 ]) then
            Alcotest.failf "unexpected bucket bound %g" ub)
        bounds;
      (* Bounds are increasing and each value fits under some bound. *)
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      Alcotest.(check bool) "bounds increasing" true (increasing bounds)
  | _ -> Alcotest.fail "histogram snapshot missing"

let test_snapshot_deterministic () =
  let r = M.create () in
  ignore (M.counter ~registry:r "t.z");
  ignore (M.counter ~registry:r "t.a");
  let g = M.gauge ~registry:r "t.m" in
  M.set g 1.5;
  let s1 = M.snapshot r and s2 = M.snapshot r in
  Alcotest.(check bool) "two snapshots equal" true (s1 = s2);
  Alcotest.(check (list string)) "sorted by name" [ "t.a"; "t.m"; "t.z" ]
    (List.map fst s1)

let test_reset () =
  let r = M.create () in
  let c = M.counter ~registry:r "t.reset" in
  M.add c 7;
  M.reset r;
  Alcotest.(check int) "zeroed" 0 (M.counter_value c);
  Alcotest.(check bool) "still listed" true
    (List.mem_assoc "t.reset" (M.list_metrics r))

let test_noop_mode () =
  let r = M.create ~live:false () in
  Alcotest.(check bool) "dead" false (M.is_live r);
  let c = M.counter ~registry:r "t.dead.counter" in
  let g = M.gauge ~registry:r "t.dead.gauge" in
  let h = M.histogram ~registry:r "t.dead.hist" in
  M.incr c;
  M.add c 10;
  M.set g 9.0;
  M.observe h 3.0;
  Alcotest.(check int) "counter stays 0" 0 (M.counter_value c);
  Alcotest.(check (float 0.0)) "gauge stays 0" 0.0 (M.gauge_value g);
  Alcotest.(check int) "hist stays 0" 0 (M.hist_count h);
  List.iter
    (fun (name, v) ->
      match v with
      | M.Counter_v 0 | M.Gauge_v 0.0 -> ()
      | M.Histogram_v s when s.M.count = 0 && s.M.buckets = [] -> ()
      | _ -> Alcotest.failf "non-zero snapshot for %s in no-op mode" name)
    (M.snapshot r);
  (* Names and kinds remain discoverable. *)
  Alcotest.(check int) "3 metrics listed" 3 (List.length (M.list_metrics r))

(* ------------------------------------------------------------------ *)
(* Spans *)

let spin_allocate () =
  (* Burn a little time and allocate measurably. *)
  let acc = ref [] in
  for i = 0 to 5_000 do
    acc := [| float_of_int i |] :: !acc
  done;
  ignore (Sys.opaque_identity !acc)

(* The allocation counter is exact: a fixed allocation reads the same
   bytes whether the minor heap was empty on entry or so nearly full
   that the allocation crosses a minor collection (which also promotes
   part of it).  Each reading starts from a forced minor collection, so
   neither depends on what ran before. *)
let list_cells = 2_000

let fixed_allocation () =
  let rec build acc i = if i = 0 then acc else build (i :: acc) (i - 1) in
  ignore (Sys.opaque_identity (build [] list_cells))

let counter_reading ~fill_words =
  Gc.minor ();
  for _ = 1 to fill_words / 2 do
    ignore (Sys.opaque_identity (ref 0))
  done;
  let c0 = (Gc.quick_stat ()).Gc.minor_collections in
  let b0 = S.allocated_bytes () in
  fixed_allocation ();
  let bytes = S.allocated_bytes () -. b0 in
  (bytes, (Gc.quick_stat ()).Gc.minor_collections - c0)

let test_allocated_bytes_exact () =
  let list_words = 3 * list_cells in
  let empty, _ = counter_reading ~fill_words:0 in
  let full, collections =
    counter_reading ~fill_words:((Gc.get ()).Gc.minor_heap_size - (list_words / 2))
  in
  if collections < 1 then Alcotest.fail "the nearly full minor heap was not collected";
  Alcotest.(check (float 0.0)) "same bytes, empty or nearly full minor heap" empty full;
  let expected = float_of_int (list_words * (Sys.word_size / 8)) in
  if empty < expected || empty > expected +. 256.0 then
    Alcotest.failf "a %d-cell list read %.0f bytes, expected %.0f" list_cells empty expected

let with_fresh_trace f =
  (* Tests share the process-global trace; isolate and restore nothing —
     each test clears before use. *)
  Obs.Span.clear_roots ();
  f ()

let test_span_nesting_and_rollup () =
  if not S.enabled then ()
  else
    with_fresh_trace (fun () ->
        let (), sp =
          S.time ~name:"t.root" (fun () ->
              S.with_ ~name:"t.child" (fun () -> spin_allocate ());
              S.with_ ~name:"t.child" (fun () ->
                  S.with_ ~name:"t.leaf" (fun () -> spin_allocate ()));
              S.with_ ~name:"t.other" (fun () -> ()))
        in
        match sp with
        | None -> Alcotest.fail "expected a span when enabled"
        | Some sp ->
            Alcotest.(check string) "root name" "t.root" sp.S.name;
            Alcotest.(check int) "root count" 1 sp.S.count;
            Alcotest.(check (list string)) "children rolled up in order"
              [ "t.child"; "t.other" ]
              (List.map (fun (c : S.t) -> c.S.name) sp.S.children);
            let child = List.hd sp.S.children in
            Alcotest.(check int) "sibling merge count" 2 child.S.count;
            Alcotest.(check (list string)) "grandchild kept" [ "t.leaf" ]
              (List.map (fun (c : S.t) -> c.S.name) child.S.children);
            Alcotest.(check int) "depth" 3 (S.depth sp);
            (* Rollup invariant: children cannot exceed the parent. *)
            let child_total =
              List.fold_left (fun acc (c : S.t) -> acc +. c.S.wall_s) 0.0 sp.S.children
            in
            Alcotest.(check bool) "child wall <= parent wall" true
              (child_total <= sp.S.wall_s +. 1e-6);
            Alcotest.(check bool) "self time non-negative" true (S.self_s sp >= 0.0);
            Alcotest.(check bool) "allocation recorded" true (child.S.alloc_bytes > 0.0);
            Alcotest.(check bool) "root collected" true
              (List.memq sp (Obs.Span.roots ())))

let test_span_root_merge () =
  if not S.enabled then ()
  else
    with_fresh_trace (fun () ->
        let (), s1 = S.time ~name:"t.repeat" (fun () -> ()) in
        let (), s2 = S.time ~name:"t.repeat" (fun () -> ()) in
        match (s1, s2) with
        | Some a, Some b ->
            Alcotest.(check bool) "merged into one root" true (a == b);
            Alcotest.(check int) "count 2" 2 a.S.count;
            Alcotest.(check int) "one root" 1 (List.length (Obs.Span.roots ()))
        | _ -> Alcotest.fail "expected spans when enabled")

let test_span_exception_safe () =
  if not S.enabled then ()
  else
    with_fresh_trace (fun () ->
        (try S.with_ ~name:"t.raises" (fun () -> failwith "boom")
         with Failure _ -> ());
        (* The stack must be clean: a new root is a root, not a child. *)
        let (), sp = S.time ~name:"t.after" (fun () -> ()) in
        match sp with
        | Some s ->
            Alcotest.(check string) "new root unaffected" "t.after" s.S.name;
            Alcotest.(check bool) "failed span still collected" true
              (List.exists (fun (r : S.t) -> r.S.name = "t.raises") (S.roots ()))
        | None -> Alcotest.fail "expected a span")

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

module E = Obs.Events

(* The recorder is process-global; every test clears it first and
   restores armed/capacity state on exit. *)
let with_recorder f =
  if not E.enabled then ()
  else begin
    let cap = E.capacity () in
    Fun.protect
      ~finally:(fun () ->
        E.set_recording true;
        E.set_capacity cap)
      (fun () ->
        E.set_recording true;
        E.clear ();
        f ())
  end

let hop ~route ~hop ~vertex = E.Route_hop { route; hop; vertex; objective = 1.0 }

let test_events_seq_monotone () =
  with_recorder (fun () ->
      for i = 0 to 9 do
        E.emit (hop ~route:1 ~hop:i ~vertex:i)
      done;
      let evs = E.events () in
      Alcotest.(check int) "all kept" 10 (List.length evs);
      Alcotest.(check (list int)) "seq 0..9" (List.init 10 Fun.id)
        (List.map (fun (e : E.event) -> e.E.seq) evs);
      Alcotest.(check int) "emitted" 10 (E.emitted ());
      Alcotest.(check int) "nothing dropped" 0 (E.dropped ());
      let times = List.map (fun (e : E.event) -> e.E.time) evs in
      Alcotest.(check bool) "times non-decreasing" true
        (List.for_all2 (fun a b -> a <= b) times (List.tl times @ [ infinity ])))

let test_events_ring_overwrite () =
  with_recorder (fun () ->
      E.set_capacity 4;
      for i = 0 to 9 do
        E.emit (hop ~route:1 ~hop:i ~vertex:i)
      done;
      let evs = E.events () in
      Alcotest.(check int) "bounded by capacity" 4 (List.length evs);
      Alcotest.(check int) "dropped = overflow" 6 (E.dropped ());
      (* The tail survives, oldest first. *)
      Alcotest.(check (list int)) "last 4 seqs" [ 6; 7; 8; 9 ]
        (List.map (fun (e : E.event) -> e.E.seq) evs);
      E.clear ();
      Alcotest.(check int) "clear empties" 0 (List.length (E.events ())))

let test_events_pause () =
  with_recorder (fun () ->
      E.emit (hop ~route:1 ~hop:0 ~vertex:0);
      E.set_recording false;
      Alcotest.(check bool) "paused" false (E.recording ());
      E.emit (hop ~route:1 ~hop:1 ~vertex:1);
      E.set_recording true;
      E.emit (hop ~route:1 ~hop:2 ~vertex:2);
      Alcotest.(check int) "paused emit dropped" 2 (List.length (E.events ())))

let test_event_line_shape () =
  with_recorder (fun () ->
      E.emit
        (E.Msg_send
           { trace = 3; msg = 7; parent = -1; src = 0; dst = 5; kind = "explore"; sim_time = 2.5 });
      match E.events () with
      | [ e ] ->
          let line = Obs.Export.event_line e in
          Alcotest.(check bool) "single line" false (String.contains line '\n');
          let contains sub =
            let n = String.length sub and m = String.length line in
            let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
            go 0
          in
          List.iter
            (fun sub -> if not (contains sub) then Alcotest.failf "event line missing %s" sub)
            [
              "\"schema\":\"smallworld.events.v1\"";
              "\"seq\":0";
              "\"type\":\"msg_send\"";
              "\"trace\":3";
              "\"msg\":7";
              "\"parent\":null";
              "\"dst\":5";
              "\"kind\":\"explore\"";
              "\"sim_time\":2.5";
            ]
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs))

let test_routing_emits_hop_events () =
  with_recorder (fun () ->
      let inst = Test_greedy.girg_instance ~seed:901 ~n:1500 ~c:0.2 () in
      let rng = Prng.Rng.create ~seed:9 in
      let s, t = Prng.Dist.sample_distinct_pair rng ~n:(Sparse_graph.Graph.n inst.graph) in
      let objective = Greedy_routing.Objective.girg_phi inst ~target:t in
      let outcome = Greedy_routing.Greedy.route ~graph:inst.graph ~objective ~source:s () in
      let hops =
        List.filter_map
          (fun (e : E.event) ->
            match e.E.payload with E.Route_hop { vertex; _ } -> Some vertex | _ -> None)
          (E.events ())
      in
      Alcotest.(check (list int)) "hop events replay the walk" outcome.Greedy_routing.Outcome.walk
        hops;
      if outcome.Greedy_routing.Outcome.status = Greedy_routing.Outcome.Dead_end then
        Alcotest.(check bool) "dead end recorded" true
          (List.exists
             (fun (e : E.event) ->
               match e.E.payload with E.Dead_end _ -> true | _ -> false)
             (E.events ())))

(* ------------------------------------------------------------------ *)
(* Exporters *)

let test_manifest_line_shape () =
  let r = M.create () in
  let c = M.counter ~registry:r "girg.test_metric" in
  M.add c 5;
  let span =
    if S.enabled then snd (S.time ~name:"exp.TEST" (fun () -> ())) else None
  in
  let line =
    Obs.Export.manifest_line ~experiment:"E1" ~seed:42 ~scale:"quick" ~registry:r ~span ()
  in
  Alcotest.(check bool) "single line" false (String.contains line '\n');
  let contains sub =
    let n = String.length sub and m = String.length line in
    let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun sub ->
      if not (contains sub) then Alcotest.failf "manifest missing %s" sub)
    [
      "\"schema\":\"smallworld.obs.v1\"";
      "\"experiment\":\"E1\"";
      "\"seed\":42";
      "\"scale\":\"quick\"";
      "\"girg.test_metric\":5";
      "\"git_rev\":";
    ]

let test_json_escaping () =
  Alcotest.(check string) "escapes" "{\"k\":\"a\\\"b\\\\c\\nd\"}"
    (Obs.Export.json_to_string (Obs.Export.Obj [ ("k", Obs.Export.Str "a\"b\\c\nd") ]));
  Alcotest.(check string) "nan is null" "null"
    (Obs.Export.json_to_string (Obs.Export.Float Float.nan))

let test_prometheus_dump () =
  let r = M.create () in
  let c = M.counter ~registry:r "route.test.counter" in
  M.add c 3;
  let h = M.histogram ~registry:r "route.test.hist" in
  M.observe h 1.0;
  M.observe h 2.0;
  let text = Obs.Export.prometheus r in
  let expect =
    "# TYPE smallworld_route_test_counter counter\n\
     smallworld_route_test_counter 3\n\
     # TYPE smallworld_route_test_hist histogram\n\
     smallworld_route_test_hist_bucket{le=\"1\"} 1\n\
     smallworld_route_test_hist_bucket{le=\"2\"} 2\n\
     smallworld_route_test_hist_bucket{le=\"+Inf\"} 2\n\
     smallworld_route_test_hist_sum 3\n\
     smallworld_route_test_hist_count 2\n"
  in
  Alcotest.(check string) "prometheus text" expect text

let test_prometheus_name_sanitisation () =
  let r = M.create () in
  let c = M.counter ~registry:r "route.test-metric:x/1" in
  M.incr c;
  let text = Obs.Export.prometheus r in
  Alcotest.(check string) "separators become underscores"
    "# TYPE smallworld_route_test_metric_x_1 counter\nsmallworld_route_test_metric_x_1 1\n" text

let test_prometheus_le_buckets_cumulative () =
  let r = M.create () in
  let h = M.histogram ~registry:r "t.lat" in
  List.iter (M.observe h) [ -1.0; 0.0; 0.5; 1.0; 2.0; 100.0; 100.0 ];
  let text = Obs.Export.prometheus r in
  let lines = String.split_on_char '\n' (String.trim text) in
  let bucket_counts =
    List.filter_map
      (fun line ->
        match String.index_opt line '}' with
        | Some i when String.length line > 7 && String.sub line 0 7 = "smallwo" ->
            let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
            if String.length line > i && String.contains line '{' then int_of_string_opt rest
            else None
        | _ -> None)
      lines
  in
  (* Cumulative le convention: counts are non-decreasing and the +Inf
     bucket equals the total count. *)
  Alcotest.(check bool) "at least the <=0, some finite, and +Inf buckets" true
    (List.length bucket_counts >= 3);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative counts monotone" true (monotone bucket_counts);
  Alcotest.(check int) "+Inf bucket = count" 7 (List.nth bucket_counts (List.length bucket_counts - 1));
  (* The two non-positive observations land in the le="0" bucket. *)
  Alcotest.(check bool) "le=\"0\" bucket present with both non-positives" true
    (List.exists
       (fun line ->
         String.length line > 0
         && String.sub line 0 (min (String.length line) 60)
            = "smallworld_t_lat_bucket{le=\"0\"} 2")
       lines)

let test_git_rev_fallbacks () =
  (* git_rev reads .git/ relative to the cwd; build a fake one. *)
  let tmp = Filename.temp_file "smallworld_gitrev" "" in
  Sys.remove tmp;
  Sys.mkdir tmp 0o755;
  Sys.mkdir (Filename.concat tmp ".git") 0o755;
  let write path contents =
    Out_channel.with_open_text (Filename.concat tmp path) (fun oc -> output_string oc contents)
  in
  let cwd = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () -> Sys.chdir cwd)
    (fun () ->
      Sys.chdir tmp;
      write ".git/HEAD" "ref: refs/heads/main\n";
      (* No loose ref, no packed-refs: unknown. *)
      Alcotest.(check string) "no ref anywhere" "unknown" (Obs.Export.git_rev ());
      (* Packed-refs fallback (the loose file is gone after git pack-refs). *)
      write ".git/packed-refs"
        "# pack-refs with: peeled fully-peeled sorted \n\
         1111111111111111111111111111111111111111 refs/heads/other\n\
         2222222222222222222222222222222222222222 refs/heads/main\n\
         ^3333333333333333333333333333333333333333\n";
      Alcotest.(check string) "packed ref found" "2222222222222222222222222222222222222222"
        (Obs.Export.git_rev ());
      (* A loose ref wins over packed-refs. *)
      Sys.mkdir ".git/refs" 0o755;
      Sys.mkdir ".git/refs/heads" 0o755;
      write ".git/refs/heads/main" "4444444444444444444444444444444444444444\n";
      Alcotest.(check string) "loose ref wins" "4444444444444444444444444444444444444444"
        (Obs.Export.git_rev ());
      (* Detached HEAD is returned as-is. *)
      write ".git/HEAD" "5555555555555555555555555555555555555555\n";
      Alcotest.(check string) "detached head" "5555555555555555555555555555555555555555"
        (Obs.Export.git_rev ()))

let test_json_parse_roundtrip () =
  let open Obs.Export in
  let doc =
    Obj
      [
        ("s", Str "a\"b\\c\nd");
        ("i", Int (-42));
        ("f", Float 1.5);
        ("b", Bool true);
        ("z", Null);
        ("arr", Arr [ Int 1; Arr []; Obj [] ]);
        ("nested", Obj [ ("k", Arr [ Float 0.25; Bool false ]) ]);
      ]
  in
  (match json_of_string (json_to_string doc) with
  | Ok parsed -> Alcotest.(check bool) "roundtrip equal" true (parsed = doc)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match json_of_string "  { \"a\" : [ 1 , 2.0e1 , \"x\" ] } " with
  | Ok (Obj [ ("a", Arr [ Int 1; Float 20.0; Str "x" ]) ]) -> ()
  | Ok _ -> Alcotest.fail "unexpected parse"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  List.iter
    (fun bad ->
      match json_of_string bad with
      | Ok _ -> Alcotest.failf "accepted invalid JSON %S" bad
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let suite =
  [
    Alcotest.test_case "counter arithmetic" `Quick test_counter_arithmetic;
    Alcotest.test_case "counter dedup" `Quick test_counter_dedup;
    Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch_rejected;
    Alcotest.test_case "gauge set / set_max" `Quick test_gauge;
    Alcotest.test_case "histogram arithmetic" `Quick test_histogram_arithmetic;
    Alcotest.test_case "snapshot deterministic" `Quick test_snapshot_deterministic;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "no-op mode zeroed" `Quick test_noop_mode;
    Alcotest.test_case "allocated_bytes is exact across a minor collection" `Quick
      test_allocated_bytes_exact;
    Alcotest.test_case "span nesting and rollup" `Quick test_span_nesting_and_rollup;
    Alcotest.test_case "span root merge" `Quick test_span_root_merge;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safe;
    Alcotest.test_case "manifest line shape" `Quick test_manifest_line_shape;
    Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "prometheus dump" `Quick test_prometheus_dump;
    Alcotest.test_case "events seq monotone" `Quick test_events_seq_monotone;
    Alcotest.test_case "events ring overwrite" `Quick test_events_ring_overwrite;
    Alcotest.test_case "events pause/resume" `Quick test_events_pause;
    Alcotest.test_case "event JSONL line shape" `Quick test_event_line_shape;
    Alcotest.test_case "routing emits hop events" `Quick test_routing_emits_hop_events;
    Alcotest.test_case "prometheus name sanitisation" `Quick test_prometheus_name_sanitisation;
    Alcotest.test_case "prometheus cumulative le buckets" `Quick test_prometheus_le_buckets_cumulative;
    Alcotest.test_case "git_rev packed-refs fallback" `Quick test_git_rev_fallbacks;
    Alcotest.test_case "json parser roundtrip" `Quick test_json_parse_roundtrip;
  ]
