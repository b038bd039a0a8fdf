(* Trace propagation and profile export: Span.probe snapshot semantics,
   the smallworld.trace.v1 codec (exact round-trip), the JSON parser's
   escape error paths, multi-record trace assembly (Profile.merge) with
   the critical-path invariant, and the Chrome / folded-stack
   exporters' output contracts. *)

module S = Obs.Span
module X = Obs.Export
module P = Obs.Profile

let substr hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let span ?(count = 1) ?(wall = 0.0) ?(alloc = 0.0) ?(children = []) name =
  { S.name; count; wall_s = wall; alloc_bytes = alloc; children }

(* ------------------------------------------------------------------ *)
(* Span.probe                                                          *)

let test_probe_semantics () =
  Obs.Span.clear_roots ();
  let v, t1 =
    S.probe ~name:"probe.test" (fun () ->
        S.with_ ~name:"probe.child" (fun () -> ());
        41 + 1)
  in
  Alcotest.(check int) "probe passes the result through" 42 v;
  if not S.enabled then
    Alcotest.(check bool) "disabled probe returns no tree" true (t1 = None)
  else begin
    let t1 =
      match t1 with Some t -> t | None -> Alcotest.fail "probe lost its tree"
    in
    Alcotest.(check string) "root name" "probe.test" t1.S.name;
    Alcotest.(check int) "single invocation" 1 t1.S.count;
    Alcotest.(check (list string)) "nested child captured" [ "probe.child" ]
      (List.map (fun (c : S.t) -> c.S.name) t1.S.children);
    Alcotest.(check bool) "wall clock ran" true (t1.S.wall_s >= 0.0);
    (* A second same-name probe merges into the global profile... *)
    let _, t2 = S.probe ~name:"probe.test" (fun () -> ()) in
    (match List.find_opt (fun (r : S.t) -> r.S.name = "probe.test") (S.roots ()) with
    | Some root -> Alcotest.(check int) "global profile merged both" 2 root.S.count
    | None -> Alcotest.fail "probe did not land in the global roots");
    (* ...while each captured tree stays frozen at its own invocation
       (Span.time's node would have kept accumulating). *)
    Alcotest.(check int) "first snapshot frozen" 1 t1.S.count;
    (match t2 with
    | Some t2 -> Alcotest.(check int) "second snapshot frozen" 1 t2.S.count
    | None -> Alcotest.fail "second probe lost its tree");
    Obs.Span.clear_roots ()
  end

let test_copy_is_deep () =
  let original = span ~wall:2.0 ~children:[ span ~wall:1.0 "child" ] "root" in
  let dup = S.copy original in
  Alcotest.(check bool) "equal by structure" true (dup = original);
  dup.S.count <- 99;
  (List.hd dup.S.children).S.wall_s <- 7.0;
  dup.S.children <- span "extra" :: dup.S.children;
  Alcotest.(check int) "original count untouched" 1 original.S.count;
  Alcotest.(check (float 0.0)) "original child wall untouched" 1.0
    (List.hd original.S.children).S.wall_s;
  Alcotest.(check int) "original children untouched" 1
    (List.length original.S.children)

(* ------------------------------------------------------------------ *)
(* JSON parser escape error paths                                      *)

let parse_err what input expect =
  match X.json_of_string input with
  | Ok _ -> Alcotest.failf "%s: %S parsed successfully" what input
  | Error m ->
      if not (substr m expect) then
        Alcotest.failf "%s: error %S does not mention %S" what m expect

let test_parser_escape_errors () =
  parse_err "truncated \\u" {|"\u12"|} "truncated \\u escape";
  parse_err "truncated \\u at eof" {|"\u|} "truncated \\u escape";
  parse_err "bad \\u hex" {|"\uzz12"|} "bad \\u escape \\uzz12";
  parse_err "bad \\u punctuation" {|"ab\u+123c"|} "bad \\u escape \\u+123";
  parse_err "unterminated string" {|"abc|} "unterminated string";
  parse_err "unterminated escape" {|"abc\|} "unterminated escape";
  parse_err "unknown escape" {|"\q"|} "bad escape \\q";
  (* The adjacent good paths still parse. *)
  (match X.json_of_string {|"A\u00e9"|} with
  | Ok (X.Str s) -> Alcotest.(check string) "\\u decodes" "A\xe9" s
  | Ok _ -> Alcotest.fail "\\u string parsed to a non-string"
  | Error m -> Alcotest.failf "valid \\u rejected: %s" m);
  match X.json_of_string {|"a\"b\\c"|} with
  | Ok (X.Str s) -> Alcotest.(check string) "simple escapes" "a\"b\\c" s
  | Ok _ -> Alcotest.fail "escaped string parsed to a non-string"
  | Error m -> Alcotest.failf "valid escapes rejected: %s" m

(* ------------------------------------------------------------------ *)
(* Event codec: event_of_json inverts event_to_json                    *)

let test_event_codec_round_trip () =
  let open Obs.Events in
  let samples =
    [
      { seq = 0; time = 1.5; payload = Route_hop { route = 3; hop = 0; vertex = 17; objective = 0.25 } };
      { seq = 1; time = 2.0; payload = Dead_end { route = 3; vertex = 9 } };
      { seq = 2; time = 2.25; payload = Patch_enter { route = 4; vertex = 1; phi = 0.75 } };
      { seq = 3; time = 2.5; payload = Patch_exit { route = 4; vertex = 1; phi = 0.5 } };
      { seq = 4; time = 3.0; payload = Phase_switch { route = 5; vertex = 2; phase = "pressure" } };
      { seq = 5; time = 3.5;
        payload = Msg_send { trace = 1; msg = 10; parent = -1; src = 0; dst = 4; kind = "probe"; sim_time = 0.5 } };
      { seq = 6; time = 4.0;
        payload = Msg_recv { trace = 1; msg = 10; parent = 7; src = 0; dst = 4; kind = "probe"; sim_time = 0.75 } };
    ]
  in
  List.iter
    (fun ev ->
      let line = X.event_line ev in
      match X.json_of_string line with
      | Error m -> Alcotest.failf "event line is not JSON: %s (%s)" line m
      | Ok j -> (
          match X.event_of_json j with
          | Ok ev' -> Alcotest.(check bool) ("round-trip " ^ line) true (ev = ev')
          | Error m -> Alcotest.failf "event line did not decode: %s (%s)" line m))
    samples;
  (* A delivered route's terminal hop has no objective: the emitter
     writes null, the decoder must map it back to nan. *)
  let terminal =
    { seq = 9; time = 5.0;
      payload = Route_hop { route = 1; hop = 4; vertex = 8; objective = Float.nan } }
  in
  (match X.json_of_string (X.event_line terminal) with
  | Ok j -> (
      match X.event_of_json j with
      | Ok ev' ->
          (* compare, not (=): nan <> nan structurally. *)
          Alcotest.(check bool) "nan objective survives as nan" true
            (compare terminal ev' = 0)
      | Error m -> Alcotest.failf "terminal hop did not decode: %s" m)
  | Error m -> Alcotest.failf "terminal hop line is not JSON: %s" m);
  match X.event_of_json (X.Obj [ ("type", X.Str "warp") ]) with
  | Ok _ -> Alcotest.fail "unknown event type decoded"
  | Error m -> Alcotest.(check bool) "unknown type named" true (substr m "warp")

(* ------------------------------------------------------------------ *)
(* trace.v1 codec                                                      *)

let sample_record =
  {
    P.tr_trace = "req-00ff";
    tr_span = -12;
    tr_parent = Some 3;
    tr_origin = "server";
    tr_t0 = 1754650000.5;
    tr_root =
      span ~wall:0.25 ~alloc:2048.0
        ~children:
          [
            span ~wall:0.0 "stage.queue_wait";
            span ~count:2 ~wall:0.125 ~alloc:1024.0
              ~children:[ span ~wall:0.0625 "route.greedy" ]
              "stage.compute";
            span ~wall:0.01 "semi;colon and space";
          ]
        "server.request";
  }

let test_trace_record_round_trip () =
  let records =
    [
      sample_record;
      { P.tr_trace = "cli-1"; tr_span = 1; tr_parent = None; tr_origin = "cli";
        tr_t0 = 0.0; tr_root = span ~wall:1.0 "client.route" };
    ]
  in
  List.iter
    (fun r ->
      let line = X.trace_line r in
      Alcotest.(check bool) "line carries the schema tag" true
        (substr line X.trace_schema_version);
      match X.json_of_string line with
      | Error m -> Alcotest.failf "trace line is not JSON: %s (%s)" line m
      | Ok j -> (
          match X.trace_of_json j with
          | Ok r' -> Alcotest.(check bool) ("exact round-trip " ^ line) true (r = r')
          | Error m -> Alcotest.failf "trace line did not decode: %s (%s)" line m))
    records;
  (* A record with the wrong schema tag must be refused. *)
  match
    X.trace_of_json
      (X.Obj [ ("schema", X.Str "smallworld.nope.v9"); ("trace", X.Str "x") ])
  with
  | Ok _ -> Alcotest.fail "wrong schema decoded"
  | Error m -> Alcotest.(check bool) "schema named in error" true (substr m "nope")

(* ------------------------------------------------------------------ *)
(* Profile.merge                                                       *)

let client_record ?(trace = "t1") ?(span_id = 1) root_name =
  { P.tr_trace = trace; tr_span = span_id; tr_parent = None; tr_origin = "cli";
    tr_t0 = 10.0; tr_root = span ~wall:1.0 root_name }

let server_record ?(trace = "t1") ?(span_id = -7) ?(parent = 1) () =
  { P.tr_trace = trace; tr_span = span_id; tr_parent = Some parent;
    tr_origin = "server"; tr_t0 = 10.1;
    tr_root = span ~wall:0.5 ~children:[ span ~wall:0.25 "stage.compute" ] "server.request" }

let test_merge_grafts_server_under_client () =
  let client = client_record "client.route" in
  let server = server_record () in
  (match P.merge [ server; client ] with
  | Error m -> Alcotest.failf "merge failed: %s" m
  | Ok merged ->
      Alcotest.(check string) "root is the client record" "cli" merged.P.tr_origin;
      Alcotest.(check (list string)) "server grafted under the client span"
        [ "server.request" ]
        (List.map (fun (c : S.t) -> c.S.name) merged.P.tr_root.S.children);
      (* Merge works on copies: the inputs are not mutated. *)
      Alcotest.(check int) "input record untouched" 0
        (List.length client.P.tr_root.S.children));
  (* Records of another trace are ignored when trace_id selects. *)
  let other = client_record ~trace:"t2" "client.other" in
  match P.merge ~trace_id:"t2" [ client_record "client.route"; server_record (); other ] with
  | Error m -> Alcotest.failf "selective merge failed: %s" m
  | Ok merged ->
      Alcotest.(check string) "t2 selected" "client.other" merged.P.tr_root.S.name

let test_merge_error_cases () =
  (match P.merge [] with
  | Ok _ -> Alcotest.fail "empty merge succeeded"
  | Error m -> Alcotest.(check bool) "empty named" true (substr m "no trace records"));
  (match P.merge ~trace_id:"ghost" [ client_record "c" ] with
  | Ok _ -> Alcotest.fail "ghost trace merged"
  | Error m -> Alcotest.(check bool) "ghost named" true (substr m "ghost"));
  (match P.merge [ client_record ~span_id:1 "a"; client_record ~span_id:2 "b" ] with
  | Ok _ -> Alcotest.fail "two roots merged"
  | Error m -> Alcotest.(check bool) "root count reported" true (substr m "2 root records"));
  (* An orphan parent reference degrades to a root, not a crash. *)
  match P.merge [ server_record ~parent:999 () ] with
  | Ok merged ->
      Alcotest.(check string) "orphan is its own root" "server.request"
        merged.P.tr_root.S.name
  | Error m -> Alcotest.failf "orphan server record did not merge: %s" m

let test_read_channel_collects_errors () =
  let path = Filename.temp_file "smallworld_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_text path (fun oc ->
      output_string oc (X.trace_line sample_record);
      output_string oc "\n\nthis is not json\n";
      output_string oc (X.trace_line (client_record "client.route"));
      output_char oc '\n');
  let records, errors = In_channel.with_open_text path P.read_channel in
  Alcotest.(check int) "both good records read" 2 (List.length records);
  Alcotest.(check int) "one bad line reported" 1 (List.length errors);
  Alcotest.(check bool) "error cites the line number" true
    (substr (List.hd errors) "line 3");
  Alcotest.(check (list string)) "first-seen trace order" [ "req-00ff"; "t1" ]
    (P.trace_ids records)

(* ------------------------------------------------------------------ *)
(* Critical path                                                       *)

let test_critical_path_telescopes () =
  let tree =
    span ~wall:10.0
      ~children:
        [
          span ~wall:6.0 ~children:[ span ~wall:5.0 "a1"; span ~wall:0.5 "a2" ] "a";
          span ~wall:3.0 "b";
        ]
      "root"
  in
  let path = P.critical_path tree in
  Alcotest.(check (list string)) "heaviest chain" [ "root"; "a"; "a1" ]
    (List.map (fun (h : P.hop) -> h.P.cp_name) path);
  List.iter2
    (fun (h : P.hop) (wall, self) ->
      Alcotest.(check (float 1e-12)) (h.P.cp_name ^ " wall") wall h.P.cp_wall_s;
      Alcotest.(check (float 1e-12)) (h.P.cp_name ^ " self") self h.P.cp_self_s)
    path
    [ (10.0, 4.0); (6.0, 1.0); (5.0, 5.0) ];
  (* The telescoping invariant: self contributions sum to the root's
     wall time exactly — this is what makes "within 10% of measured
     wall" a meaningful end-to-end assertion. *)
  Alcotest.(check (float 1e-12)) "sum of self = root wall" tree.S.wall_s
    (P.total path);
  Alcotest.(check (list string)) "leaf-only tree" [ "leaf" ]
    (List.map (fun (h : P.hop) -> h.P.cp_name) (P.critical_path (span ~wall:1.0 "leaf")))

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let test_chrome_trace_shape () =
  (* Children deliberately overcommit their parent: 0.7 + 0.7 > 1.0;
     the exporter must clamp rather than emit overlapping siblings. *)
  let tree =
    span ~wall:1.0 ~children:[ span ~wall:0.7 "c1"; span ~wall:0.7 "c2" ] "root"
  in
  match X.json_of_string (X.chrome_trace ~t0:100.0 tree) with
  | Error m -> Alcotest.failf "chrome trace is not JSON: %s" m
  | Ok doc ->
      let events =
        match X.member "traceEvents" doc with
        | Some (X.Arr events) -> events
        | _ -> Alcotest.fail "no traceEvents array"
      in
      Alcotest.(check int) "one event per span" 3 (List.length events);
      let field name j =
        match X.member name j with
        | Some v -> v
        | None -> Alcotest.failf "event lacks %S" name
      in
      List.iter
        (fun e ->
          Alcotest.(check bool) "complete events" true (field "ph" e = X.Str "X");
          Alcotest.(check bool) "pid pinned" true (field "pid" e = X.Int 1))
        events;
      let by_name name =
        List.find (fun e -> field "name" e = X.Str name) events
      in
      let ts j = match field "ts" j with
        | X.Float f -> f
        | X.Int i -> float_of_int i
        | _ -> Alcotest.fail "ts is not a number"
      and dur j = match field "dur" j with
        | X.Float f -> f
        | X.Int i -> float_of_int i
        | _ -> Alcotest.fail "dur is not a number"
      in
      let root = by_name "root" and c1 = by_name "c1" and c2 = by_name "c2" in
      Alcotest.(check (float 1e-6)) "root starts at t0 (µs)" 1e8 (ts root);
      Alcotest.(check (float 1e-6)) "root dur µs" 1e6 (dur root);
      Alcotest.(check (float 1e-6)) "c1 keeps its wall" 0.7e6 (dur c1);
      Alcotest.(check (float 1e-6)) "c2 packed after c1" (ts c1 +. dur c1) (ts c2);
      Alcotest.(check (float 1e-3)) "c2 clamped to the parent" 0.3e6 (dur c2);
      Alcotest.(check bool) "children stay inside the parent" true
        (ts c2 +. dur c2 <= ts root +. dur root +. 1e-6)

let test_folded_stacks_grammar () =
  let tree =
    (* Root self time is 0 too (0.5 = 0.5 + 0.0): interior zero-self
       nodes vanish from the output while their paths remain. *)
    span ~wall:0.5
      ~children:
        [
          (* Interior node with zero self time: omitted. *)
          span ~wall:0.5 ~children:[ span ~wall:0.5 "leaf one" ] "mid;dle";
          (* Zero-wall leaf: kept, so the path is visible. *)
          span ~wall:0.0 "empty_leaf";
        ]
      "root"
  in
  let folded = X.folded_stacks tree in
  let lines = String.split_on_char '\n' folded |> List.filter (fun l -> l <> "") in
  (* Every line is "stack N" with sanitized names and integer self µs. *)
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "folded line lacks a count: %S" line
      | Some i ->
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          (match int_of_string_opt v with
          | Some n -> Alcotest.(check bool) "non-negative" true (n >= 0)
          | None -> Alcotest.failf "folded count is not an integer: %S" line);
          let stack = String.sub line 0 i in
          Alcotest.(check bool) "no spaces inside the stack" false
            (String.contains stack ' '))
    lines;
  Alcotest.(check (list string)) "paths, sanitized, zero-self interior omitted"
    [ "root;mid:dle;leaf_one 500000"; "root;empty_leaf 0" ]
    lines

let suite =
  [
    Alcotest.test_case "probe freezes a per-invocation tree" `Quick test_probe_semantics;
    Alcotest.test_case "span copy is deep" `Quick test_copy_is_deep;
    Alcotest.test_case "parser escape error paths" `Quick test_parser_escape_errors;
    Alcotest.test_case "event codec round-trips" `Quick test_event_codec_round_trip;
    Alcotest.test_case "trace.v1 exact round-trip" `Quick test_trace_record_round_trip;
    Alcotest.test_case "merge grafts server under client" `Quick
      test_merge_grafts_server_under_client;
    Alcotest.test_case "merge error cases" `Quick test_merge_error_cases;
    Alcotest.test_case "trace reader collects line errors" `Quick
      test_read_channel_collects_errors;
    Alcotest.test_case "critical path telescopes to root wall" `Quick
      test_critical_path_telescopes;
    Alcotest.test_case "chrome trace shape and clamping" `Quick test_chrome_trace_shape;
    Alcotest.test_case "folded stacks grammar" `Quick test_folded_stacks_grammar;
  ]
