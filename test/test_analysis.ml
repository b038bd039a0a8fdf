(* Obs.Analysis: event-stream analytics.  A hand-built synthetic stream
   pins every aggregate exactly; the live tests check the conventions
   the docs promise — for pure greedy the analysis reproduces
   Workload's delivered/dropped split and mean steps, and for
   gravity–pressure the phase occupancy accounts for every step. *)

open Experiments
module E = Obs.Events
module A = Obs.Analysis

let mk_events payloads =
  List.mapi (fun i p -> { E.seq = i; time = float_of_int i; payload = p }) payloads

let hop route hop vertex objective = E.Route_hop { route; hop; vertex; objective }

(* Five routes exercising every analyzer path:
   1: delivered in 3 steps;
   2: dead end after 1 step;
   3: delivered in 4 steps with two phase switches (1 gravity hop,
      2 pressure hops, 1 gravity hop after the switch back);
   4: delivered in 2 steps through one patch;
   5: ring-truncated (hops 2..3 survive, prefix overwritten);
   plus two netsim message events that must not create routes. *)
let synthetic_stream () =
  mk_events
    [
      hop 1 0 10 0.1;
      hop 1 1 11 0.2;
      hop 1 2 12 0.4;
      hop 1 3 13 0.8;
      hop 2 0 20 0.1;
      hop 2 1 21 0.3;
      E.Dead_end { route = 2; vertex = 21 };
      hop 3 0 30 0.0;
      hop 3 1 31 0.1;
      E.Phase_switch { route = 3; vertex = 31; phase = "pressure" };
      hop 3 2 32 0.2;
      hop 3 3 33 0.3;
      E.Phase_switch { route = 3; vertex = 33; phase = "gravity" };
      hop 3 4 34 0.4;
      hop 4 0 40 0.5;
      E.Patch_enter { route = 4; vertex = 40; phi = 0.5 };
      hop 4 1 41 0.6;
      E.Patch_exit { route = 4; vertex = 41; phi = 0.5 };
      hop 4 2 42 0.7;
      hop 5 2 52 0.9;
      hop 5 3 53 1.0;
      E.Msg_send
        { trace = 1; msg = 1; parent = -1; src = 0; dst = 1; kind = "fwd"; sim_time = 0.0 };
      E.Msg_recv
        { trace = 1; msg = 1; parent = -1; src = 0; dst = 1; kind = "fwd"; sim_time = 0.5 };
    ]

let feq = Alcotest.(check (float 1e-9))

let test_synthetic_counts () =
  let a = A.analyze ~n:2048 (synthetic_stream ()) in
  Alcotest.(check int) "events" 23 a.A.events;
  Alcotest.(check int) "msg events" 2 a.A.msg_events;
  Alcotest.(check int) "routes" 5 a.A.routes;
  Alcotest.(check int) "truncated" 1 a.A.truncated;
  Alcotest.(check int) "completed" 4 a.A.completed;
  Alcotest.(check int) "dead ends" 1 a.A.dead_ends;
  feq "dead end rate" 0.2 a.A.dead_end_rate;
  (* Completed hop counts are 3, 4, 2, 3 (max hop index = steps). *)
  feq "hop mean" 3.0 a.A.hop_mean;
  feq "hop p50 (nearest rank)" 3.0 a.A.hop_p50;
  feq "hop p90 (nearest rank)" 4.0 a.A.hop_p90;
  Alcotest.(check int) "hop max" 4 a.A.hop_max;
  (* The dead-ended route contributes its 1 step to the all-routes mean. *)
  feq "hop mean (all)" 2.6 a.A.hop_mean_all;
  (match a.A.log_log_n with
  | Some ll -> feq "log log n" (Float.log (Float.log 2048.0)) ll
  | None -> Alcotest.fail "log_log_n missing despite ~n")

let test_synthetic_progress () =
  let a = A.analyze (synthetic_stream ()) in
  Alcotest.(check bool) "no log_log_n without ~n" true (a.A.log_log_n = None);
  Alcotest.(check (list int)) "hop axis ascending" [ 0; 1; 2; 3; 4 ]
    (List.map (fun (p : A.progress_point) -> p.A.hop) a.A.progress);
  Alcotest.(check (list int)) "route occupancy per hop" [ 4; 4; 4; 3; 1 ]
    (List.map (fun (p : A.progress_point) -> p.A.routes) a.A.progress);
  List.iter2
    (fun expect (p : A.progress_point) -> feq "mean objective" expect p.A.mean_objective)
    [ 0.175; 0.3; 0.55; 0.7; 0.4 ]
    a.A.progress

let test_progress_ignores_nonfinite_objectives () =
  (* phi diverges at the target (distance 0), so delivered walks end on
     an infinite — or nan — objective; the hop mean must average the
     finite values only, not get poisoned. *)
  let a =
    A.analyze
      (mk_events
         [
           hop 1 0 10 0.25;
           hop 1 1 11 Float.infinity;
           hop 2 0 20 0.75;
           hop 2 1 21 Float.nan;
         ])
  in
  (match a.A.progress with
  | [ p0; p1 ] ->
      Alcotest.(check int) "both routes at hop 0" 2 p0.A.routes;
      feq "finite hop-0 mean" 0.5 p0.A.mean_objective;
      Alcotest.(check int) "both routes still counted at hop 1" 2 p1.A.routes;
      Alcotest.(check bool) "no finite value -> nan" true
        (Float.is_nan p1.A.mean_objective)
  | ps -> Alcotest.failf "expected 2 progress points, got %d" (List.length ps));
  (* And the json encoder turns that nan into null. *)
  let doc = A.to_json a in
  match Obs.Export.member "progress" doc with
  | Some (Obs.Export.Arr [ _; p1 ]) ->
      Alcotest.(check bool) "nan mean_objective is null" true
        (Obs.Export.member "mean_objective" p1 = Some Obs.Export.Null)
  | _ -> Alcotest.fail "progress array missing from json"

let test_synthetic_phases_and_patches () =
  let a = A.analyze (synthetic_stream ()) in
  Alcotest.(check int) "switches" 2 a.A.switches;
  Alcotest.(check int) "phased routes" 1 a.A.phased_routes;
  (* Route 3: hops 1 and 4 in (implicit or restored) gravity, 2–3 in
     pressure; hop 0 is the source placement, not a step. *)
  Alcotest.(check int) "gravity hops" 2 a.A.hops_gravity;
  Alcotest.(check int) "pressure hops" 2 a.A.hops_pressure;
  Alcotest.(check int) "patch enters" 1 a.A.patch_enters;
  Alcotest.(check int) "patch exits" 1 a.A.patch_exits;
  Alcotest.(check int) "routes with patch" 1 a.A.routes_with_patch

let test_empty_stream () =
  let a = A.analyze [] in
  Alcotest.(check int) "events" 0 a.A.events;
  Alcotest.(check int) "routes" 0 a.A.routes;
  Alcotest.(check int) "completed" 0 a.A.completed;
  Alcotest.(check bool) "dead end rate is nan" true (Float.is_nan a.A.dead_end_rate);
  Alcotest.(check bool) "hop mean is nan" true (Float.is_nan a.A.hop_mean);
  feq "p50 pinned to 0" 0.0 a.A.hop_p50;
  Alcotest.(check int) "hop max" 0 a.A.hop_max;
  Alcotest.(check bool) "no progress points" true (a.A.progress = []);
  match (A.analyze ~n:10 []).A.log_log_n with
  | Some ll -> feq "log log n still reported" (Float.log (Float.log 10.0)) ll
  | None -> Alcotest.fail "log_log_n missing despite ~n"

(* The recorder is global state; reuse test_obs's discipline of saving
   and restoring capacity (set_capacity also clears the ring). *)
let with_clean_recorder f =
  if not E.enabled then ()
  else begin
    let cap = E.capacity () in
    Fun.protect
      ~finally:(fun () ->
        E.set_recording true;
        E.set_capacity cap)
      (fun () ->
        E.set_capacity 262_144;
        E.set_recording true;
        f ())
  end

let test_matches_workload () =
  (* The pinned convention: for pure greedy (no cutoff), dead_end events
     are exactly the dropped routes, so the analysis must reproduce
     Workload's aggregates from the event stream alone. *)
  with_clean_recorder (fun () ->
      let inst = Test_greedy.girg_instance ~seed:901 ~n:1500 ~c:0.2 () in
      let n = Sparse_graph.Graph.n inst.graph in
      let rng = Prng.Rng.create ~seed:77 in
      let pairs = Workload.sample_pairs_any ~rng ~n ~count:60 in
      let res =
        Workload.run ~graph:inst.graph
          ~objective_for:(fun ~target -> Greedy_routing.Objective.girg_phi inst ~target)
          ~protocol:Greedy_routing.Protocol.Greedy ~pairs ()
      in
      let a = A.analyze ~n (E.events ()) in
      Alcotest.(check int) "every pair left a route" res.Workload.attempted a.A.routes;
      Alcotest.(check int) "no ring truncation" 0 a.A.truncated;
      Alcotest.(check int) "completed = delivered" res.Workload.delivered a.A.completed;
      Alcotest.(check int) "dead ends agree" res.Workload.dead_end a.A.dead_ends;
      Alcotest.(check int) "greedy never hits the cutoff" 0 res.Workload.cutoff;
      feq "hop mean = mean_steps" (Workload.mean_steps res) a.A.hop_mean;
      feq "dead end rate = failure rate" (Workload.failure_rate res) a.A.dead_end_rate;
      Alcotest.(check bool) "0 < hop mean <= hop max" true
        (0.0 < a.A.hop_mean && a.A.hop_mean <= float_of_int a.A.hop_max);
      Alcotest.(check bool) "p50 <= p90 <= max" true
        (a.A.hop_p50 <= a.A.hop_p90 && a.A.hop_p90 <= float_of_int a.A.hop_max);
      (* The stream survives the smallworld.events.v1 file that
         `--events-out` writes and `obs_cli events analyze` reads: the
         report from the decoded lines is the same document. *)
      let buf = Buffer.create 4096 in
      List.iter
        (fun e -> Buffer.add_string buf (Obs.Export.event_line e ^ "\n"))
        (E.events ());
      let decoded =
        List.filter_map
          (fun line ->
            if line = "" then None
            else
              match Result.bind (Obs.Export.json_of_string line) Obs.Export.event_of_json with
              | Ok e -> Some e
              | Error m -> Alcotest.failf "event line does not decode: %s (%s)" line m)
          (String.split_on_char '\n' (Buffer.contents buf))
      in
      Alcotest.(check string) "analysis of the decoded file"
        (Obs.Export.json_to_string (A.to_json a))
        (Obs.Export.json_to_string (A.to_json (A.analyze ~n decoded)));
      (* Greedy objectives strictly improve along a walk, so the
         progress curve exists and starts at hop 0 with every route. *)
      match a.A.progress with
      | { A.hop = 0; routes; _ } :: _ ->
          Alcotest.(check int) "all routes pass hop 0" a.A.routes routes
      | _ -> Alcotest.fail "progress curve must start at hop 0")

let test_gravity_pressure_occupancy () =
  (* Every step of a gravity–pressure walk lands in exactly one phase,
     so for a phased route the occupancy sums to its hop count. *)
  with_clean_recorder (fun () ->
      let inst = Test_greedy.girg_instance ~seed:900 ~n:3000 ~c:0.08 () in
      let comps = Sparse_graph.Components.compute inst.graph in
      let giant = Sparse_graph.Components.giant_members comps in
      let rng = Prng.Rng.create ~seed:901 in
      let routed = ref 0 in
      for _ = 1 to 15 do
        let i, j = Prng.Dist.sample_distinct_pair rng ~n:(Array.length giant) in
        let objective = Greedy_routing.Objective.girg_phi inst ~target:giant.(j) in
        let r =
          Greedy_routing.Gravity_pressure.route ~graph:inst.graph ~objective
            ~source:giant.(i) ()
        in
        if not (Greedy_routing.Outcome.delivered r) then Alcotest.fail "GP failed in the giant";
        incr routed
      done;
      let a = A.analyze (E.events ()) in
      Alcotest.(check int) "one route per call" !routed a.A.routes;
      Alcotest.(check int) "all delivered" a.A.routes a.A.completed;
      Alcotest.(check bool) "phased subset" true (a.A.phased_routes <= a.A.routes);
      if a.A.switches > 0 then begin
        Alcotest.(check bool) "switches imply phased routes" true (a.A.phased_routes > 0);
        (* hops_gravity/_pressure sum steps (hop > 0) over phased routes
           only; recompute that bound from the raw events. *)
        let phased = Hashtbl.create 8 in
        List.iter
          (fun (e : E.event) ->
            match e.E.payload with
            | E.Phase_switch { route; _ } -> Hashtbl.replace phased route ()
            | _ -> ())
          (E.events ());
        let steps_of_phased =
          List.fold_left
            (fun acc (e : E.event) ->
              match e.E.payload with
              | E.Route_hop { route; hop; _ } when hop > 0 && Hashtbl.mem phased route ->
                  acc + 1
              | _ -> acc)
            0 (E.events ())
        in
        Alcotest.(check int) "occupancy accounts for every phased step" steps_of_phased
          (a.A.hops_gravity + a.A.hops_pressure)
      end)

let test_json_shape () =
  let a = A.analyze ~n:2048 (synthetic_stream ()) in
  let doc = A.to_json a in
  let get path =
    List.fold_left
      (fun acc key ->
        match Option.bind acc (Obs.Export.member key) with
        | Some j -> Some j
        | None -> Alcotest.failf "missing %s" (String.concat "." path))
      (Some doc) path
  in
  (match get [ "schema" ] with
  | Some (Obs.Export.Str s) -> Alcotest.(check string) "schema" A.schema_version s
  | _ -> Alcotest.fail "schema not a string");
  (match get [ "hops"; "mean" ] with
  | Some (Obs.Export.Float m) -> feq "hops.mean" 3.0 m
  | _ -> Alcotest.fail "hops.mean not a float");
  (match get [ "hops"; "mean_over_log_log_n" ] with
  | Some (Obs.Export.Float r) -> feq "mean/loglog" (3.0 /. Float.log (Float.log 2048.0)) r
  | _ -> Alcotest.fail "hops.mean_over_log_log_n not a float");
  (match get [ "phases"; "pressure_share" ] with
  | Some (Obs.Export.Float s) -> feq "pressure share" 0.5 s
  | _ -> Alcotest.fail "phases.pressure_share not a float");
  (match get [ "patching"; "entry_rate" ] with
  | Some (Obs.Export.Float r) -> feq "patch entry rate" 0.2 r
  | _ -> Alcotest.fail "patching.entry_rate not a float");
  (* Non-finite aggregates must serialise as null, and the whole
     document must survive the repo's own JSON round trip. *)
  let empty = A.to_json (A.analyze []) in
  (match Option.bind (Obs.Export.member "hops" empty) (Obs.Export.member "mean") with
  | Some Obs.Export.Null -> ()
  | _ -> Alcotest.fail "nan mean must be null");
  match Obs.Export.json_of_string (Obs.Export.json_to_string doc) with
  | Ok reparsed ->
      Alcotest.(check string) "round trip" (Obs.Export.json_to_string doc)
        (Obs.Export.json_to_string reparsed)
  | Error e -> Alcotest.failf "analysis document does not reparse: %s" e

let test_render_shape () =
  let a = A.analyze ~n:2048 (synthetic_stream ()) in
  let text = A.render a in
  let contains sub =
    let n = String.length sub and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun sub -> if not (contains sub) then Alcotest.failf "render missing %S" sub)
    [
      "routes            5 (1 truncated by ring overwrite)";
      "dead ends       1";
      "log log n";
      "phases            2 switches over 1 routes";
      "gravity 2 hops, pressure 2 hops";
      "patching          1 enters / 1 exits, 1 routes";
      "per-hop objective progress:";
    ];
  (* The empty report renders without the optional sections. *)
  let empty = A.render (A.analyze []) in
  Alcotest.(check bool) "no phase section when quiet" false
    (let sub = "phases" in
     let n = String.length sub and m = String.length empty in
     let rec go i = i + n <= m && (String.sub empty i n = sub || go (i + 1)) in
     go 0)

let suite =
  [
    Alcotest.test_case "synthetic: counts and hop stats" `Quick test_synthetic_counts;
    Alcotest.test_case "synthetic: progress curve" `Quick test_synthetic_progress;
    Alcotest.test_case "progress ignores non-finite objectives" `Quick
      test_progress_ignores_nonfinite_objectives;
    Alcotest.test_case "synthetic: phases and patches" `Quick test_synthetic_phases_and_patches;
    Alcotest.test_case "empty stream" `Quick test_empty_stream;
    Alcotest.test_case "greedy workload consistency" `Quick test_matches_workload;
    Alcotest.test_case "gravity-pressure occupancy" `Quick test_gravity_pressure_occupancy;
    Alcotest.test_case "analysis.v1 json shape" `Quick test_json_shape;
    Alcotest.test_case "rendered table shape" `Quick test_render_shape;
  ]
