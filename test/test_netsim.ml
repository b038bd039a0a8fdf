(* The discrete-event substrate and the distributed protocol equivalences:
   the distributed implementations must produce byte-identical walks to the
   centralised ones. *)

let test_event_queue_order () =
  let q = Netsim.Event_queue.create () in
  List.iter (fun (t, x) -> Netsim.Event_queue.push q ~time:t x)
    [ (3.0, "c"); (1.0, "a"); (2.0, "b"); (0.5, "z") ];
  let rec drain acc =
    match Netsim.Event_queue.pop q with
    | None -> List.rev acc
    | Some (_, x) -> drain (x :: acc)
  in
  Alcotest.(check (list string)) "time order" [ "z"; "a"; "b"; "c" ] (drain [])

let test_event_queue_fifo_ties () =
  let q = Netsim.Event_queue.create () in
  List.iter (fun x -> Netsim.Event_queue.push q ~time:1.0 x) [ 1; 2; 3; 4; 5 ];
  let rec drain acc =
    match Netsim.Event_queue.pop q with
    | None -> List.rev acc
    | Some (_, x) -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "FIFO among ties" [ 1; 2; 3; 4; 5 ] (drain [])

let test_event_queue_validation () =
  let q = Netsim.Event_queue.create () in
  Alcotest.check_raises "negative time"
    (Invalid_argument "Event_queue.push: time must be a non-negative number") (fun () ->
      Netsim.Event_queue.push q ~time:(-1.0) ())

let test_event_queue_random_order () =
  let rng = Prng.Rng.create ~seed:3 in
  let q = Netsim.Event_queue.create () in
  let times = Array.init 500 (fun _ -> Prng.Rng.float rng 100.0) in
  Array.iter (fun t -> Netsim.Event_queue.push q ~time:t ()) times;
  let rec drain last =
    match Netsim.Event_queue.pop q with
    | None -> ()
    | Some (t, ()) ->
        if t < last then Alcotest.fail "times not monotone";
        drain t
  in
  drain neg_infinity

let test_sim_ping_pong () =
  (* Two nodes volley a counter until it reaches 5, then halt. *)
  let log = ref [] in
  let handler (api : int Netsim.Sim.api) ~src:_ k =
    log := (api.Netsim.Sim.self, k, api.Netsim.Sim.now) :: !log;
    if k >= 5 then api.Netsim.Sim.halt ()
    else api.Netsim.Sim.send ~dst:(1 - api.Netsim.Sim.self) (k + 1)
  in
  let sim = Netsim.Sim.create ~n:2 ~handler () in
  Netsim.Sim.inject sim ~dst:0 0;
  let stats = Netsim.Sim.run sim in
  Alcotest.(check int) "deliveries" 6 stats.Netsim.Sim.deliveries;
  Alcotest.(check int) "sends" 5 stats.Netsim.Sim.sends;
  Alcotest.(check bool) "halted" true stats.Netsim.Sim.halted;
  Alcotest.(check bool) "not truncated" false stats.Netsim.Sim.truncated;
  Alcotest.(check (float 1e-9)) "unit latency accumulates" 5.0 stats.Netsim.Sim.final_time;
  let selves = List.rev_map (fun (s, _, _) -> s) !log in
  Alcotest.(check (list int)) "alternating nodes" [ 0; 1; 0; 1; 0; 1 ] selves

let test_sim_latency_model () =
  let handler (api : int Netsim.Sim.api) ~src:_ k =
    if k < 3 then api.Netsim.Sim.send ~dst:0 (k + 1)
  in
  let sim = Netsim.Sim.create ~n:1 ~latency:(fun ~src:_ ~dst:_ -> 2.5) ~handler () in
  Netsim.Sim.inject sim ~dst:0 0;
  let stats = Netsim.Sim.run sim in
  Alcotest.(check (float 1e-9)) "3 hops at 2.5" 7.5 stats.Netsim.Sim.final_time

let test_sim_max_deliveries () =
  let handler (api : unit Netsim.Sim.api) ~src:_ () = api.Netsim.Sim.send ~dst:0 () in
  let sim = Netsim.Sim.create ~n:1 ~handler () in
  Netsim.Sim.inject sim ~dst:0 ();
  let stats = Netsim.Sim.run ~max_deliveries:100 sim in
  Alcotest.(check int) "capped" 100 stats.Netsim.Sim.deliveries;
  Alcotest.(check bool) "not halted" false stats.Netsim.Sim.halted;
  Alcotest.(check bool) "reported as truncated" true stats.Netsim.Sim.truncated

let test_local_view_matches_graph () =
  let inst = Test_greedy.girg_instance ~seed:2110 ~n:800 ~c:0.2 () in
  let config = Netsim.Local_view.config inst in
  for v = 0 to Sparse_graph.Graph.n inst.graph - 1 do
    let view = Netsim.Local_view.view config inst v in
    Alcotest.(check int) "self id" v view.Netsim.Local_view.self.Netsim.Local_view.id;
    Alcotest.(check (array int)) "neighbour ids"
      (Sparse_graph.Graph.neighbors inst.graph v)
      (Array.map (fun a -> a.Netsim.Local_view.id) view.Netsim.Local_view.neighbors)
  done

let test_local_phi_matches_objective () =
  let inst = Test_greedy.girg_instance ~seed:2111 ~n:500 ~c:0.2 () in
  let config = Netsim.Local_view.config inst in
  let target = 17 in
  let objective = Greedy_routing.Objective.girg_phi inst ~target in
  let tgt = Netsim.Local_view.address inst target in
  for v = 0 to Sparse_graph.Graph.n inst.graph - 1 do
    let view = Netsim.Local_view.view config inst v in
    let local = Netsim.Local_view.phi view view.Netsim.Local_view.self ~target:tgt in
    let central = objective.Greedy_routing.Objective.score v in
    if Float.is_finite central then begin
      if abs_float (local -. central) > 1e-12 *. Float.max 1.0 (abs_float central) then
        Alcotest.failf "phi mismatch at %d: %g vs %g" v local central
    end
    else if local <> infinity then Alcotest.fail "target phi must be infinite"
  done

let test_dist_greedy_equivalence () =
  let inst = Test_greedy.girg_instance ~seed:2112 ~n:3000 ~c:0.15 () in
  let rng = Prng.Rng.create ~seed:4 in
  for _ = 1 to 80 do
    let s, t = Prng.Dist.sample_distinct_pair rng ~n:(Sparse_graph.Graph.n inst.graph) in
    let objective = Greedy_routing.Objective.girg_phi inst ~target:t in
    let central = Greedy_routing.Greedy.route ~graph:inst.graph ~objective ~source:s () in
    let distributed, stats = Netsim.Dist_greedy.run ~inst ~source:s ~target:t () in
    Alcotest.(check (list int)) "same walk" central.Greedy_routing.Outcome.walk
      distributed.Greedy_routing.Outcome.walk;
    Alcotest.(check bool) "same status" true
      (central.Greedy_routing.Outcome.status = distributed.Greedy_routing.Outcome.status);
    Alcotest.(check int) "messages = steps" distributed.Greedy_routing.Outcome.steps
      stats.Netsim.Sim.sends
  done

let test_dist_dfs_equivalence () =
  (* Sparse graphs so the walk exercises bounces, resets and backtracks. *)
  let inst = Test_greedy.girg_instance ~seed:2113 ~n:3000 ~c:0.07 () in
  let rng = Prng.Rng.create ~seed:5 in
  for _ = 1 to 60 do
    let s, t = Prng.Dist.sample_distinct_pair rng ~n:(Sparse_graph.Graph.n inst.graph) in
    let objective = Greedy_routing.Objective.girg_phi inst ~target:t in
    let central = Greedy_routing.Patch_dfs.route ~graph:inst.graph ~objective ~source:s () in
    let distributed, _ = Netsim.Dist_dfs.run ~inst ~source:s ~target:t () in
    Alcotest.(check bool) "same status" true
      (central.Greedy_routing.Outcome.status = distributed.Greedy_routing.Outcome.status);
    Alcotest.(check int) "same steps" central.Greedy_routing.Outcome.steps
      distributed.Greedy_routing.Outcome.steps;
    Alcotest.(check (list int)) "same walk" central.Greedy_routing.Outcome.walk
      distributed.Greedy_routing.Outcome.walk
  done

(* Both distributed routers against their centralised counterparts under
   every norm, in two and three dimensions: a node's phi must be the
   instance's, not the L-infinity default's. *)
let test_dist_equivalence_per_norm () =
  List.iter
    (fun (norm, dim) ->
      let params = Girg.Params.make ~dim ~norm ~beta:2.5 ~c:0.3 ~n:2000 () in
      let inst = Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:2115) params in
      let rng = Prng.Rng.create ~seed:8 in
      for _ = 1 to 40 do
        let s, t = Prng.Dist.sample_distinct_pair rng ~n:(Sparse_graph.Graph.n inst.graph) in
        let objective = Greedy_routing.Objective.girg_phi inst ~target:t in
        let label = Printf.sprintf "%s d=%d %d->%d" (Girg.Params.norm_to_string norm) dim s t in
        let same what (central : Greedy_routing.Outcome.t)
            (distributed : Greedy_routing.Outcome.t) =
          Alcotest.(check (list int)) (label ^ " " ^ what ^ " walk") central.walk distributed.walk;
          Alcotest.(check bool) (label ^ " " ^ what ^ " status") true
            (central.status = distributed.status);
          Alcotest.(check int) (label ^ " " ^ what ^ " steps") central.steps distributed.steps
        in
        same "greedy"
          (Greedy_routing.Greedy.route ~graph:inst.graph ~objective ~source:s ())
          (fst (Netsim.Dist_greedy.run ~inst ~source:s ~target:t ()));
        same "phi-dfs"
          (Greedy_routing.Patch_dfs.route ~graph:inst.graph ~objective ~source:s ())
          (fst (Netsim.Dist_dfs.run ~inst ~source:s ~target:t ()))
      done)
    Geometry.Torus.[ (Linf, 2); (L2, 2); (L1, 2); (Linf, 3); (L2, 3); (L1, 3) ]

let test_dist_dfs_equivalence_random_graphs () =
  (* Tiny adversarial graphs, including cross-component pairs. *)
  let rng = Prng.Rng.create ~seed:6 in
  for trial = 1 to 60 do
    let count = 3 + Prng.Rng.int rng 10 in
    let params = Girg.Params.make ~dim:2 ~beta:2.5 ~c:0.3 ~n:count ~poisson_count:false () in
    let weights = Girg.Instance.sample_weights ~rng ~params ~count in
    let positions = Girg.Instance.sample_positions ~rng ~params ~count in
    let inst = Girg.Instance.generate_with ~rng ~params ~weights ~positions () in
    let s = Prng.Rng.int rng count and t = Prng.Rng.int rng count in
    if s <> t then begin
      let objective = Greedy_routing.Objective.girg_phi inst ~target:t in
      let central = Greedy_routing.Patch_dfs.route ~graph:inst.graph ~objective ~source:s () in
      let distributed, _ = Netsim.Dist_dfs.run ~inst ~source:s ~target:t () in
      Alcotest.(check (list int))
        (Printf.sprintf "trial %d walk" trial)
        central.Greedy_routing.Outcome.walk distributed.Greedy_routing.Outcome.walk
    end
  done

let test_dist_greedy_latency_is_hop_sum () =
  let inst = Test_greedy.girg_instance ~seed:2114 ~n:1000 ~c:0.25 () in
  let rng = Prng.Rng.create ~seed:7 in
  let s, t = Prng.Dist.sample_distinct_pair rng ~n:(Sparse_graph.Graph.n inst.graph) in
  let outcome, stats =
    Netsim.Dist_greedy.run ~inst ~source:s ~target:t
      ~latency:(fun ~src ~dst -> 0.001 *. float_of_int (src + dst + 1))
      ()
  in
  (* Final time = sum of the walk's link latencies. *)
  let rec link_sum acc = function
    | a :: (b :: _ as rest) -> link_sum (acc +. (0.001 *. float_of_int (a + b + 1))) rest
    | [ _ ] | [] -> acc
  in
  Alcotest.(check (float 1e-9)) "time = sum of latencies"
    (link_sum 0.0 outcome.Greedy_routing.Outcome.walk)
    stats.Netsim.Sim.final_time

(* --- causal tracing ------------------------------------------------- *)

(* Run [f] with the flight recorder armed and cleared; skip when the obs
   layer is compiled out (SMALLWORLD_OBS=0). *)
let with_recorder f =
  if not Obs.Events.enabled then ()
  else begin
    let was = Obs.Events.recording () in
    Obs.Events.set_recording true;
    Obs.Events.clear ();
    Fun.protect ~finally:(fun () -> Obs.Events.set_recording was) f
  end

(* The lineage of one simulation, read straight off the event list:
   every send as (msg, parent, kind) in send order, and every delivery
   as (msg, dst) in delivery order. *)
let sends ~trace events =
  List.filter_map
    (fun (e : Obs.Events.event) ->
      match e.payload with
      | Obs.Events.Msg_send { trace = t; msg; parent; kind; _ } when t = trace ->
          Some (msg, parent, kind)
      | _ -> None)
    events

let deliveries ~trace events =
  List.filter_map
    (fun (e : Obs.Events.event) ->
      match e.payload with
      | Obs.Events.Msg_recv { trace = t; msg; dst; _ } when t = trace -> Some (msg, dst)
      | _ -> None)
    events

let walk ~trace events = List.map snd (deliveries ~trace events)

(* Token passing forms one chain: the first send is an injected root
   (parent -1) and each later send's parent is the previous message. *)
let is_chain sends =
  sends <> []
  && fst
       (List.fold_left
          (fun (ok, prev) (msg, parent, _) -> (ok && parent = prev, msg))
          (true, -1) sends)

let trace_ids events =
  List.sort_uniq compare
    (List.filter_map
       (fun (e : Obs.Events.event) ->
         match e.payload with Obs.Events.Msg_send { trace; _ } -> Some trace | _ -> None)
       events)

let sole_trace events =
  match trace_ids events with
  | [ tid ] -> tid
  | ids -> Alcotest.failf "expected one trace, got %d" (List.length ids)

let test_causal_ping_pong_chain () =
  with_recorder (fun () ->
      let handler (api : int Netsim.Sim.api) ~src:_ k =
        if k >= 5 then api.Netsim.Sim.halt ()
        else api.Netsim.Sim.send ~dst:(1 - api.Netsim.Sim.self) (k + 1)
      in
      let sim = Netsim.Sim.create ~n:2 ~msg_label:(fun _ -> "ping") ~handler () in
      Netsim.Sim.inject sim ~dst:0 0;
      ignore (Netsim.Sim.run sim);
      let events = Obs.Events.events () in
      let trace = sole_trace events in
      Alcotest.(check int) "sim trace id" (Netsim.Sim.trace_id sim) trace;
      let sent = sends ~trace events in
      Alcotest.(check bool) "token passing is a chain" true (is_chain sent);
      Alcotest.(check int) "one send per message" 6 (List.length sent);
      Alcotest.(check bool) "kind from msg_label" true
        (List.for_all (fun (_, _, kind) -> kind = "ping") sent);
      Alcotest.(check (list int)) "delivery walk" [ 0; 1; 0; 1; 0; 1 ] (walk ~trace events))

let test_causal_fanout_tree () =
  with_recorder (fun () ->
      (* Node 0 fans out to 1..3; each leaf acks back.  The root has three
         children, each with one child. *)
      let handler (api : string Netsim.Sim.api) ~src:_ = function
        | "start" ->
            for dst = 1 to 3 do
              api.Netsim.Sim.send ~dst "work"
            done
        | "work" -> api.Netsim.Sim.send ~dst:0 "ack"
        | _ -> ()
      in
      let sim = Netsim.Sim.create ~n:4 ~msg_label:Fun.id ~handler () in
      Netsim.Sim.inject sim ~dst:0 "start";
      ignore (Netsim.Sim.run sim);
      let events = Obs.Events.events () in
      let trace = Netsim.Sim.trace_id sim in
      let sent = sends ~trace events in
      Alcotest.(check bool) "fan-out is not a chain" false (is_chain sent);
      Alcotest.(check int) "seven messages" 7 (List.length sent);
      let children parent = List.filter (fun (_, p, _) -> p = parent) sent in
      match children (-1) with
      | [ (root, _, "start") ] ->
          let work = children root in
          Alcotest.(check int) "the root has three children" 3 (List.length work);
          let delivered = List.map fst (deliveries ~trace events) in
          List.iter
            (fun (msg, _, kind) ->
              Alcotest.(check string) "middle layer" "work" kind;
              Alcotest.(check bool) "delivered" true (List.mem msg delivered);
              match children msg with
              | [ (_, _, "ack") ] -> ()
              | _ -> Alcotest.fail "each work message sends one ack")
            work
      | _ -> Alcotest.fail "expected a single injected start message")

let test_causal_undelivered_leaf () =
  with_recorder (fun () ->
      (* Every delivery sends one more message; capping deliveries leaves
         the last send in flight: recorded, but never received. *)
      let handler (api : unit Netsim.Sim.api) ~src:_ () = api.Netsim.Sim.send ~dst:0 () in
      let sim = Netsim.Sim.create ~n:1 ~handler () in
      Netsim.Sim.inject sim ~dst:0 ();
      let stats = Netsim.Sim.run ~max_deliveries:4 sim in
      Alcotest.(check bool) "truncated" true stats.Netsim.Sim.truncated;
      let events = Obs.Events.events () in
      let trace = Netsim.Sim.trace_id sim in
      let sent = sends ~trace events in
      Alcotest.(check int) "5 sends recorded" 5 (List.length sent);
      Alcotest.(check bool) "still one chain" true (is_chain sent);
      let delivered = List.map fst (deliveries ~trace events) in
      Alcotest.(check int) "exactly the in-flight one undelivered" 1
        (List.length (List.filter (fun (msg, _, _) -> not (List.mem msg delivered)) sent));
      Alcotest.(check (list int)) "walk stops at the truncation" [ 0; 0; 0; 0 ]
        (walk ~trace events))

let test_causal_traces_are_separated () =
  with_recorder (fun () ->
      (* Two interleaved-in-the-log simulations keep distinct trace ids. *)
      let mk () =
        let handler (api : int Netsim.Sim.api) ~src:_ k =
          if k < 2 then api.Netsim.Sim.send ~dst:0 (k + 1)
        in
        Netsim.Sim.create ~n:1 ~handler ()
      in
      let a = mk () and b = mk () in
      Netsim.Sim.inject a ~dst:0 0;
      Netsim.Sim.inject b ~dst:0 0;
      ignore (Netsim.Sim.run a);
      ignore (Netsim.Sim.run b);
      let events = Obs.Events.events () in
      let ids = trace_ids events in
      Alcotest.(check (list int)) "both traces present"
        (List.sort compare [ Netsim.Sim.trace_id a; Netsim.Sim.trace_id b ])
        ids;
      List.iter
        (fun trace ->
          Alcotest.(check bool) "each trace is its own chain" true
            (is_chain (sends ~trace events));
          Alcotest.(check (list int)) "three deliveries each" [ 0; 0; 0 ] (walk ~trace events))
        ids)

let test_causal_greedy_walk_matches_sequential () =
  with_recorder (fun () ->
      let inst = Test_greedy.girg_instance ~seed:2115 ~n:2000 ~c:0.2 () in
      let rng = Prng.Rng.create ~seed:8 in
      for _ = 1 to 20 do
        let s, t = Prng.Dist.sample_distinct_pair rng ~n:(Sparse_graph.Graph.n inst.graph) in
        Obs.Events.clear ();
        let distributed, _ = Netsim.Dist_greedy.run ~inst ~source:s ~target:t () in
        let events = Obs.Events.events () in
        let trace = sole_trace events in
        Alcotest.(check bool) "greedy trace is a chain" true (is_chain (sends ~trace events));
        (* The delivery sequence of the chain IS the sequential walk. *)
        let objective = Greedy_routing.Objective.girg_phi inst ~target:t in
        let central = Greedy_routing.Greedy.route ~graph:inst.graph ~objective ~source:s () in
        Alcotest.(check (list int)) "causal walk = sequential walk"
          central.Greedy_routing.Outcome.walk (walk ~trace events);
        Alcotest.(check (list int)) "causal walk = distributed walk"
          distributed.Greedy_routing.Outcome.walk (walk ~trace events)
      done)

let test_causal_dfs_walk_matches_sequential () =
  with_recorder (fun () ->
      (* Sparse enough that Φ-DFS actually backtracks. *)
      let inst = Test_greedy.girg_instance ~seed:2116 ~n:2000 ~c:0.07 () in
      let rng = Prng.Rng.create ~seed:9 in
      for _ = 1 to 15 do
        let s, t = Prng.Dist.sample_distinct_pair rng ~n:(Sparse_graph.Graph.n inst.graph) in
        Obs.Events.clear ();
        ignore (Netsim.Dist_dfs.run ~inst ~source:s ~target:t ());
        let events = Obs.Events.events () in
        let trace = sole_trace events in
        Alcotest.(check bool) "dfs trace is a chain" true (is_chain (sends ~trace events));
        let objective = Greedy_routing.Objective.girg_phi inst ~target:t in
        let central = Greedy_routing.Patch_dfs.route ~graph:inst.graph ~objective ~source:s () in
        Alcotest.(check (list int)) "causal walk = sequential Φ-DFS walk"
          central.Greedy_routing.Outcome.walk (walk ~trace events)
      done)

let suite =
  [
    Alcotest.test_case "event queue order" `Quick test_event_queue_order;
    Alcotest.test_case "event queue FIFO ties" `Quick test_event_queue_fifo_ties;
    Alcotest.test_case "event queue validation" `Quick test_event_queue_validation;
    Alcotest.test_case "event queue random order" `Quick test_event_queue_random_order;
    Alcotest.test_case "sim ping-pong" `Quick test_sim_ping_pong;
    Alcotest.test_case "sim latency model" `Quick test_sim_latency_model;
    Alcotest.test_case "sim max deliveries" `Quick test_sim_max_deliveries;
    Alcotest.test_case "local view matches graph" `Quick test_local_view_matches_graph;
    Alcotest.test_case "local phi matches objective" `Quick test_local_phi_matches_objective;
    Alcotest.test_case "distributed greedy = centralised" `Quick test_dist_greedy_equivalence;
    Alcotest.test_case "distributed phi-dfs = centralised" `Quick test_dist_dfs_equivalence;
    Alcotest.test_case "phi-dfs equivalence on random graphs" `Quick
      test_dist_dfs_equivalence_random_graphs;
    Alcotest.test_case "distributed = centralised under every norm" `Quick
      test_dist_equivalence_per_norm;
    Alcotest.test_case "latency accumulates over hops" `Quick test_dist_greedy_latency_is_hop_sum;
    Alcotest.test_case "causal: ping-pong chain" `Quick test_causal_ping_pong_chain;
    Alcotest.test_case "causal: fan-out tree" `Quick test_causal_fanout_tree;
    Alcotest.test_case "causal: undelivered leaf" `Quick test_causal_undelivered_leaf;
    Alcotest.test_case "causal: traces separated" `Quick test_causal_traces_are_separated;
    Alcotest.test_case "causal greedy walk = sequential" `Quick
      test_causal_greedy_walk_matches_sequential;
    Alcotest.test_case "causal Φ-DFS walk = sequential" `Quick
      test_causal_dfs_walk_matches_sequential;
  ]
