module V1 = Api.V1
module Error = Api.Error
module Graph = Sparse_graph.Graph

(* Stage and per-op latency histograms are registered by wire op name
   with '-' mapped to '_' so the Prometheus rendering stays a valid
   metric name.  The inventory is read off the V1 op table, so a new op
   gets its latency histogram without touching this module. *)
let all_ops = V1.op_names

let metric_op_suffix op = String.map (fun c -> if c = '-' then '_' else c) op

type t = {
  reg : Registry.t;
  cache : Cache.t;
  compute : Mutex.t;
  max_batch : int;
  drain_flag : bool Atomic.t;
  t_start : float;
  next_id : int Atomic.t;
  c_inflight : int Atomic.t;
  (* Authoritative queue depth comes from the transport (the daemon
     owns the connection queue); defaults to 0 when embedded without
     one.  Set once before serving starts. *)
  mutable queue_depth_source : unit -> int;
  (* This server's own registry, live whatever SMALLWORLD_OBS says:
     the one cell of every server.* counter and state gauge. *)
  metrics : Obs.Metrics.registry;
  accepted : Obs.Metrics.counter;
  served : Obs.Metrics.counter;
  rejected : Obs.Metrics.counter;
  deadline_missed : Obs.Metrics.counter;
  (* Process-wide histograms in Obs.Metrics.default, on the kill
     switch. *)
  h_queue_wait : Obs.Metrics.histogram;
  h_compute : Obs.Metrics.histogram;
  h_render : Obs.Metrics.histogram;
  h_write : Obs.Metrics.histogram;
  h_mutex_wait : Obs.Metrics.histogram;
  h_ops : (string * Obs.Metrics.histogram) list;
  (* Per-request allocation and collections around the compute stage
     (taken by the daemon, obs-on only). *)
  h_gc_alloc : Obs.Metrics.histogram;
  h_gc_coll : Obs.Metrics.histogram;
}

let create ?(registry_cap = 8) ?(max_batch = 4096) ?(cache_cap = 4096) () =
  let metrics = Obs.Metrics.create () in
  let counter name = Obs.Metrics.counter ~registry:metrics name in
  {
    reg = Registry.create ~cap:registry_cap;
    cache = Cache.create ~metrics ~cap:cache_cap;
    compute = Mutex.create ();
    max_batch;
    drain_flag = Atomic.make false;
    t_start = Unix.gettimeofday ();
    next_id = Atomic.make 1;
    c_inflight = Atomic.make 0;
    queue_depth_source = (fun () -> 0);
    metrics;
    accepted = counter "server.accepted";
    served = counter "server.served";
    rejected = counter "server.rejected";
    deadline_missed = counter "server.deadline_missed";
    h_queue_wait = Obs.Metrics.histogram "server.stage.queue_wait";
    h_compute = Obs.Metrics.histogram "server.stage.compute";
    h_render = Obs.Metrics.histogram "server.stage.render";
    h_write = Obs.Metrics.histogram "server.stage.write";
    h_mutex_wait = Obs.Metrics.histogram "server.compute.mutex_wait";
    h_ops =
      List.map
        (fun op ->
          (op, Obs.Metrics.histogram ("server.latency." ^ metric_op_suffix op)))
        all_ops;
    h_gc_alloc = Obs.Metrics.histogram "server.gc.compute.alloc_bytes";
    h_gc_coll = Obs.Metrics.histogram "server.gc.compute.collections";
  }

let registry t = t.reg
let cache t = t.cache
let draining t = Atomic.get t.drain_flag
let start_drain t = Atomic.set t.drain_flag true

let accepted t = Obs.Metrics.counter_value t.accepted
let served t = Obs.Metrics.counter_value t.served
let rejected t = Obs.Metrics.counter_value t.rejected
let deadline_missed t = Obs.Metrics.counter_value t.deadline_missed
let note_accepted t = Obs.Metrics.incr t.accepted
let note_rejected t = Obs.Metrics.incr t.rejected
let note_served t = Obs.Metrics.incr t.served
let note_deadline t = Obs.Metrics.incr t.deadline_missed

let next_request_id t = Atomic.fetch_and_add t.next_id 1
let inflight t = Atomic.get t.c_inflight
let begin_request t = Atomic.incr t.c_inflight
let end_request t = Atomic.decr t.c_inflight
let set_queue_depth_source t f = t.queue_depth_source <- f
let note_queue_wait t dt = Obs.Metrics.observe t.h_queue_wait dt

let observe_stages t ?op ~compute ~render ~write () =
  Obs.Metrics.observe t.h_compute compute;
  Obs.Metrics.observe t.h_render render;
  Obs.Metrics.observe t.h_write write;
  match op with
  | None -> ()
  | Some op -> (
      match List.assoc_opt op t.h_ops with
      | Some h -> Obs.Metrics.observe h (compute +. render +. write)
      | None -> ())

(* Stage-labelled allocation and GC deltas for one request's compute
   stage.  The daemon only calls this when [Obs.Metrics.enabled] — the
   reads themselves live behind that guard, so SMALLWORLD_OBS=0 keeps its
   zero-GC-read contract. *)
let observe_gc t ~alloc_bytes ~collections =
  Obs.Metrics.observe t.h_gc_alloc alloc_bytes;
  Obs.Metrics.observe t.h_gc_coll (float_of_int collections)

(* The one read path of the server's telemetry: the registry's
   counters plus the state gauges read from their owners, in name
   order.  The gauges are never stored, so concurrent snapshots cannot
   see each other's reads. *)
let snapshot t =
  let gauges =
    List.map
      (fun (name, v) -> (name, Obs.Metrics.Gauge_v (float_of_int v)))
      [
        ("server.queue_depth", t.queue_depth_source ());
        ("server.inflight", inflight t);
        ("server.registry.size", Registry.size t.reg);
        ("server.registry.pinned", Registry.pinned t.reg);
        ("server.registry.orphaned", Registry.orphaned t.reg);
        ("server.registry.cap", Registry.cap t.reg);
        ("server.cache.size", Cache.size t.cache);
        ("server.cache.cap", Cache.cap t.cache);
      ]
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) (gauges @ Obs.Metrics.snapshot t.metrics)

let counters_of snap =
  List.filter_map (function name, Obs.Metrics.Counter_v n -> Some (name, n) | _ -> None) snap

let counter_pairs t = counters_of (Obs.Metrics.snapshot t.metrics)

let prometheus_of snap =
  Obs.Export.prometheus_of_snapshot snap ^ Obs.Export.prometheus Obs.Metrics.default

let prometheus t = prometheus_of (snapshot t)

let health t =
  { V1.draining = draining t; instances = Registry.names t.reg; counters = counter_pairs t }

(* The compute mutex, with the wait to take it recorded into
   [server.compute.mutex_wait]; the clock reads happen only with obs
   on. *)
let locked t f =
  if Obs.Metrics.enabled then begin
    let t0 = Unix.gettimeofday () in
    Mutex.lock t.compute;
    Obs.Metrics.observe t.h_mutex_wait (Unix.gettimeofday () -. t0)
  end
  else Mutex.lock t.compute;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.compute) f

let with_instance t name f =
  match Registry.acquire t.reg name with
  | Error e -> V1.Failed e
  | Ok handle ->
      Fun.protect ~finally:(fun () -> Registry.release t.reg handle) (fun () -> f handle)

(* Read the version of [name] registered now, apply [ops_of]'s script
   to it, and register the result, all under the compute mutex.  Two
   writers of one name therefore serialise: each builds on the version
   the other registered, and no insert discards another's ops.  The
   insert bumps the name's generation, so every cached route keyed on
   the old generation is dead by key construction; the sweep just
   reclaims the slots eagerly.  Returns the new version and the
   generation it was registered at. *)
let mutate_registered t name ~seed ops_of =
  locked t (fun () ->
      match Registry.acquire t.reg name with
      | Error e -> Error e
      | Ok handle ->
          Fun.protect ~finally:(fun () -> Registry.release t.reg handle) (fun () ->
              let inst = Registry.instance handle in
              match ops_of inst with
              | Error e -> Error e
              | Ok ops -> (
                  let mutated = Girg.Mutate.apply ~seed inst ops in
                  match Registry.insert t.reg ~name mutated with
                  | Error e -> Error e
                  | Ok _info ->
                      Cache.invalidate_name t.cache ~name;
                      Ok (mutated, Registry.generation t.reg name))))

(* [>=], not [>]: the deadline instant itself is expired, so a
   [deadline_ms = 0] request deterministically misses even when both
   clock reads land on the same microsecond tick. *)
let expired ?deadline () =
  match deadline with Some d -> Unix.gettimeofday () >= d | None -> false

let deadline_error =
  Error.make Error.Deadline "deadline expired before the request completed"

let stage_names =
  [ "stage.queue_wait"; "stage.compute"; "stage.render"; "stage.write";
    "compute.mutex_wait" ]
  @ List.map (fun op -> "latency." ^ metric_op_suffix op) all_ops

(* Assembled without the compute mutex, so a scrape answers even while
   a long batch holds it.  Counters and gauges come from the server's
   own registry (real numbers under SMALLWORLD_OBS=0 too); stage
   quantiles come from the Obs.Hist-backed histograms, which are
   zeroed no-op stubs when obs is off — [obs_live] tells the client
   which regime it is reading. *)
let server_stats t =
  let snap = snapshot t in
  let stages =
    List.filter_map
      (fun stage ->
        match Obs.Metrics.find_value Obs.Metrics.default ("server." ^ stage) with
        | Some (Obs.Metrics.Histogram_v snap) ->
            let q p = Obs.Metrics.hist_quantile snap p in
            Some
              {
                V1.stage;
                s_count = snap.Obs.Metrics.count;
                p50 = q 0.5;
                p90 = q 0.9;
                p99 = q 0.99;
                p999 = q 0.999;
                s_max = (if snap.Obs.Metrics.count = 0 then 0.0 else snap.Obs.Metrics.max);
              }
        | _ -> None)
      stage_names
  in
  {
    V1.uptime_s = Unix.gettimeofday () -. t.t_start;
    s_draining = draining t;
    obs_live = Obs.Metrics.enabled;
    s_counters = counters_of snap;
    gauges =
      List.filter_map (function name, Obs.Metrics.Gauge_v x -> Some (name, x) | _ -> None) snap
      @ List.map
          (fun (name, gen) ->
            ("server.registry.gen." ^ name, float_of_int gen))
          (Registry.generations t.reg);
    stages;
    prometheus = prometheus_of snap;
  }

let run t ?deadline request =
  (* Checkpoint the deadline at request start and again right before
     compute-heavy stages; between checkpoints work is not interrupted,
     so replies stay deterministic. *)
  if expired ?deadline () then begin
    note_deadline t;
    V1.Failed deadline_error
  end
  else
    match request with
    | V1.Load { name; path } -> (
        match Girg.Store.load ~path with
        | Error e ->
            V1.Failed (Error.make Error.Io "cannot load %s: %s" path e)
        | Ok inst -> (
            match Registry.insert t.reg ~name inst with
            | Error e -> V1.Failed e
            | Ok info ->
                Cache.invalidate_name t.cache ~name;
                V1.Loaded info))
    | V1.Sample { name; model; seed } -> (
        let inst = locked t (fun () -> Api.Render.instantiate ~model ~seed) in
        match Registry.insert t.reg ~name inst with
        | Error e -> V1.Failed e
        | Ok info ->
            Cache.invalidate_name t.cache ~name;
            V1.Sampled info)
    | V1.Route { instance; source; target; protocol; max_steps } ->
        let route h =
          match
            Api.Render.route ~inst:(Registry.instance h) ~protocol ?max_steps
              ~source ~target ()
          with
          | Error e -> V1.Failed e
          | Ok reply -> V1.Routed reply
        in
        if Cache.cap t.cache = 0 then with_instance t instance route
        else
          (* Keyed on the name's current generation: a replace bumps the
             generation, so post-replace requests key (and miss) freshly
             and pre-replace entries can never be served to them. *)
          let gen = Registry.generation t.reg instance in
          let key =
            Cache.route_key ~name:instance ~generation:gen ~protocol ~max_steps
              ~source ~target
          in
          (* A replace can land between the generation read above and
             the leader's acquire below; the result then belongs to a
             newer instance than the key claims and must not be stored
             (it would outlive the replace's invalidation sweep and be
             served to old-generation keys).  Returning it uncached is
             fine — the request overlapped the replace. *)
          let fresh = ref true in
          let compute () =
            with_instance t instance (fun h ->
                if Registry.handle_generation h <> gen then fresh := false;
                route h)
          in
          Cache.find_or_compute t.cache ~cache_if:(fun _ -> !fresh) ~key compute
    | V1.Route_batch { instance; pairs; protocol; max_steps } ->
        with_instance t instance (fun h ->
            let inst = Registry.instance h in
            match Api.Render.resolve_pairs ~inst pairs with
            | Error e -> V1.Failed e
            | Ok resolved ->
                if Array.length resolved > t.max_batch then
                  V1.Failed
                    (Error.make Error.Overloaded
                       "batch of %d pairs exceeds the %d-pair limit; split the request"
                       (Array.length resolved) t.max_batch)
                else if expired ?deadline () then begin
                  note_deadline t;
                  V1.Failed deadline_error
                end
                else
                  locked t (fun () ->
                      match
                        Api.Render.route_batch ~inst ~protocol ?max_steps
                          ~pairs:resolved ()
                      with
                      | Error e -> V1.Failed e
                      | Ok replies -> V1.Routed_batch replies))
    | V1.Stats { instance } ->
        with_instance t instance (fun h ->
            V1.Stats_reply (Api.Render.stats (Registry.instance h)))
    | V1.Gen_shard { params; seed; shards; shard; out } -> (
        match
          locked t (fun () ->
              Girg.Shard.generate_spill ~path:out ~seed ~shards ~shard params)
        with
        | header ->
            V1.Spilled
              {
                V1.sp_path = out;
                sp_shard = header.Girg.Shard.shard;
                sp_shards = header.Girg.Shard.shards;
                sp_vertices = header.Girg.Shard.count;
                sp_edges = header.Girg.Shard.edges;
              }
        | exception Sys_error m ->
            V1.Failed (Error.make Error.Io "cannot write spill %s: %s" out m)
        | exception Invalid_argument m -> V1.Failed (Error.make Error.Bad_request "%s" m))
    | V1.Merge_shards { name; spills } -> (
        match locked t (fun () -> Girg.Shard.merge ~paths:spills ()) with
        | Error e -> V1.Failed (Error.make Error.Io "merge failed: %s" e)
        | Ok inst -> (
            match Registry.insert t.reg ~name inst with
            | Error e -> V1.Failed e
            | Ok info ->
                Cache.invalidate_name t.cache ~name;
                V1.Merged info))
    | V1.Snapshot { instance; out } ->
        with_instance t instance (fun h ->
            let inst = Registry.instance h in
            match Girg.Store.save_binary ~path:out inst with
            | () ->
                V1.Snapshotted
                  {
                    V1.sn_path = out;
                    sn_bytes = (Unix.stat out).Unix.st_size;
                    sn_vertices = Sparse_graph.Graph.n inst.Girg.Instance.graph;
                    sn_edges = Sparse_graph.Graph.m inst.Girg.Instance.graph;
                  }
            | exception Sys_error m ->
                V1.Failed (Error.make Error.Io "cannot write snapshot %s: %s" out m))
    | V1.Mutate { instance; ops; seed } -> (
        let validated inst =
          match Girg.Mutate.validate ~n:(Graph.n inst.Girg.Instance.graph) ops with
          | Error m -> Error (Error.make Error.Bad_request "%s" m)
          | Ok () -> Ok ops
        in
        match mutate_registered t instance ~seed validated with
        | Error e -> V1.Failed e
        | Ok (mutated, generation) ->
            let g = mutated.Girg.Instance.graph in
            V1.Mutated
              {
                V1.mu_name = instance;
                mu_epoch = Graph.epoch g;
                mu_generation = generation;
                mu_live = Graph.live_count g;
                mu_vertices = Graph.n g;
                mu_edges = Graph.m g;
                mu_applied = List.length ops;
              })
    | V1.Churn { instance; config } ->
        (* One epoch = plan against the registered version, apply and
           insert it (generation bump + cache sweep, exactly like a
           standalone mutate, and like it under the compute mutex, so a
           mutate landing between two epochs is built on, not
           overwritten), then measure the new version.  The mutex is
           held per stage, not across the whole scenario, so health and
           stats answer between epochs. *)
        let measure inst =
          locked t (fun () ->
              Experiments.Churn.measure config ~inst
                ~epoch:(Graph.epoch inst.Girg.Instance.graph))
        in
        let plan inst =
          Ok
            (Experiments.Churn.plan config ~inst
               ~epoch:(Graph.epoch inst.Girg.Instance.graph + 1))
        in
        let rec epochs rows left =
          if left = 0 then Ok (List.rev rows)
          else if expired ?deadline () then begin
            note_deadline t;
            Error deadline_error
          end
          else
            match mutate_registered t instance ~seed:config.seed plan with
            | Error e -> Error e
            | Ok (mutated, _) -> epochs (measure mutated :: rows) (left - 1)
        in
        with_instance t instance (fun h ->
            match epochs [ measure (Registry.instance h) ] config.epochs with
            | Error e -> V1.Failed e
            | Ok rows ->
                V1.Churned
                  {
                    V1.ch_name = instance;
                    ch_scenario = config.scenario;
                    ch_generation = Registry.generation t.reg instance;
                    ch_rows = rows;
                  })
    | V1.Health -> V1.Health_reply (health t)
    | V1.Server_stats -> V1.Server_stats_reply (server_stats t)
    | V1.Drain ->
        start_drain t;
        V1.Drain_ack

let handle t ?deadline request =
  let response =
    Obs.Span.with_ ~name:("server." ^ V1.op_of_request request) (fun () ->
        try run t ?deadline request
        with exn ->
          V1.Failed (Error.make Error.Internal "%s" (Printexc.to_string exn)))
  in
  (match response with
  | V1.Failed { Error.code = Error.Overloaded | Error.Draining; _ } -> note_rejected t
  | V1.Failed { Error.code = Error.Deadline; _ } -> ()  (* counted at the checkpoint *)
  | V1.Failed _ -> ()
  | _ -> note_served t);
  response
