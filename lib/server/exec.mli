(** Request execution: one v1 request in, one v1 response out.

    This layer owns everything below the wire: the registry, the
    drain flag, the server's telemetry registry, and the compute lock
    that serialises work entering the shared {!Parallel.Global} pool —
    [Pool.run] must not be called concurrently from two domains, so
    [sample] and [route_batch] take the lock while single routes and
    lookups run lock-free in parallel.  [mutate] and each [churn] epoch
    read the registered version, apply and re-insert under the lock, so
    concurrent writers of one name build on each other's versions.  The wait to take the lock is
    recorded into the [server.compute.mutex_wait] histogram (obs on
    only), which [stats-server] reports beside the stages.

    Each server owns one live {!Obs.Metrics.registry}, exempt from
    [SMALLWORLD_OBS].  Every [server.*] counter (its own and the
    route cache's) is stored there once; the state gauges are read
    from their owners at snapshot time and never stored.  [health],
    [stats-server], the Prometheus text and the drain manifest all
    read the same {!snapshot}.  Two servers in one process never share a
    count.  Only the stage, latency, mutex-wait and GC histograms live in
    {!Obs.Metrics.default}, on the kill switch. *)

type t

val create : ?registry_cap:int -> ?max_batch:int -> ?cache_cap:int -> unit -> t
(** Defaults: [registry_cap = 8], [max_batch = 4096],
    [cache_cap = 4096] ([cache_cap = 0] disables the route cache). *)

val registry : t -> Registry.t

val cache : t -> Cache.t
(** The hot-pair route cache; single routes are answered through
    {!Cache.find_or_compute} keyed on the instance's registry
    generation, and [load] / [sample] over an existing name sweep the
    name's entries. *)

val draining : t -> bool
val start_drain : t -> unit

(** {1 Counters} *)

val accepted : t -> int
val served : t -> int
val rejected : t -> int
val deadline_missed : t -> int

val note_accepted : t -> unit
(** Called by the transport when it reads a request line. *)

val note_rejected : t -> unit
(** Called by the transport when it refuses a connection (queue full /
    draining) without reading a request. *)

val counter_pairs : t -> (string * int) list
(** Every counter of the server registry, in name order — the
    snapshot [health] replies carry: [server.accepted],
    [server.served], [server.rejected], [server.deadline_missed] and
    the [server.cache.*] hit/miss/coalesced/eviction counters. *)

val snapshot : t -> (string * Obs.Metrics.value) list
(** The counters of {!counter_pairs} plus the state gauges
    ([server.queue_depth], [server.inflight],
    [server.registry.size/pinned/orphaned/cap],
    [server.cache.size/cap]) read from their owners at the call, in
    name order.  The gauges are never stored.  [stats-server], the
    Prometheus text and the [extra] fields of the drain manifest are
    all built from one such snapshot. *)

val health : t -> Api.V1.health_reply
(** The [health] reply, for the main and the admin plane alike. *)

(** {1 Request tracing}

    Called by the transport around each request so the telemetry plane
    sees per-request ids, in-flight depth and per-stage timings.  All
    of it is cheap: ids and the in-flight count are plain atomics (the
    [server.inflight] gauge reads the latter at snapshot time);
    stage histograms are {!Obs.Metrics} handles, i.e. no-op stubs
    under [SMALLWORLD_OBS=0]. *)

val next_request_id : t -> int
(** Monotone, starts at 1; assigned when the transport reads a
    request line. *)

val begin_request : t -> unit
val end_request : t -> unit
val inflight : t -> int

val note_queue_wait : t -> float -> unit
(** Seconds a connection spent in the accept queue before a worker
    picked it up ([server.stage.queue_wait]). *)

val observe_stages :
  t -> ?op:string -> compute:float -> render:float -> write:float -> unit -> unit
(** Record one request's stage timings (seconds) into
    [server.stage.compute] / [.render] / [.write]; when [op] names a
    known wire op, the total also lands in [server.latency.<op>]. *)

val observe_gc : t -> alloc_bytes:float -> collections:int -> unit
(** Record one request's compute stage into the stage-labelled
    [server.gc.compute.alloc_bytes] histogram (the exact
    {!Obs.Span.allocated_bytes} difference on the worker domain) and
    [server.gc.compute.collections] (minor plus major collections, from
    [Gc.quick_stat]).  Callers must gate the reads (and this call)
    behind [Obs.Metrics.enabled]: under [SMALLWORLD_OBS=0] the serving
    path performs no GC introspection at all. *)

val set_queue_depth_source : t -> (unit -> int) -> unit
(** Install the transport's live queue-depth reader (read for the
    [server.queue_depth] gauge at each snapshot); defaults to a
    constant 0.  Set before serving starts. *)

val server_stats : t -> Api.V1.server_stats_reply
(** The [stats-server] snapshot: uptime, drain state, counters and
    gauges in name order (plus a computed
    [server.registry.gen.<name>] gauge per instance), per-stage
    latency and compute-mutex-wait quantiles, and the {!prometheus}
    text of the same
    snapshot.  Never takes the compute mutex, so it answers under full
    load. *)

val prometheus : t -> string
(** Prometheus text: one {!snapshot}, followed by
    {!Obs.Metrics.default}. *)

(** {1 Execution} *)

val handle :
  t -> ?deadline:float -> Api.V1.request -> Api.V1.response
(** Execute one request under a [server.<op>] span.  [deadline] is an
    absolute [Unix.gettimeofday] instant; an expired deadline yields
    the [deadline] taxonomy error without touching the instance.
    Exceptions become [internal] responses — the daemon never dies on a
    request. *)
