(** The route-serving TCP daemon: newline-delimited JSON or
    length-prefixed binary frames (see {!Api.Binary}) over a loopback
    (or any) TCP socket, stdlib [Unix] only.

    Concurrency model: the domain that calls {!serve} runs a
    single-threaded readiness event loop (see {!Evloop}) that owns
    every socket and timer — non-blocking accepts, reads, framing, and
    reply writes on the main and admin ports, and the housekeeping
    timer, all happen there, so an idle or slow client costs one table
    entry, not a domain.  The daemon spawns exactly [workers] domains.  Parsed requests are dispatched to a
    bounded job queue that [workers] spawned domains pop from; each
    finished reply travels back to the event loop as a completion (a
    self-pipe wakeup breaks the [select], so replies flush immediately
    rather than on a poll tick).  When the job queue is full the event
    loop answers with the [overloaded] taxonomy error in the client's
    own codec and the connection survives to retry — backpressure is
    explicit, nothing buffers without bound (at most one request per
    connection is in flight; pipelined bytes wait in the read buffer).
    A SIGTERM (or a [drain] request) stops new work, lets every
    in-flight request finish and reply, and then {!serve} returns —
    after appending the run manifest when [obs_out] is set.

    Codec negotiation is per connection, by first byte: [0xB1] selects
    binary framing (unless [json_only] is set, which refuses it with a
    JSON caller error), anything else — in particular ['{'] — keeps
    the JSON line codec, so old clients work unchanged.  Replies are
    rendered in the codec of their request, and mixed-codec clients
    can be served concurrently.  Oversized binary frames are refused
    as a caller error and the connection survives (the declared
    payload is discarded as it arrives); malformed frames cannot be
    resynchronised and close the connection after the error reply.

    {2 Telemetry}

    Every request gets a server-assigned id at dispatch (ordered by
    arrival on the event loop) and is traced through four lifecycle
    stages — queue_wait (request sat in the job queue), compute
    ({!Exec.handle}), render (reply serialisation), write (queued
    until the last reply byte is flushed) — recorded into
    stage-labelled {!Obs.Metrics} histograms and, when [access_log] is
    set, one [smallworld.access.v1] JSONL line per request (see
    {!Access_log}).  Stage clocks are skipped entirely when obs is off
    and no access log is configured.

    Single route requests are answered through the {!Cache} keyed on
    the instance's registry generation, with single-flight coalescing
    of concurrent identical requests; [server.cache.*] counters land
    in [health] and [stats-server] replies.

    When [admin_port] is set, its listener joins the event loop's
    readiness set, and admin connections are answered inline on the
    loop without touching the worker queue or the compute mutex, so
    scrapes answer while every worker is busy and an idle admin
    connection stalls no one: a first line [GET /metrics] gets the
    Prometheus text dump, [GET /stats] the [stats-server] JSON reply,
    and the connection closes after the reply; raw JSON lines are also
    accepted, in order, but only for [stats-server] and [health] (admin
    requests do not move the [server.*] counters).  Up to 16 admin
    connections are open at once, counted apart from the main plane's
    cap, so scrapes answer when the main plane is full.

    When [obs_out] or [access_log] is set, the loop's 200 ms tick
    rewrites the manifest every [obs_interval] seconds and on
    {!request_manifest} (wired to SIGHUP by [bin/serve]), and flushes
    the access log, so a killed daemon still leaves telemetry.  The
    manifest is written to [obs_out ^ ".tmp"] and renamed over
    [obs_out], so a reader never sees a truncated file. *)

type config = {
  host : string;  (** bind address, default "127.0.0.1" *)
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  workers : int;  (** request-executing domains, >= 1 *)
  queue_cap : int;  (** pending-request job queue bound, >= 1 *)
  registry_cap : int;  (** LRU capacity of the instance registry *)
  max_batch : int;  (** largest accepted [route_batch], else [overloaded] *)
  obs_out : string option;  (** manifest destination, written at drain *)
  obs_interval : float;  (** seconds between periodic manifest rewrites;
                             [<= 0.] disables the periodic timer *)
  admin_port : int option;  (** telemetry listener; 0 picks ephemeral *)
  access_log : string option;  (** JSONL access-log path (appended) *)
  access_sample : int;  (** log 1 request in [n] (by request id), >= 1 *)
  events_out : string option;
      (** flight-recorder destination: the {!Obs.Events} ring is dumped
          once as [smallworld.events.v1] JSONL when {!serve} returns at
          drain (empty under [SMALLWORLD_OBS=0]) *)
  trace_out : string option;
      (** distributed-trace sink: every request carrying a
          [trace] context gets its span tree — server stages plus the
          algorithm spans under [server.<op>] — appended as one
          [smallworld.trace.v1] record.  Server records use the negated
          request id as their span id, so they never collide with
          client-declared (positive) span ids.  Requires obs on;
          with [SMALLWORLD_OBS=0] no records are written. *)
  json_only : bool;
      (** refuse binary framing at negotiation: a connection opening
          with the [0xB1] magic gets a JSON [bad-request] reply and is
          closed.  For deployments that want a text-only wire. *)
  cache_cap : int;
      (** route-cache capacity in entries ({!Cache}); [0] disables
          caching (every route recomputes). *)
}

val default_config : config
(** host 127.0.0.1, port 7441, 4 workers, queue_cap 16,
    registry_cap 8, max_batch 4096, no manifest, obs_interval 60 s,
    no admin port, no access log, access_sample 1, no events or trace
    sink, binary framing accepted, cache_cap 4096. *)

type t

val create : config -> t
(** Bind + listen (main and, when configured, admin sockets) and spawn
    the [workers] worker domains.  The listening sockets
    are live from here on (connections queue in the backlog until
    {!serve} starts accepting).
    @raise Unix.Unix_error when an address cannot be bound.
    @raise Invalid_argument on a non-positive [workers], [queue_cap] or
    [access_sample], or a negative [cache_cap]. *)

val port : t -> int
(** The actually bound port (useful with [port = 0]). *)

val admin_port : t -> int option
(** The actually bound admin port, when [admin_port] was configured. *)

val exec : t -> Exec.t
(** The execution layer (registry, counters, drain flag) — lets an
    embedding process preload instances before serving. *)

val request_manifest : t -> unit
(** Ask the event loop to rewrite the manifest (and flush the access
    log); it wakes the loop, which does so on its next iteration.
    Async-signal-safe (one atomic store and one self-pipe write) — the
    SIGHUP handler in [bin/serve] calls this directly.  A no-op when
    neither [obs_out] nor [access_log] is configured. *)

val stop : t -> unit
(** Begin draining: stop accepting, finish in-flight requests.
    Safe from a signal handler or another domain.  {!serve} returns
    once the drain completes. *)

val serve : t -> unit
(** Run the event loop in the calling domain until drained (via
    {!stop}, SIGTERM wired to it, or a client's [drain] request), then
    join the worker domains, close the sockets, write the final
    manifest, and close the access log. *)
