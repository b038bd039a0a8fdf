(** Version 1 of the routing API.

    This module is the single definition of every route / sample / stats
    parameter in the system.  Three front-ends consume it:

    - the route-serving daemon ({!Server.Daemon}) speaks the JSON wire
      form ({!envelope_of_line} / {!reply_line}) over newline-delimited
      TCP;
    - [graphs_cli] parses its subcommands through {!of_args} (which
      also carries the deprecation shims for pre-v1 flag spellings);
    - [experiments_cli] reuses the shared validators via {!Cli}.

    Requests round-trip exactly through both codecs:
    [envelope_of_json (envelope_to_json e) = Ok e] and
    [of_args (to_args e) = Ok e] — pinned by tests, so the wire format
    cannot drift silently.  {!schema_json} dumps the whole surface
    (ops, flags, aliases, types, defaults, error codes) for client
    authors; [graphs_cli api-schema] prints it. *)

val version : int
(** [1].  Every wire object carries it as ["v"]. *)

(** {1 Request types} *)

type model =
  | Girg of Girg.Params.t
  | Hrg of Hyperbolic.Hrg.params
  | Kleinberg of Kleinberg.Lattice.params
      (** Kleinberg lattices are served through their GIRG embedding
          (unit weights, lattice positions on the torus) so that one
          instance type covers all three generators. *)

type pair_pool =
  | Any  (** uniform distinct pairs over all vertices *)
  | Giant  (** pairs drawn inside the giant component *)

type pairs_spec =
  | Pairs of (int * int) list  (** explicit (source, target) list *)
  | Drawn of { count : int; pair_seed : int; pool : pair_pool }
      (** sampled with [Workload.sample_pairs_*] from a fresh
          [Prng.Rng.create ~seed:pair_seed] — the same substream
          discipline the batch experiments use, so a served batch and a
          local [Workload] run see identical pairs *)

type request =
  | Load of { name : string; path : string }
      (** read a saved instance ({!Girg.Store} format) into the registry *)
  | Sample of { name : string; model : model; seed : int }
      (** sample an instance on demand and register it *)
  | Route of {
      instance : string;
      source : int;
      target : int;
      protocol : Greedy_routing.Protocol.t;
      max_steps : int option;
    }
  | Route_batch of {
      instance : string;
      pairs : pairs_spec;
      protocol : Greedy_routing.Protocol.t;
      max_steps : int option;
    }
  | Stats of { instance : string }
  | Gen_shard of {
      params : Girg.Params.t;
      seed : int;
      shards : int;
      shard : int;
      out : string;
    }
      (** sample shard [shard] of [shards] of a GIRG's deterministic
          edge enumeration and spill it to [out]
          ({!Girg.Shard.generate_spill}) — the out-of-core half of
          [sample].  On the CLI this is
          [gen girg ... --shards S --shard I --spill-out FILE]. *)
  | Merge_shards of { name : string; spills : string list }
      (** validate a complete spill set, concatenate the shard streams
          in shard order (bit-identical to single-process generation)
          and register the rebuilt instance under [name] *)
  | Snapshot of { instance : string; out : string }
      (** re-encode a registered (daemon) or on-disk (CLI) instance as
          a v2 binary snapshot at [out], ready for
          {!Girg.Store.load_mmap} *)
  | Mutate of { instance : string; ops : Girg.Mutate.op list; seed : int }
      (** apply a live-mutation script as ONE new graph epoch
          ({!Girg.Mutate.apply}): vertices leave/rejoin, edges drop, a
          vertex's incident edges re-sample from the instance's own
          connection kernel.  Deterministic given [(seed, epoch)]; on
          the daemon the mutated instance replaces the old one under the
          same name with a bumped registry generation, so cached routes
          for the old version can never be served again. *)
  | Churn of { instance : string; config : Experiments.Churn.config }
      (** run a churn scenario server-side: per epoch, plan mutations
          ({!Experiments.Churn.plan}), apply them as above, then measure
          delivery on the new version.  Returns one row per epoch. *)
  | Health
  | Server_stats
      (** live serving telemetry ([stats-server] on the wire): counter
          and gauge snapshot plus per-stage latency quantiles from the
          {!Obs.Hist}-backed histograms, and a Prometheus text dump.
          Served without the compute mutex, so it answers under full
          load. *)
  | Drain

(** Distributed-trace context ([{"trace":{"id":...,"span":...}}] on the
    wire, [--trace-id]/[--trace-parent] as flags): the client names the
    trace and the span id its own [smallworld.trace.v1] record carries,
    and the traced server hangs its record under that span — see
    {!Obs.Profile.merge}.  Purely advisory: a server without a trace
    sink ignores it. *)
type trace_ctx = { trace_id : string; parent_span : int }

type envelope = {
  id : int option;  (** echoed verbatim in the reply *)
  deadline_ms : int option;
      (** request-scoped deadline, measured from the moment the server
          reads the request; expiry yields the [deadline] error code *)
  trace : trace_ctx option;
  request : request;
}

val envelope : ?id:int -> ?deadline_ms:int -> ?trace:trace_ctx -> request -> envelope

(** {1 Response types} *)

type instance_info = { name : string; params : string; vertices : int; edges : int }

type route_reply = {
  source : int;
  target : int;
  status : Greedy_routing.Outcome.status;
  steps : int;
  visited : int;
  shortest : int option;  (** BFS distance; [None] when disconnected *)
  text : string;
      (** the exact bytes [graphs_cli route] prints for this route —
          byte-identical by construction (both call {!Render.route_text}) *)
}

type stats_reply = {
  params : string;
  vertices : int;
  edges : int;
  avg_degree : float;
  max_degree : int;
  components : int;
  giant : int;
}

type spill_info = {
  sp_path : string;
  sp_shard : int;
  sp_shards : int;
  sp_vertices : int;  (** realised vertex count (identical across the set) *)
  sp_edges : int;  (** edges in this shard's spill *)
}

type snapshot_info = {
  sn_path : string;
  sn_bytes : int;  (** size of the written snapshot file *)
  sn_vertices : int;
  sn_edges : int;
}

type mutate_reply = {
  mu_name : string;
  mu_epoch : int;  (** graph epoch after the script (always old + 1) *)
  mu_generation : int;  (** registry generation after the swap *)
  mu_live : int;  (** live (non-departed) vertices *)
  mu_vertices : int;  (** base vertex-id space, departed included *)
  mu_edges : int;  (** edges among live vertices *)
  mu_applied : int;  (** ops in the applied script *)
}

type churn_reply = {
  ch_name : string;
  ch_scenario : Experiments.Churn.scenario;
  ch_generation : int;  (** registry generation after the final epoch *)
  ch_rows : Experiments.Churn.epoch_row list;
      (** baseline epoch first, then one row per mutation epoch *)
}

type health_reply = {
  draining : bool;
  instances : string list;  (** registry contents, most recently used first *)
  counters : (string * int) list;  (** server.* counter snapshot *)
}

type stage_latency = {
  stage : string;
      (** [stage.queue_wait] / [stage.compute] / [stage.render] /
          [stage.write], or [latency.<op>] for whole-request latency *)
  s_count : int;
  p50 : float;  (** seconds; quantiles are {!Obs.Hist} estimates *)
  p90 : float;
  p99 : float;
  p999 : float;
  s_max : float;  (** exact maximum observed, [0.] when empty *)
}

type server_stats_reply = {
  uptime_s : float;
  s_draining : bool;
  obs_live : bool;
      (** false under [SMALLWORLD_OBS=0]: the server's counters and
          gauges, and their Prometheus lines, stay live; only the
          stage histograms and the process-wide metrics are zeroed *)
  s_counters : (string * int) list;  (** same snapshot as [health] *)
  gauges : (string * float) list;
      (** [server.queue_depth], [server.inflight],
          [server.registry.size] / [.pinned] / [.orphaned] / [.cap],
          [server.cache.size] / [.cap], in name order, then
          [server.registry.gen.<name>] per instance *)
  stages : stage_latency list;
  prometheus : string;
      (** Prometheus text of the server's snapshot (the one
          [s_counters] and [gauges] come from), then of the
          process-wide registry *)
}

type response =
  | Loaded of instance_info
  | Sampled of instance_info
  | Routed of route_reply
  | Routed_batch of route_reply list
  | Stats_reply of stats_reply
  | Spilled of spill_info
  | Merged of instance_info
  | Snapshotted of snapshot_info
  | Mutated of mutate_reply
  | Churned of churn_reply
  | Health_reply of health_reply
  | Server_stats_reply of server_stats_reply
  | Drain_ack
  | Failed of Error.t

type reply = { reply_id : int option; response : response }

(** {1 String conversions (shared by every front-end)} *)

val op_of_request : request -> string
(** The wire op name ([load], [route_batch], [stats-server], ...) —
    what spans, access-log lines and latency metrics are keyed on. *)

val op_names : string list
(** Every wire op, in table order — the daemon's op inventory for
    metric pre-registration and docs, read off the same declarative op
    table that drives both codecs. *)

val instance_of_request : request -> string option
(** The registry name a request touches, when it names one. *)

val op_of_response : response -> string
(** The wire op a response answers ([error] for {!Failed}). *)

val protocol_to_string : Greedy_routing.Protocol.t -> string

val protocol_of_string : string -> (Greedy_routing.Protocol.t, Error.t) result
(** Canonical names plus the deprecated aliases ["dfs"] and ["gp"]. *)

val status_to_string : Greedy_routing.Outcome.status -> string
val status_of_string : string -> Greedy_routing.Outcome.status option

val alpha_of_string : string -> (Girg.Params.alpha, Error.t) result
(** ["inf"] / ["infinity"] or a float literal. *)

val parse_jobs : string -> (int, Error.t) result
(** Non-negative integer (0 = all cores); the one validation both CLI
    [--jobs] flags and the env fallback share. *)

val float_arg : float -> string
(** Shortest decimal that parses back to the same double — argument
    lists round-trip floats exactly, like the JSON emitter. *)

(** {1 JSON wire codec} *)

val envelope_to_json : envelope -> Obs.Export.json
val envelope_of_json : Obs.Export.json -> (envelope, Error.t) result

val envelope_of_line : string -> (envelope, Error.t) result
(** Parse one request line as received by the daemon. *)

val request_line : envelope -> string
(** Single-line JSON (no trailing newline) — what a client sends. *)

val reply_to_json : reply -> Obs.Export.json
val reply_of_json : Obs.Export.json -> (reply, Error.t) result

val reply_of_line : string -> (reply, Error.t) result

val reply_line : reply -> string
(** Single-line JSON (no trailing newline) — what the daemon sends. *)

(** {1 Argument-list codec (the CLI front-end)} *)

type exec_opts = {
  output : string option;  (** [--output]/[-o]: where the CLI writes an instance *)
  obs_out : string option;  (** [--obs-out]: JSONL run manifest *)
  events_out : string option;  (** [--events-out]: flight-recorder JSONL *)
  trace_out : string option;
      (** [--trace-out]: where the CLI appends this run's
          [smallworld.trace.v1] record *)
  jobs : int option;  (** [--jobs]/[-j]: worker domains *)
}

val no_exec : exec_opts

val of_args : string list -> (envelope * exec_opts, Error.t) result
(** Parse an argument vector: the leading token selects the op
    ([load], [sample] + model, [route], [route-batch], [stats],
    [merge-shards], [snapshot], [mutate], [churn], [health], [drain]);
    the rest are flags
    from {!schema_json}.  [sample girg --spill-out FILE] selects
    sharded spill generation ({!Gen_shard}).
    Deprecated spellings ([-s], [-t], [-n], [-o], [-j], [-c]) keep
    working through a shim table; an unknown flag fails with
    [bad-request] and the message names the nearest canonical (new)
    spelling.  A bare positional argument after [route], [route-batch]
    or [stats] is shorthand for [--instance]. *)

val to_args : ?exec:exec_opts -> envelope -> string list
(** Canonical argument vector; [of_args (to_args e) = Ok (e, exec)]. *)

val schema_json : unit -> Obs.Export.json
(** The machine-readable v1 surface: schema name
    ["smallworld.api.v1"], every op with its flags (canonical
    spelling, deprecated aliases, type, required, default, doc), and
    the error-code table with exit statuses. *)
