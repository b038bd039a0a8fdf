(** Exporters: Prometheus-style text dump and the JSONL run manifest. *)

(** Minimal JSON document, emitted compactly on a single line.
    Non-finite floats serialise as [null]. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val json_to_string : json -> string

val json_of_string : string -> (json, string) result
(** Parse the JSON subset {!json_to_string} produces (no unicode beyond
    one-byte [\u] escapes). *)

val member : string -> json -> json option
(** Field lookup on an [Obj]; [None] on anything else. *)

val span_to_json : Span.t -> json
val value_to_json : Metrics.value -> json
val snapshot_to_json : (string * Metrics.value) list -> json

val git_rev : unit -> string
(** [SMALLWORLD_GIT_REV] if set, else a best-effort read of [.git/HEAD]
    relative to the working directory; ["unknown"] on failure. *)

val schema_version : string
(** Currently ["smallworld.obs.v1"]. *)

val manifest_line :
  ?extra:(string * json) list ->
  experiment:string ->
  seed:int ->
  scale:string ->
  registry:Metrics.registry ->
  span:Span.t option ->
  unit ->
  string
(** One JSONL record (no trailing newline): schema version, experiment
    id, seed, scale, git revision, wall time, full span tree and a
    metrics snapshot.  [extra] fields are appended verbatim. *)

val events_schema_version : string
(** Currently ["smallworld.events.v1"]. *)

val event_to_json : Events.event -> json
(** Flat, self-contained object: [schema], [seq], [t] (wall time),
    [type] (snake_case payload tag) and the payload's own fields. *)

val event_line : Events.event -> string

val write_events : out_channel -> Events.event list -> unit
(** One {!event_line} per event, newline-terminated (valid JSONL). *)

val event_of_json : json -> (Events.event, string) result
(** Decode one [smallworld.events.v1] object back into a typed event
    (exact inverse of {!event_to_json}).  Errors name the missing or
    mistyped field. *)

val span_of_json : json -> Span.t
(** Decode the span-tree object {!span_to_json} emits ([self_s] is
    derived and ignored on input).
    @raise Failure on a missing or mistyped field. *)

val trace_schema_version : string
(** Currently ["smallworld.trace.v1"]. *)

(** One request's span tree, addressable within a distributed trace:
    the record's [tr_root] hangs under span id [tr_parent] of whichever
    record of trace [tr_trace] declared [tr_span] equal to it (see
    {!Profile.merge}).  [tr_origin] labels the producing process
    (["cli"], ["server"], ...); [tr_t0] is the Unix time at root start,
    [0.] when unknown. *)
type trace_record = {
  tr_trace : string;
  tr_span : int;
  tr_parent : int option;
  tr_origin : string;
  tr_t0 : float;
  tr_root : Span.t;
}

val trace_to_json : trace_record -> json
val trace_line : trace_record -> string
(** One JSONL record (no trailing newline). *)

val trace_of_json : json -> (trace_record, string) result
(** Exact inverse of {!trace_to_json}. *)

val chrome_trace : ?t0:float -> Span.t -> string
(** Chrome trace-event JSON ([chrome://tracing] / Perfetto "JSON Array
    Format"): one complete ["X"] event per node, [pid]/[tid] fixed at 1,
    count/self time/allocation in [args].  Span trees are rolled-up
    profiles without per-invocation timestamps, so the timeline is
    synthetic: the root starts at [t0] (seconds, default 0) and children
    are packed sequentially inside their parent, clamped to never
    overrun it. *)

val folded_stacks : Span.t -> string
(** Folded-stack flamegraph text (flamegraph.pl / speedscope): one line
    per node, ["root;child;leaf N"] with [N] the node's self time in
    integer microseconds.  [';'] and [' '] in span names are sanitized;
    interior nodes whose self time rounds to 0 µs are omitted (leaves
    are always kept so every path appears). *)

val span_table : Span.t -> string
(** ASCII table of one span tree: wall / self time, invocation count and
    allocated MB per node, indented by depth. *)

val prometheus : Metrics.registry -> string
(** Prometheus text exposition of a registry snapshot: names are
    prefixed [smallworld_] with separators mapped to underscores;
    histograms use cumulative [le] buckets. *)

val prometheus_of_snapshot : (string * Metrics.value) list -> string
(** {!prometheus} of a snapshot already taken, so the text agrees with
    other readers of that same snapshot. *)
