(** Nestable timed scopes producing a rolled-up tree per trace root.

    Each completed span records wall-clock seconds and bytes allocated
    (via {!allocated_bytes}, inclusive of children).  Sibling spans
    with the same name merge — counts, times and subtrees accumulate —
    so a span inside a loop shows up once with [count] = iterations.
    Spans closed with an empty stack become trace roots, retrievable
    through {!roots}. *)

type t = {
  name : string;
  mutable count : int;  (** merged invocations *)
  mutable wall_s : float;  (** inclusive wall time, summed over invocations *)
  mutable alloc_bytes : float;  (** inclusive GC-allocated bytes *)
  mutable children : t list;  (** first-seen order *)
}

val allocated_bytes : unit -> float
(** Bytes allocated so far by the calling domain, minor and major heap
    alike: [(Gc.minor_words () + major - promoted) * word size], the last
    two from [Gc.counters].  Exact at any moment, unlike
    [Gc.allocated_bytes], whose minor term lags between minor collections;
    the difference of two readings is the allocation between them, plus
    a constant 96 bytes (on 64-bit) for the reading itself.  Spans, the
    cost contracts and the allocation budgets read this. *)

val enabled : bool
(** Same kill switch as {!Metrics.enabled}: with [SMALLWORLD_OBS=0]
    spans neither measure nor collect. *)

val with_ : name:string -> (unit -> 'a) -> 'a
(** Run [f] inside a span named [name].  Exception-safe; when disabled
    this is exactly [f ()]. *)

val time : name:string -> (unit -> 'a) -> 'a * t option
(** Like {!with_} but also returns the node the span merged into
    ([None] when disabled). *)

val probe : name:string -> (unit -> 'a) -> 'a * t option
(** Like {!time}, but the returned tree is a private deep copy of
    {e this invocation alone}, snapshotted before the span merges into
    the rolled-up profile (which it still does).  Unlike the node
    returned by {!time} — which is shared with the global tree and keeps
    accumulating as later same-name spans merge into it — a probe's tree
    is frozen, so it can be exported as one request's trace.  Only spans
    opened on the calling domain nest under the probe; work fanned out
    to pool domains lands in the global roots instead.  [None] when
    disabled. *)

val copy : t -> t
(** Deep copy (children included); the result shares no mutable state
    with the original. *)

val roots : unit -> t list
(** Completed top-level spans, oldest first. *)

val clear_roots : unit -> unit

val self_s : t -> float
(** Wall time not attributed to children (clamped at 0). *)

val depth : t -> int
(** Nesting depth of the tree rooted here (a leaf has depth 1). *)
