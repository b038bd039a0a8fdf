(** Reusable per-vertex scratch, reset in O(1) by epoch stamping.

    A scratch holds one stamp per vertex plus numbered [int] and [float]
    columns, each one slot per vertex, and a trail: a growable sequence of
    ints (a route's walk).  {!start} begins a new epoch: every
    vertex then reads as unstamped without clearing anything.  A column
    slot holds a meaningful value only at vertices stamped in the current
    epoch; callers initialise a vertex's slots when {!add} first stamps
    it.  A traversal that touches [k] vertices therefore costs O(k) per
    call, not O(n).

    Capacity grows to the largest [n] a scratch has seen and is kept.
    Memory is 8 bytes per vertex for the stamps plus 8 bytes per vertex
    for each column a caller has asked for; columns are allocated on first
    use.  The trail keeps its buffer while it holds at most [n] ints.

    Every domain owns one scratch, reached through {!with_domain}: the
    bidirectional BFS and the Φ-DFS, history and gravity–pressure routes
    share it, one call at a time. *)

type t

val create : unit -> t
(** An empty scratch for a caller that manages its own lifetime (the
    objective memo).  Not thread-safe: use one per domain. *)

val start : t -> n:int -> unit
(** Begin a new epoch over vertices [0 .. n-1], growing the scratch to
    [n] if needed (a column is reallocated at its next use), with an
    empty trail.
    @raise Failure if the scratch is held by {!with_domain}. *)

val epoch : t -> int
(** The current epoch; it changes at every {!start}.  A closure that may
    outlive its epoch compares this against the value it captured. *)

val mem : t -> int -> bool
(** [mem s v]: [v] was stamped in the current epoch. *)

val add : t -> int -> bool
(** [add s v] stamps [v]; true if it was not stamped yet in this epoch
    (the caller then initialises [v]'s slots). *)

val ints : t -> int -> int array
(** [ints s i] is int column [i] (length at least the current [n]).  Valid
    until the next {!start}. *)

val floats : t -> int -> float array
(** [floats s i] is float column [i]; see {!ints}. *)

val push : t -> int -> unit
(** Append to this epoch's trail (amortised O(1)). *)

val trail : t -> int list
(** This epoch's trail, oldest first: one fresh list, 24 bytes per
    element. *)

val with_domain : n:int -> (t -> 'a) -> 'a
(** [with_domain ~n f] runs [f] on this domain's scratch, started for
    [n] vertices, and releases it when [f] returns or raises.
    @raise Failure when called from inside [f] on the same domain (a
    nested use): the outer call keeps its scratch untouched. *)
