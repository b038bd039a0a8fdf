(** Undirected graphs in compressed sparse row (CSR) form, with an
    epoch-based copy-on-write row table for live mutation.

    Vertices are integers [0 .. n-1].  The representation stores each
    undirected edge in both directions, sorted per vertex, which gives cache-
    friendly neighbour scans — the inner loop of every routing protocol.

    The CSR arrays are {!Bigarray.Array1} values (native-int elements,
    C layout) rather than heap [int array]s: the payload lives outside the
    OCaml heap, and the same representation serves both freshly built
    graphs and zero-copy views into an [Unix.map_file]'d snapshot.

    {!apply} keeps a row table beside the immutable base arrays: a
    vertex whose adjacency changed holds its whole sorted row, a
    departed vertex reads as empty, and every other vertex reads its
    base slice.  Every traversal accessor therefore reads one slice or
    one array, in ascending neighbour order, so routing protocols run
    unchanged on a mutated graph.  The base arrays are never written —
    mutating a graph whose CSR section is an mmap'd snapshot is safe —
    and {!compact} writes the rows back into a fresh heap CSR. *)

type t

type int_bigarray = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Element type of the CSR arrays: one native-width OCaml [int] per cell
    (8 bytes on 64-bit), so an int64-LE snapshot section maps directly. *)

val of_edges : n:int -> (int * int) array -> t
(** [of_edges ~n edges] builds the graph on [n] vertices.  Self-loops and
    duplicate edges are dropped.  @raise Invalid_argument on out-of-range
    endpoints.  (Thin wrapper over {!of_flat_halves}.) *)

val of_flat_halves : n:int -> len:int -> int array -> t
(** [of_flat_halves ~n ~len flat] builds the graph from interleaved edge
    endpoints [flat.(0..len-1) = u0; v0; u1; v1; ...] — the native layout of
    the generators' edge buffers, so no boxed [(u, v)] tuples are
    materialised.  Entries beyond [len] are ignored.  Semantics (self-loop /
    duplicate dropping, validation, resulting CSR) are identical to
    {!of_edges}.  @raise Invalid_argument if [len] is odd, exceeds the
    array, or an endpoint is out of range. *)

val of_edge_list : n:int -> (int * int) list -> t
(** List variant of {!of_edges}. *)

val of_bigarrays :
  ?validate:bool -> n:int -> offsets:int_bigarray -> targets:int_bigarray -> unit ->
  (t, string) result
(** [of_bigarrays ~n ~offsets ~targets ()] adopts already-built CSR arrays —
    typically views into an mmap'd snapshot — without copying.  One
    sequential pass validates the invariants ([offsets] has length [n+1],
    starts at 0, is monotone, ends at the [targets] length; every target in
    [0, n)); corrupt input yields [Error] rather than a crash deep inside a
    traversal.  The graph aliases the given arrays: they must not be
    mutated afterwards, and for mapped files the mapping must outlive the
    graph (the [Bigarray] finaliser unmaps when the last view is
    collected).

    [~validate:false] skips the sequential pass over the array contents
    (the length/endpoint checks stay).  That pass touches every page, so
    it would fault a lazily-mapped snapshot fully resident and defeat
    {!Girg.Store.load_mmap}; callers may skip it only when the arrays
    were already validated structurally (e.g. a snapshot whose section
    sizes matched its header).  Even then corruption cannot corrupt
    memory: [Bigarray] accesses are bounds-checked, so a bad offset or
    target raises during traversal instead of reading wild. *)

val offsets_ba : t -> int_bigarray
(** The live offsets array (length [n+1]).  Read-only; aliases the graph.
    @raise Invalid_argument when the graph carries a delta ({!apply} was
    used and {!compact} has not folded it): the base arrays alone do not
    describe the merged view. *)

val targets_ba : t -> int_bigarray
(** The live targets array (length [2m]).  Read-only; aliases the graph.
    @raise Invalid_argument when the graph carries a delta — see
    {!offsets_ba}. *)

(** {1 Direct adjacency access}

    For kernels that scan a neighbourhood with no closure per neighbour:
    {!row} says where a vertex's merged adjacency lives, and a [Base]
    vertex's neighbours are
    [(base_targets g).{k}] for [k] in
    [(base_offsets g).{v} .. (base_offsets g).{v + 1} - 1]. *)

type row =
  | Base  (** the base CSR slice *)
  | Gone  (** departed: no neighbours *)
  | Row of int array  (** the whole merged row, sorted ascending; do not mutate *)

val row : t -> int -> row

val base_offsets : t -> int_bigarray
(** The base CSR offsets, valid for [Base] rows whether or not the graph
    carries a delta.  Read-only. *)

val base_targets : t -> int_bigarray
(** The base CSR targets; see {!base_offsets}. *)

val n : t -> int
(** Number of vertices (including departed ones, which read as isolated). *)

val m : t -> int
(** Number of undirected edges in the merged view. *)

val degree : t -> int -> int

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** [iter_neighbors g v f] applies [f] to each neighbour of [v] in ascending
    order. *)

val fold_neighbors : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

val exists_neighbor : t -> int -> (int -> bool) -> bool

val neighbors : t -> int -> int array
(** Fresh array of the neighbours of [v] (ascending). *)

val has_edge : t -> int -> int -> bool
(** Binary search in the adjacency slice: O(log deg). *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** Applies the function once per undirected edge, with [u < v]. *)

val max_degree : t -> int

val avg_degree : t -> float
(** [2m / n] of the merged view; departed vertices stay in the
    denominator (they are isolated, not renumbered). *)

(** {1 Live mutation}

    The write path of the live-graph subsystem.  Mutations never touch
    the base CSR arrays; they copy the row-table pages they write
    (copy-on-write, so holders of the previous value keep a consistent
    snapshot) and stamp the result with a new epoch. *)

type mutation =
  | Remove_vertex of int
      (** The vertex departs with all its edges; its added edges are
          lost {e permanently} (a later {!Restore_vertex} brings only
          the base edges back).  No-op if already departed. *)
  | Restore_vertex of int
      (** The vertex rejoins with its base edges, minus any that were
          explicitly dropped.  No-op if live. *)
  | Remove_edge of int * int
      (** Drops the edge from the merged view, whether it is a base or
          an added edge.  No-op if absent or if either endpoint has
          departed. *)
  | Add_edge of int * int
      (** Adds the edge: un-drops a dropped base edge, otherwise inserts
          an added edge.  No-op if already present.
          @raise Invalid_argument on a self-loop or a departed endpoint
          (checked by {!apply}). *)

val epoch : t -> int
(** [0] for a freshly built graph; each {!apply} stamps its result. *)

val live : t -> int -> bool
(** False exactly for departed vertices. *)

val live_count : t -> int
(** Number of live vertices ([n t] minus departures). *)

val apply : ?epoch:int -> t -> mutation list -> t
(** [apply ?epoch t ms] applies the mutations in order and returns the
    new view; [t] itself is unchanged and remains valid (readers pin
    the epoch they hold).  [epoch] defaults to [epoch t + 1]; callers
    batching several {!apply} calls into one logical version pass the
    same epoch explicitly.  Cost: O(n/256 + touched rows).  Each call
    copies the table of 256-vertex pages, then each page it writes,
    and rebuilds each touched row once per call however often the
    batch edits it; [m] is kept incrementally.  A [Remove_vertex] or
    [Restore_vertex] touches the vertex's neighbours' rows too.
    @raise Invalid_argument on an out-of-range vertex, a self-loop
    [Add_edge], or an [Add_edge] touching a departed endpoint. *)

val compact : t -> t
(** Writes the merged view into a fresh heap CSR with no delta, in one
    pass with no sort, preserving the vertex numbering (departed
    vertices become permanently isolated live vertices) and the epoch.
    Identity when the graph has no delta.  Traversal results are
    identical before and after. *)
