(** A block index over the heavy rows of a base CSR, for arg-max queries
    that skip most of a hub's neighbours.

    Every base row of degree above {!degree_threshold} is indexed: its
    neighbours, sorted by the Morton code of their position, are cut into
    blocks of {!block_size} (the last one may be shorter).  Each block
    stores its members' largest weight and the bounding box of their
    coordinates.  An objective that decreases with distance and grows
    with weight is then bounded on a whole block by its value at
    (largest weight, distance to the box): the paper's
    [phi = w / (w_min n ||x - x_t||^d)] is at most
    [w_max / (w_min n lb^d)], where [lb] combines the per-dimension
    {!Geometry.Torus.interval_dist}s the way the norm combines distances.
    [Objective.argmax] reads the index through the record below.

    The index covers the base arrays only.  It remembers the [targets]
    array it was built from, and {!covers} checks that a graph still
    reads that very array, so an index outlived by {!Sparse_graph.Graph.compact}
    is never consulted.  Rows changed by {!Sparse_graph.Graph.apply} read
    as [Row]/[Gone], never [Base], so callers skip them before asking. *)

type t = private {
  base : Sparse_graph.Graph.int_bigarray;  (** the base targets it indexes *)
  hubs : int array;  (** the indexed vertices, ascending *)
  row_blocks : int array;
      (** row [r] (vertex [hubs.(r)]) owns blocks
          [row_blocks.(r) .. row_blocks.(r + 1) - 1] *)
  block_start : int array;
      (** block [b] holds [members.(block_start.(b) .. block_start.(b + 1) - 1)] *)
  members : int array;  (** every indexed row's neighbours, in Morton order *)
  w_max : float array;  (** per block: its members' largest weight *)
  boxes : float array;
      (** per block [b] and dimension [i] of [dim]: the smallest and
          largest member coordinate, at [2 (b dim + i)] and
          [2 (b dim + i) + 1] *)
  max_blocks : int;  (** the most blocks any one row owns *)
}

val degree_threshold : int
(** Rows of degree above this are indexed (256). *)

val block_size : int
(** Members per block (32). *)

val build : weights:float array -> packed:Geometry.Torus.Packed.t -> Sparse_graph.Graph.t -> t
(** Index the graph's heavy base rows.  One pass over the base offsets
    finds them; only their slices of the targets array are read, so on an
    mmap'd snapshot only those pages fault in.  Cost: O(n) for the pass,
    plus a sort of each heavy row. *)

val covers : t -> Sparse_graph.Graph.t -> bool
(** [covers t g]: [g]'s base targets are physically the array [t] was
    built from. *)

val row : t -> int -> int
(** [row t v] is [v]'s row in [t] (binary search in [hubs]), or [-1]. *)
