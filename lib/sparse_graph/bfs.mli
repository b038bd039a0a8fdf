(** Breadth-first search: shortest (hop) distances on unweighted graphs. *)

val distances : Graph.t -> source:int -> int array
(** [distances g ~source] returns an array [d] with [d.(v)] the hop distance
    from [source] to [v], or [-1] if unreachable. *)

val distance : Graph.t -> source:int -> target:int -> int option
(** Single-pair distance via bidirectional BFS; [None] if disconnected.
    Much faster than {!distances} on small-world graphs, where full BFS
    explores nearly everything after a few levels.

    Cost: O(visited) time and allocation per call.  A disconnected pair
    stops when the first side exhausts its component, so it costs
    O(smaller component), not the other side's whole component.  Distances and the
    two frontier queues live on this domain's {!Scratch}: 40 bytes per
    vertex (stamp and four int columns), grown to the largest [n] seen
    and kept.
    @raise Failure if called while this domain's scratch is held (a nested
    use, e.g. from inside a patching route's objective). *)

val eccentricity_lower_bound : Graph.t -> source:int -> int
(** Maximum finite BFS distance from [source]; a lower bound on the diameter
    of the source's component. *)
