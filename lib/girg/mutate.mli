(** Live-graph mutations over a generated instance.

    An instance's geometry (weights, positions, kernel parameters) is
    immutable; mutation changes only the edge set, via the copy-on-write
    row table of {!Sparse_graph.Graph}.  One {!apply} call is one epoch:
    every op in the batch lands in the same graph version.

    Determinism contract: {!Resample} draws each candidate partner from
    a {!Prng.Rng.of_mixed_triple} substream keyed on
    [(seed, epoch, vertex, partner)], so replaying the same op script
    with the same seed against the same instance yields bit-identical
    graphs at every epoch — independent of evaluation order, job count,
    and of whether the base CSR is heap-built or mmap'd. *)

type op =
  | Leave of int  (** the vertex departs (added edges are lost for good) *)
  | Rejoin of int  (** the vertex returns with its surviving base edges *)
  | Drop of int * int  (** remove one edge from the merged view *)
  | Resample of int
      (** drop the vertex's current edges and re-draw them from the
          instance's own connection kernel; no-op on a departed vertex *)

val op_to_string : op -> string
(** Wire/CLI spelling: [leave:V | rejoin:V | drop:U:V | resample:V]. *)

val op_of_string : string -> (op, string) result

val ops_of_strings : string list -> (op list, string) result
(** First parse error wins. *)

val validate : n:int -> op list -> (unit, string) result
(** Range-checks every vertex (and rejects [drop] self-loops) without
    touching the graph, so callers can reject a bad script with a
    caller error instead of an exception mid-apply. *)

val apply : seed:int -> Instance.t -> op list -> Instance.t
(** [apply ~seed inst ops] applies the script in order as one epoch
    ([Graph.epoch] of the result is one above the input's — an empty
    script still advances the version) and returns
    the new instance; [inst] is unchanged and stays routable (readers
    pin the version they hold).  Cost: one {!Sparse_graph.Graph.apply}
    per op plus one for the leading empty apply, each O(n/256 + touched
    rows) (see its cost note); a [Resample] adds an O(n) pass drawing
    one coin per live partner.
    @raise Invalid_argument on out-of-range vertices — call {!validate}
    first on untrusted input. *)
