(** Objective functions for greedy routing (Section 2.2 of the paper).

    An objective scores vertices; routing protocols forward the message to
    the neighbour of maximum score.  Every objective is maximised at its
    target ([score target = infinity] by construction), which realises the
    paper's requirement that the target globally maximises phi. *)

type kernel
(** What a specialised arg-max loop needs to evaluate [phi] inline: the
    weights, the packed coordinate store, the target's position, the
    normalising constant [w_min * n], the norm, the dimension and the
    instance's {!Girg.Instance.hub_index}.  Only {!girg_phi} builds one
    (for dimensions 1 to 3). *)

type t = {
  name : string;
  target : int;
  score : int -> float;
      (** The one scoring closure.  Each constructor resolves its fast path
          here once — (norm, dim)-specialised distance kernels over flat
          coordinate stores — so a hot loop calls it directly. *)
  kernel : kernel option;
      (** Lets {!argmax} scan a base CSR slice with [phi] inlined.  [Some]
          only from {!girg_phi} (and kept by {!Memo.wrap}); every other
          constructor sets [None].  Set it to [None] to force the closure
          path, which computes the same floats. *)
}

val scorer : t -> int -> float
(** [scorer t] is [t.score]. *)

val girg_phi : Girg.Instance.t -> target:int -> t
(** The paper's objective [phi(v) = w_v / (w_min n ||x_v - x_t||^d)]
    (Section 2.2) — maximising [phi] maximises the connection probability
    to the target.  [score target = infinity].  Scores read the instance's
    packed coordinate store; carries a {!kernel} when [dim <= 3], which
    builds the instance's hub index on the first call. *)

val argmax : t -> Sparse_graph.Graph.t -> int -> skip:int -> lo:float -> int
(** [argmax t g v ~skip ~lo] is the neighbour [u <> skip] of [v] of
    maximum score among those scoring at least [lo], or [-1] if there is
    none.  Ties go to the smaller id; a [nan] score never wins.

    Cost, when [t] has a {!kernel} and [v] reads its base CSR slice:
    allocation-free, one specialised loop per (norm, dim) with [phi]
    inlined.  A row the kernel's {!Girg.Hub_index} indexes (degree above
    {!Girg.Hub_index.degree_threshold}) costs O(deg/B + blocks scanned · B)
    for blocks of B = {!Girg.Hub_index.block_size}: one bound per block,
    then [phi] over the blocks whose bound reaches the best score found
    and [lo].  Any other base row costs O(deg v).  Otherwise (no kernel,
    or a row changed by {!Sparse_graph.Graph.apply}) it runs the
    reference loop over [t.score], O(deg v), which allocates a boxed
    float per neighbour.  Every path returns the same vertex. *)

val argmax_below :
  t -> Sparse_graph.Graph.t -> int -> skip:int -> lo:float -> below:float -> int
(** {!argmax} restricted further to scores below [below] (exclusive).
    [below] prunes no block of a hub row; [lo] does. *)

val last_evals : unit -> int
(** The scores the calling domain's last {!argmax} or {!argmax_below}
    computed: every neighbour but [skip] on a scanned row, the members of
    the scanned blocks on an indexed one. *)

val last_bounds : unit -> int
(** The block bounds that call computed: the row's block count on an
    indexed row, [0] otherwise. *)

val geometric : packed:Geometry.Torus.Packed.t -> target:int -> t
(** Degree-agnostic geometric routing ([9, 10] in the paper): score
    [1 / ||x_v - x_t||] (L∞) over the packed coordinate store.  Used by
    experiment E11 to show objective-based greedy routing is more
    robust. *)

val hyperbolic : Hyperbolic.Hrg.t -> target:int -> t
(** Geometric routing on hyperbolic random graphs: the objective [phi_H] of
    Section 11, [n / (w_t w_min sqrt(cosh d_H(v, t)))].  Maximising [phi_H]
    minimises the hyperbolic distance to the target.  Scores read
    [packed_coords]. *)

val of_fun : name:string -> target:int -> (int -> float) -> t
(** Wrap an arbitrary scoring function; the target's score is forced to
    [infinity].  (Lattice-greedy on Kleinberg graphs uses this with the
    negated Manhattan distance.) *)

val hash_unit : seed:int -> int -> float
(** [hash_unit ~seed v]: deterministic uniform in [[0, 1)] from one
    SplitMix64 mix of [(seed, v)].  Implemented on native ints (no boxed
    [Int64] per call); the output is pinned by regression tests. *)

val noisy_factor : seed:int -> spread:float -> t -> t
(** Theorem 3.5, bounded relaxation: multiply each vertex's score by a
    deterministic pseudo-random factor [exp u], [u] uniform in
    [[-spread, spread]] (a function of [seed] and the vertex id).  The
    target's score stays [infinity].  Chains off the base objective's
    [score], so it inherits the base's fast path. *)

val noisy_polynomial :
  seed:int -> delta:float -> weights:float array -> t -> t
(** Theorem 3.5, full relaxation: multiply each score by
    [M_v^(u delta)] with [M_v = min(w_v, 1 / score v)] and [u] uniform in
    [[-1, 1]] — the [min(w_v, phi(v)^-1)^(o(1))] perturbation class.  With
    [delta = o(1)] all theorems survive; constant [delta] degrades routing
    (Remark 10.1), which experiment E6 demonstrates. *)

(** Per-route score memo: a vertex's score is computed at most once per
    route even when several protocol phases revisit it.  Values are cached
    by vertex id on a {!Sparse_graph.Scratch}; its epoch stamp invalidates
    the whole cache in O(1) when the scratch is reused for the next route.
    Sound because every objective above is a pure function of the vertex
    id. *)
module Memo : sig
  type scratch = Sparse_graph.Scratch.t
  (** Reusable backing store: 16 bytes per vertex (stamp and score),
      grown to the largest [n] wrapped and kept.  Not thread-safe: use one
      scratch per domain. *)

  val create : unit -> scratch

  val wrap : scratch -> n:int -> t -> t
  (** [wrap scratch ~n t]: [t] with its [score] memoised over vertex ids
      [0 .. n-1], and its {!kernel} kept.  Starts a fresh epoch
      (previous cached values become invisible; an objective from an
      earlier [wrap] stays correct but stops caching).  Observability
      counters are unaffected — routers count logical evaluations before
      calling [score]. *)
end
