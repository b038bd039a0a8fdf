(** Geometric inhomogeneous random graphs (Section 2.1 of the paper).

    An instance bundles the sampled weights, positions, and the resulting
    graph; the routing protocols of [greedy_routing] take instances of this
    type (or anything exposing the same data). *)

type sampler =
  | Auto  (** {!Cell} above {!threshold_n} vertices, {!Naive} below *)
  | Use_naive
  | Use_cell

type t = private {
  params : Params.t;
  weights : float array;
  packed : Geometry.Torus.Packed.t;
      (** The positions: the instance's one coordinate store, flat and
          dim-strided (see {!Geometry.Torus.Packed}).  [Packed.get] copies
          out one vertex's point for cold paths. *)
  graph : Sparse_graph.Graph.t;
  hubs : Hub_index.t option Atomic.t;  (** see {!hub_index} *)
}

val make :
  params:Params.t ->
  weights:float array ->
  packed:Geometry.Torus.Packed.t ->
  graph:Sparse_graph.Graph.t ->
  t
(** The one constructor: every instance, generated, loaded or built by
    hand, starts with no {!hub_index}. *)

val with_graph : t -> Sparse_graph.Graph.t -> t
(** The instance over another graph on the same vertices (a mutated or
    compacted view).  It shares the built {!hub_index} when the new graph
    reads the same base arrays, as every {!Sparse_graph.Graph.apply}
    result does, and starts afresh otherwise. *)

val hub_index : t -> Hub_index.t
(** The block index over the graph's heavy base rows, built on the first
    call (the first [Objective.girg_phi]) and kept.  Domain-safe without
    a lock: racing domains may each build one, and all read the one that
    was published first.  Instances that are never routed never build
    it. *)

val threshold_n : int
(** Instance size below which [Auto] prefers the naive sampler (small graphs
    build faster without the grid machinery). *)

val sample_weights : rng:Prng.Rng.t -> params:Params.t -> count:int -> float array
(** Power-law weights: density proportional to [w^-beta] on [w >= w_min]. *)

val sample_positions :
  rng:Prng.Rng.t -> params:Params.t -> count:int -> Geometry.Torus.point array
(** Independent uniform positions on [T^dim]. *)

val vertex_count : rng:Prng.Rng.t -> params:Params.t -> int
(** Poisson(n) when [params.poisson_count], else exactly [n]. *)

type vertex_data = {
  count : int;  (** realised vertex count (after any Poisson draw) *)
  v_weights : float array;
  v_positions : Geometry.Torus.point array;
  rng_edges : Prng.Rng.t;  (** the substream edge sampling consumes *)
}

val derive_vertex_data : rng:Prng.Rng.t -> Params.t -> vertex_data
(** The deterministic prefix of {!generate}: splits [rng] into the
    per-stage substreams and draws count, weights and positions.  A shard
    process calls this with [Prng.Rng.create ~seed] to reproduce exactly
    the vertex data and edge-rng that single-process generation uses —
    the foundation of the sharded pipeline's bit-identity guarantee. *)

val generate : ?sampler:sampler -> ?pool:Parallel.Pool.t -> rng:Prng.Rng.t -> Params.t -> t
(** Sample a complete instance: vertex count, weights, positions, edges.
    The rng is split into independent substreams per stage, so e.g. the
    weights of instance [k] do not depend on which sampler was used.
    Edge sampling runs on [pool] (default: the shared {!Parallel.Global}
    pool) and is bit-reproducible for any job count — see {!Cell}. *)

val generate_with :
  ?sampler:sampler ->
  ?pool:Parallel.Pool.t ->
  rng:Prng.Rng.t ->
  params:Params.t ->
  weights:float array ->
  positions:Geometry.Torus.point array ->
  unit ->
  t
(** Build an instance from externally chosen weights/positions (used to pin
    source/target vertices adversarially, as the paper's theorems allow).
    The point array is a generation input: the samplers read it, and the
    instance keeps it packed once into [packed]. *)

val generate_pinned :
  ?sampler:sampler ->
  ?pool:Parallel.Pool.t ->
  rng:Prng.Rng.t ->
  params:Params.t ->
  pinned:(float * Geometry.Torus.point) list ->
  unit ->
  t
(** The adversarial setting of the paper's theorems: "an adversary may pick
    weights and positions of s and t, while the remaining vertices and all
    edges are drawn randomly".  The k pinned (weight, position) pairs become
    vertices [0 .. k-1]; everything else is sampled as in {!generate}.
    @raise Invalid_argument if a pinned weight is below [w_min] or a pinned
    position has the wrong dimension. *)

val connection_prob : t -> int -> int -> float
(** Exact connection probability of a vertex pair in this instance: the
    quantity greedy routing maximises towards the target. *)

val expected_avg_weight : Params.t -> float
(** Mean of the weight distribution: [w_min (beta-1)/(beta-2)]. *)
