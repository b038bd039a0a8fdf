(** The d-dimensional unit torus [T^d = R^d / Z^d].

    Points are float arrays of length [d] with coordinates in [[0, 1)].  The
    paper's default metric is the wrap-around L∞ (max) norm; L1 and L2 are
    provided because the GIRG definition is norm-agnostic up to constants. *)

type point = float array

type norm = Linf | L2 | L1

val coord_dist : float -> float -> float
(** [coord_dist a b] is the 1-dimensional wrap-around distance
    [min (|a - b|) (1 - |a - b|)], always in [[0, 1/2]]. *)

val interval_dist : float -> lo:float -> hi:float -> float
(** [interval_dist q ~lo ~hi] is the wrap-around distance from [q] to the
    closest point of the arc [[lo, hi]] ([lo <= hi], both in [[0, 1)]):
    [0] inside it, else the nearer endpoint's {!coord_dist}.  As
    computed in floating point it never exceeds [coord_dist x q] for any
    [x] in [[lo, hi]] (rounding is monotone, and the far branch
    [1 - d] is exact), so norms and powers of it bound the distances of
    every point of a box from below. *)

val dist : ?norm:norm -> point -> point -> float
(** [dist x y] is the toroidal distance under [norm] (default [Linf]).
    @raise Invalid_argument if dimensions differ. *)

val dist_linf : point -> point -> float
(** Specialised L∞ distance (the hot path of every sampler and router). *)

val dist_fn : norm -> point -> point -> float
(** The distance function for a norm, resolved once (for hot loops).
    Note [dist_linf x y <= dist_fn L2 x y <= dist_fn L1 x y] pointwise, so
    L∞-based cell separation bounds lower-bound every supported norm. *)

val random_point : Prng.Rng.t -> dim:int -> point
(** A uniform point of [T^d]. *)

val wrap : float -> float
(** [wrap x] maps [x] into [[0, 1)] by taking the fractional part. *)

val add : point -> point -> point
(** Coordinate-wise addition modulo 1. *)

val ball_volume : dim:int -> radius:float -> float
(** Volume of an L∞ ball of radius [r] on the torus:
    [min 1 ((2 r)^d)]. *)

val ball_radius_of_volume : dim:int -> volume:float -> float
(** Inverse of {!ball_volume} for volumes in [[0, 1]]. *)

val to_string : point -> string
(** Human-readable rendering, e.g. ["(0.25, 0.75)"]. *)

(** Structure-of-arrays position store: all coordinates in one contiguous
    dim-strided [float array].  The [dist_*_fn] selectors resolve a
    [(norm, dim)]-specialised kernel once, outside the hot loop; each kernel
    performs the same floating-point operations in the same order as the
    generic {!dist} loops, so distances (and everything derived from them)
    are bit-identical to the array-of-points path. *)
module Packed : sig
  type t

  val of_points : dim:int -> point array -> t
  (** Pack an array of [dim]-dimensional points.
      @raise Invalid_argument if a point has the wrong dimension. *)

  val of_flat : dim:int -> float array -> t
  (** Wrap a dim-strided buffer as it is, without copying: vertex [v]'s
      coordinates are indices [v*dim .. v*dim + dim - 1].  The store owns
      the buffer from then on; do not mutate it.
      @raise Invalid_argument if [dim < 1] or the length is not a multiple
      of [dim]. *)

  val dim : t -> int
  val length : t -> int
  (** Number of stored points. *)

  val data : t -> float array
  (** The backing buffer, length [length * dim]; vertex [v]'s coordinates
      occupy indices [v*dim .. v*dim + dim - 1].  Exposed for flat inner
      loops; treat as read-only. *)

  val get : t -> int -> point
  (** Fresh copy of vertex [v]'s coordinates (cold paths only). *)

  val coord : t -> int -> int -> float
  (** [coord t v i] is coordinate [i] of vertex [v]. *)

  val dist_to_fn : t -> norm -> int -> point -> float
  (** [dist_to_fn t norm] resolves once to a kernel mapping [(v, q)] to the
      toroidal distance between stored vertex [v] and query point [q].
      Specialised (branch-free straight-line code) for [dim <= 3]. *)

  val dist_between_fn : t -> norm -> int -> int -> float
  (** Same, between two stored vertices — the edge samplers' inner loop. *)
end
