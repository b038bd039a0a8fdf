(** Hyperbolic random graphs (Krioukov et al. 2010), Definition 11.1 of the
    paper, together with the exact mapping onto one-dimensional GIRGs from
    Section 11.

    The model places [n] vertices on a hyperbolic disk of radius
    [R = 2 ln n + radius_c]: angles uniform, radii with density
    [alpha_h sinh(alpha_h r) / (cosh(alpha_h R) - 1)].  Vertices connect with
    probability [1 / (1 + e^{(d_H - R)/(2 T)})]; in the limit [T -> 0] the
    threshold rule [d_H <= R] applies.

    The GIRG embedding is [w_v = n e^{-r_v/2}], [x_v = angle_v / 2pi], with
    power-law exponent [beta = 2 alpha_h + 1], decay [alpha = 1/T], and
    [w_min = e^{-radius_c / 2}].  Under this mapping geometric routing
    (minimising hyperbolic distance to the target) becomes greedy routing for
    the objective [phi_H] of Section 11 — implemented in the routing library. *)

type params = {
  n : int;  (** number of vertices *)
  alpha_h : float;  (** radial dispersion; power law [beta = 2 alpha_h + 1] *)
  radius_c : float;  (** the constant [C] in [R = 2 ln n + C] *)
  temperature : float;  (** [T >= 0]; [0] is the threshold model *)
}

val make : ?alpha_h:float -> ?radius_c:float -> ?temperature:float -> n:int -> unit -> params
(** Defaults: [alpha_h = 0.75] (beta = 2.5), [radius_c = 0], [temperature = 0].
    @raise Invalid_argument unless [n >= 1], [alpha_h] in (1/2, 1), [T] in
    [0, 1). *)

val disk_radius : params -> float
(** [R = 2 ln n + radius_c]. *)

type polar = { r : float; angle : float }
(** A point of the hyperbolic disk in native coordinates, [angle] in
    [[0, 2 pi)]. *)

val sample_polar : rng:Prng.Rng.t -> params -> polar
val sample_points : rng:Prng.Rng.t -> params -> count:int -> polar array

val distance : polar -> polar -> float
(** Hyperbolic distance via the stable identity
    [cosh d = cosh (r_x - r_y) + (1 - cos dangle) sinh r_x sinh r_y]. *)

val edge_prob : params -> float -> float
(** [edge_prob p d_h]: connection probability at hyperbolic distance [d_h]. *)

val beta : params -> float
(** Power-law exponent of the equivalent GIRG: [2 alpha_h + 1]. *)

val girg_weight : params -> r:float -> float
(** [n e^{-r/2}]. *)

val girg_position : polar -> Geometry.Torus.point
(** [[| angle / 2 pi |]]. *)

val girg_packed : polar array -> Geometry.Torus.Packed.t
(** Every point's {!girg_position}, as one 1-dimensional packed store. *)

val polar_of_girg : params -> weight:float -> position:Geometry.Torus.point -> polar
(** Inverse mapping (radius [2 ln (n/w)]). *)

val kernel : params -> Girg.Kernel.t
(** The HRG edge kernel expressed in GIRG coordinates, with a rejection
    envelope valid for all radii [>= 1]; vertices closer to the disk centre
    carry weights above the kernel's [weight_cap] and are handled
    exhaustively by the cell sampler. *)

type t = {
  params : params;
  coords : polar array;
  packed_coords : float array;
      (** Same points as [coords], interleaved [[r0; angle0; r1; angle1; ...]]
          — the flat layout the routing hot paths read. *)
  weights : float array;  (** GIRG-equivalent weights *)
  packed : Geometry.Torus.Packed.t;
      (** GIRG-equivalent positions ({!girg_packed} of [coords]) *)
  graph : Sparse_graph.Graph.t;
}

val pack_coords : polar array -> float array
(** Interleave a polar array into the [packed_coords] layout. *)

type sampler = Auto | Use_naive | Use_cell

val generate : ?sampler:sampler -> rng:Prng.Rng.t -> params -> t
(** Sample a complete instance.  [Use_naive] tests all pairs with the native
    hyperbolic distance; [Use_cell] routes generation through the GIRG cell
    sampler with {!kernel} — the two produce identically distributed
    graphs. *)
