(** The strictly local knowledge of a node, per Section 2.2 of the paper:
    "Every vertex has local information, i.e., it knows the address of
    itself and of its neighbors", where an address is the pair (position,
    weight).  Distributed protocol handlers receive exactly one of these
    views plus the message contents — nothing else — so locality holds by
    construction, not by promise. *)

type address = { id : int; weight : float; position : Geometry.Torus.point }

type config = {
  dim : int;
  norm : Geometry.Torus.norm;  (** the instance's torus norm *)
  denom : float;  (** the model constant [w_min * n] in the objective phi *)
}
(** Protocol configuration: global {e constants} of the model (known to
    every participant, like the protocol version), not topology
    knowledge. *)

type t = {
  config : config;
  self : address;
  neighbors : address array;  (** ascending by id *)
}

val config : Girg.Instance.t -> config
(** The instance's model constants. *)

val address : Girg.Instance.t -> int -> address
(** Vertex [v]'s address, its position copied out of the packed store. *)

val view : config -> Girg.Instance.t -> int -> t
(** Vertex [v]'s view, built on demand: O(deg v) time and allocation, so
    a protocol that builds the views of the nodes a message reaches costs
    what the walk touches, not O(n). *)

val phi : t -> address -> target:address -> float
(** The objective [phi] of the given address towards [target], computed
    from constants every node knows; [infinity] when the address {e is} the
    target.  The same floats as {!Greedy_routing.Objective.girg_phi} under
    every norm and dimension. *)

val best_neighbor : t -> target:address -> (address * float) option
(** The neighbour maximising [phi] towards the target (ties to the smaller
    id), or [None] for an isolated node. *)
