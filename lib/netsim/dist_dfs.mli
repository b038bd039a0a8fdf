(** Algorithm 2 (the distributed greedy Φ-DFS) in its native habitat: as a
    message-passing protocol on the {!Sim} substrate.

    Exactly as in the paper's pseudocode, the message carries three scalars
    (the best objective seen, the current Φ, and — implicitly, as the
    sender of the message — the last visited vertex), and every node stores
    a constant number of values (its Φ, a parent pointer, a resume flag and
    the previous Φ).  Each handler invocation uses only the node's
    {!Local_view.t} plus the message.  Views are built and state is kept
    only for the nodes the token reaches, so a route allocates in
    proportion to the degrees along its walk, not to n.

    The walk, step count and outcome are {e identical} to the centralised
    {!Greedy_routing.Patch_dfs.route} — property-tested equivalence. *)

type fields = {
  m_phi : float;  (** the current Φ *)
  best_seen : float;  (** best objective encountered so far *)
  target : Local_view.address;
}

type msg = Explore of fields | Backtrack of fields

val run :
  inst:Girg.Instance.t ->
  source:int ->
  target:int ->
  ?latency:(src:int -> dst:int -> float) ->
  ?max_deliveries:int ->
  unit ->
  Greedy_routing.Outcome.t * Sim.stats
