(** Greedy routing (Algorithm 1) as a distributed message handler.

    The packet carries only the target's address; each node consults its
    {!Local_view.t} and either delivers, forwards to its best neighbour, or
    drops.  Running it through {!Sim} produces a walk identical to the
    centralised {!Greedy_routing.Greedy.route} — the equivalence is
    property-tested. *)

type packet = { target : Local_view.address }

val run :
  inst:Girg.Instance.t ->
  source:int ->
  target:int ->
  ?latency:(src:int -> dst:int -> float) ->
  unit ->
  Greedy_routing.Outcome.t * Sim.stats
(** Simulate one routing.  [Outcome.steps] equals the number of link
    traversals; [stats.final_time] is the arrival time under the given link
    latencies (default 1.0 per link).  A node's view is built when the
    packet reaches it, so a route allocates in proportion to the degrees
    along its walk, not to n. *)
