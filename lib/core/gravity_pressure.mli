(** Gravity–pressure routing (Cvetkovski & Crovella, INFOCOM 2009; [23] in
    the paper) — the comparator that does {e not} satisfy condition (P3).

    Gravity mode forwards greedily; at a local optimum the protocol records
    the stuck objective and switches to pressure mode, forwarding to the
    least-visited neighbour (per-vertex visit counters) until it reaches a
    vertex strictly better than the stuck one, then resumes gravity.  It
    always delivers eventually on a connected component, but Section 5
    explains why it may wander far before returning to the right branch —
    experiment E9 reproduces its step blow-up on sparse graphs. *)

val route :
  graph:Sparse_graph.Graph.t ->
  objective:Objective.t ->
  source:int ->
  ?max_steps:int ->
  unit ->
  Outcome.t
(** [max_steps] defaults to [50 * n + 1000]; unlike the (P1)–(P3) protocols,
    hitting the cap ([Cutoff]) is a real possibility.

    Cost: visit counters live on this domain's {!Sparse_graph.Scratch}:
    16 bytes per vertex (stamp and one int column), grown to the largest
    [n] routed and kept, so a call allocates O(steps) and nothing of size
    n.
    @raise Failure if called while this domain's scratch is held. *)
