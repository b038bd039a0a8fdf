(** History-based patching (the SMTP-style example of Section 5).

    The message carries the list of visited vertices and, for every visited
    vertex, the objective of its best unexplored incident edge.  The
    protocol runs plain greedy while an unvisited improving neighbour
    exists; in a local optimum it physically walks back through the visited
    tree to the vertex owning the globally best unexplored edge and takes
    that edge.  This satisfies (P1)–(P3): greedy choices, poly-time
    exploration, poly-time exhaustive search.

    Steps count every hop of the message, including the walk back through
    the tree. *)

val route :
  graph:Sparse_graph.Graph.t ->
  objective:Objective.t ->
  source:int ->
  ?max_steps:int ->
  unit ->
  Outcome.t
(** [max_steps] defaults to [50 * n + 1000] tree hops.

    Cost: the per-vertex state (visited stamp, tree parent, cursor and end
    of the vertex's sorted neighbour row) lives on this domain's
    {!Sparse_graph.Scratch}: 32 bytes per vertex, grown to the largest [n]
    routed and kept.  A call allocates O(visited degrees + steps): each
    visited vertex's sorted row, the frontier heap and the walk, and
    nothing of size n.
    @raise Failure if called while this domain's scratch is held. *)
