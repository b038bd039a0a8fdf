(** Algorithm 1: pure greedy routing.

    From the current vertex the message moves to the neighbour of maximum
    objective; if no neighbour beats the current vertex the packet is
    dropped (dead end).  Each vertex uses only the addresses of its direct
    neighbours plus the target's address carried in the message. *)

val route :
  graph:Sparse_graph.Graph.t ->
  objective:Objective.t ->
  source:int ->
  ?max_steps:int ->
  unit ->
  Outcome.t
(** [max_steps] defaults to [n + 1], which pure greedy can never exceed
    (the objective strictly increases along the path).

    Cost: each step is one {!Objective.argmax} over the current vertex's
    neighbours — allocation-free for an objective with a kernel on a base
    CSR slice, and below the degree on an indexed hub row — and one
    [route.greedy.objective_evals] update by the scores it computed
    ({!Objective.last_evals}).  Allocation is O(steps): the walk, and one event per
    hop while event recording is armed; it does not grow with degree or
    with n. *)
