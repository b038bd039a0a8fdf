(** Algorithm 2 of the paper: the distributed greedy Φ-DFS exploration.

    Whenever the walk reaches a vertex with a strictly better objective than
    anything seen so far (and that vertex has an even better neighbour), a
    new depth-first search restricted to the sublevel set [G[V >= Φ]] with
    [Φ = φ(v)] is started; inner DFSs pause outer ones and are discarded on
    failure, resuming the outer search where it left off.  Per vertex only a
    constant amount of state is stored ([Φ], parent pointer, resume flag,
    previous [Φ]), and the message carries three scalars — exactly the
    memory model of the paper.

    The protocol satisfies conditions (P1)–(P3), so by Theorem 3.4 it always
    delivers when source and target share a component, a.a.s. within
    [(2+o(1))/|log(beta-2)| * log log n] steps.

    Steps are counted as edge traversals of the message, including every
    backtracking move. *)

val route :
  graph:Sparse_graph.Graph.t ->
  objective:Objective.t ->
  source:int ->
  ?max_steps:int ->
  unit ->
  Outcome.t
(** [max_steps] defaults to [200 * n + 10_000]; exceeding it yields [Cutoff]
    (the theory guarantees polynomially many steps, and in practice runs end
    far below the default).

    Cost: each step scans one neighbourhood through {!Objective.argmax} /
    {!Objective.argmax_below} (allocation-free with a kernel) and
    evaluates the objective once at the vertex it moves to.  The per-vertex
    state lives on this domain's {!Sparse_graph.Scratch}: 40 bytes per
    vertex (stamp, two int and two float columns), grown to the largest
    [n] routed and kept, so a call allocates O(visited + steps) — the
    walk list and, while event recording is armed, one event per hop —
    and nothing of size n.
    @raise Failure if called while this domain's scratch is held (e.g.
    from inside an objective evaluated by another route or BFS). *)
