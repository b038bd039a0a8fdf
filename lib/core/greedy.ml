(* Metric handles resolve to no-op stubs under SMALLWORLD_OBS=0, so the
   hot loop carries no recording cost when observability is off. *)
let c_routes = Obs.Metrics.counter "route.greedy.routes"
let c_evals = Obs.Metrics.counter "route.greedy.objective_evals"
let c_steps = Obs.Metrics.counter "route.greedy.steps"
let c_dead_ends = Obs.Metrics.counter "route.greedy.dead_ends"

let route ~graph ~objective ~source ?max_steps () =
  let open Objective in
  Obs.Metrics.incr c_routes;
  let recording = Obs.Events.recording () in
  let rid = if recording then Obs.Events.next_route_id () else 0 in
  let max_steps = Option.value max_steps ~default:(Sparse_graph.Graph.n graph + 1) in
  let target = objective.target in
  let phi = Objective.scorer objective in
  if recording then
    Obs.Events.emit
      (Obs.Events.Route_hop { route = rid; hop = 0; vertex = source; objective = phi source });
  let rec go v score_v steps walk =
    if v = target then
      { Outcome.status = Delivered; steps; visited = steps + 1; walk = List.rev walk }
    else if steps >= max_steps then
      { Outcome.status = Cutoff; steps; visited = steps + 1; walk = List.rev walk }
    else begin
      (* Best neighbour; ties resolved towards the smaller id for
         determinism.  The evaluation counter moves once per step, by the
         scores the arg-max computed: worker domains share it. *)
      let best = Objective.argmax objective graph v ~skip:(-1) ~lo:neg_infinity in
      Obs.Metrics.add c_evals (Objective.last_evals ());
      let best_score = if best >= 0 then phi best else neg_infinity in
      if best_score > score_v then begin
        if recording then
          Obs.Events.emit
            (Obs.Events.Route_hop { route = rid; hop = steps + 1; vertex = best; objective = best_score });
        go best best_score (steps + 1) (best :: walk)
      end
      else begin
        if recording then Obs.Events.emit (Obs.Events.Dead_end { route = rid; vertex = v });
        { Outcome.status = Dead_end; steps; visited = steps + 1; walk = List.rev walk }
      end
    end
  in
  let outcome = go source (phi source) 0 [ source ] in
  Obs.Metrics.add c_steps outcome.Outcome.steps;
  if outcome.Outcome.status = Outcome.Dead_end then Obs.Metrics.incr c_dead_ends;
  outcome
