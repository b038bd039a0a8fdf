type mode = Gravity | Pressure of float (* objective of the vertex we got stuck at *)

let c_routes = Obs.Metrics.counter "route.gravity.routes"
let c_stuck = Obs.Metrics.counter "route.gravity.stuck_events"
let c_pressure_steps = Obs.Metrics.counter "route.gravity.pressure_steps"
let c_steps = Obs.Metrics.counter "route.gravity.steps"
let c_visited = Obs.Metrics.counter "route.gravity.visited"

let route ~graph ~objective ~source ?max_steps () =
  let open Objective in
  Obs.Metrics.incr c_routes;
  let recording = Obs.Events.recording () in
  let rid = if recording then Obs.Events.next_route_id () else 0 in
  let n = Sparse_graph.Graph.n graph in
  let max_steps = Option.value max_steps ~default:((50 * n) + 1000) in
  let phi = Objective.scorer objective in
  let target = objective.target in
  Sparse_graph.Scratch.with_domain ~n @@ fun scratch ->
  (* Visit counts, valid at stamped (visited) vertices. *)
  let visits = Sparse_graph.Scratch.ints scratch 0 in
  let visits_of u = if Sparse_graph.Scratch.mem scratch u then visits.(u) else 0 in
  let visited = ref 0 in
  let steps = ref 0 in
  let record v =
    Sparse_graph.Scratch.push scratch v;
    if Sparse_graph.Scratch.add scratch v then begin
      visits.(v) <- 0;
      incr visited
    end;
    visits.(v) <- visits.(v) + 1
  in
  record source;
  if recording then
    Obs.Events.emit
      (Obs.Events.Route_hop { route = rid; hop = 0; vertex = source; objective = phi source });
  let hop_event u =
    if recording then
      Obs.Events.emit (Obs.Events.Route_hop { route = rid; hop = !steps; vertex = u; objective = phi u })
  in

  (* Least-visited neighbour; ties broken towards better objective, then
     smaller id (the iteration order). *)
  let pressure_neighbor v =
    let best = ref (-1) and best_visits = ref max_int and best_score = ref neg_infinity in
    Sparse_graph.Graph.iter_neighbors graph v (fun u ->
        let c = visits_of u and s = phi u in
        if c < !best_visits || (c = !best_visits && s > !best_score) then begin
          best := u;
          best_visits := c;
          best_score := s
        end);
    !best
  in
  let result = ref None in
  let cur = ref source in
  let mode = ref Gravity in
  while !result = None do
    let v = !cur in
    if v = target then result := Some Outcome.Delivered
    else if !steps >= max_steps then result := Some Outcome.Cutoff
    else begin
      (match !mode with
      | Pressure stuck when phi v > stuck ->
          mode := Gravity;
          if recording then
            Obs.Events.emit (Obs.Events.Phase_switch { route = rid; vertex = v; phase = "gravity" })
      | Pressure _ | Gravity -> ());
      match !mode with
      | Gravity ->
          let u = Objective.argmax objective graph v ~skip:(-1) ~lo:neg_infinity in
          if u >= 0 && phi u > phi v then begin
            incr steps;
            record u;
            hop_event u;
            cur := u
          end
          else if u < 0 then result := Some Outcome.Dead_end (* isolated vertex *)
          else begin
            (* Stuck: remember the local optimum and take a pressure hop. *)
            Obs.Metrics.incr c_stuck;
            mode := Pressure (phi v);
            if recording then
              Obs.Events.emit (Obs.Events.Phase_switch { route = rid; vertex = v; phase = "pressure" });
            let u = pressure_neighbor v in
            incr steps;
            Obs.Metrics.incr c_pressure_steps;
            record u;
            hop_event u;
            cur := u
          end
      | Pressure _ ->
          let u = pressure_neighbor v in
          incr steps;
          Obs.Metrics.incr c_pressure_steps;
          record u;
          hop_event u;
          cur := u
    end
  done;
  match !result with
  | None -> assert false
  | Some status ->
      Obs.Metrics.add c_steps !steps;
      Obs.Metrics.add c_visited !visited;
      { Outcome.status; steps = !steps; visited = !visited; walk = Sparse_graph.Scratch.trail scratch }
