type packet = { target : Local_view.address }

let run ~inst ~source ~target ?latency () =
  let n = Sparse_graph.Graph.n inst.Girg.Instance.graph in
  if source < 0 || source >= n || target < 0 || target >= n then
    invalid_arg "Dist_greedy.run: endpoint out of range";
  let config = Local_view.config inst in
  (* Observer state (measurement only, not node knowledge). *)
  let walk = ref [] in
  let status = ref Greedy_routing.Outcome.Cutoff in
  let handler (api : packet Sim.api) ~src:_ { target = tgt } =
    walk := api.Sim.self :: !walk;
    if api.Sim.self = tgt.Local_view.id then begin
      status := Greedy_routing.Outcome.Delivered;
      api.Sim.halt ()
    end
    else begin
      let view = Local_view.view config inst api.Sim.self in
      let own = Local_view.phi view view.Local_view.self ~target:tgt in
      match Local_view.best_neighbor view ~target:tgt with
      | Some (next, score) when score > own -> api.Sim.send ~dst:next.Local_view.id { target = tgt }
      | Some _ | None ->
          status := Greedy_routing.Outcome.Dead_end;
          api.Sim.halt ()
    end
  in
  let sim = Sim.create ~n ?latency ~msg_label:(fun _ -> "packet") ~handler () in
  Sim.inject sim ~dst:source { target = Local_view.address inst target };
  let stats = Sim.run sim in
  let walk = List.rev !walk in
  let distinct = List.sort_uniq compare walk in
  ( {
      Greedy_routing.Outcome.status = !status;
      steps = max 0 (List.length walk - 1);
      visited = List.length distinct;
      walk;
    },
    stats )
