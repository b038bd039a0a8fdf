let id = "E11"
let title = "Objective-based greedy vs degree-agnostic geometric routing"

let claim =
  "Routing by geometric distance alone ignores hub weights and gets stuck \
   far more often than phi-greedy; the gap widens as beta -> 3 where hubs \
   carry less of the graph (cf. the failures reported in [9, 10])."

let run ctx =
  let n = Context.pick ctx ~quick:8192 ~standard:32768 in
  let pairs_count = Context.pick ctx ~quick:200 ~standard:400 in
  let betas = [ 2.2; 2.5; 2.8 ] in
  let table =
    Stats.Table.create
      ~title:(id ^ ": " ^ title)
      ~columns:[ "beta"; "objective"; "success"; "mean steps"; "paper" ]
  in
  List.iteri
    (fun bi beta ->
      let rng = Context.rng ctx ~salt:(11_000 + bi) in
      let params = Girg.Params.make ~dim:2 ~beta ~c:0.25 ~n () in
      let inst = Girg.Instance.generate ~rng params in
      let pairs = Workload.sample_pairs_giant ~rng ~graph:inst.graph ~count:pairs_count in
      let objectives =
        [
          ("phi (weight-aware)", fun ~target -> Greedy_routing.Objective.girg_phi inst ~target);
          ( "geometric (degree-agnostic)",
            fun ~target -> Greedy_routing.Objective.geometric ~packed:inst.packed ~target );
        ]
      in
      List.iter
        (fun (label, objective_for) ->
          let res =
            Workload.run ~graph:inst.graph ~objective_for
              ~protocol:Greedy_routing.Protocol.Greedy ~pairs ()
          in
          Stats.Table.add_row table
            [
              Printf.sprintf "%.1f" beta;
              label;
              Printf.sprintf "%.3f" (Workload.success_rate res);
              Printf.sprintf "%.2f" (Workload.mean_steps res);
              (if String.length label > 3 && String.sub label 0 3 = "phi" then
                 "robust for all beta"
               else "lower success, degrades with beta");
            ])
        objectives)
    betas;
  [ table ]
