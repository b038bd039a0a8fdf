(* Command-line driver for the paper-reproduction experiment suite.

     experiments_cli list
     experiments_cli list-metrics
     experiments_cli run [-e E3] [-e E5] [--quick] [--seed N] [--csv DIR]
                         [--obs-out FILE] [--events-out FILE] [--jobs N]    *)

open Cmdliner

let scale_of_quick quick = if quick then Experiments.Context.Quick else Experiments.Context.Standard

(* The jobs / seed / obs-out flags are the shared Api.Cli terms, so
   this binary validates them exactly like graphs_cli and serve. *)
let jobs_arg = Api.Cli.jobs
let apply_jobs = Api.Cli.apply_jobs

let list_cmd =
  let doc = "List all experiments with the paper claim each one reproduces." in
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-4s %s\n     %s\n\n" e.Experiments.Registry.id e.title e.claim)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let list_metrics_cmd =
  let doc =
    "List every registered metric name and kind (the run-manifest schema); \
     metric registration happens at startup, so this is the complete set."
  in
  let run () =
    List.iter
      (fun (name, kind) ->
        Printf.printf "%-36s %s\n" name (Obs.Metrics.kind_to_string kind))
      (Obs.Metrics.list_metrics Obs.Metrics.default)
  in
  Cmd.v (Cmd.info "list-metrics" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc =
    "Run experiments (all by default) and print their tables, each followed by its \
     span table (phase timings; omitted under SMALLWORLD_OBS=0)."
  in
  let ids =
    Arg.(value & opt_all string [] & info [ "e"; "experiment" ] ~docv:"ID"
           ~doc:"Experiment id (e.g. E3); repeatable.  Default: all.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Small sizes (seconds instead of minutes).")
  in
  let seed = Api.Cli.seed in
  let csv_dir =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR"
           ~doc:"Also write every table as a CSV file into $(docv).")
  in
  let obs_out = Api.Cli.obs_out in
  let events_out =
    Arg.(value & opt (some string) None & info [ "events-out" ] ~docv:"FILE"
           ~doc:"Dump the flight-recorder event ring as smallworld.events.v1 \
                 JSONL after each experiment.  The ring is cleared per \
                 experiment, so the file holds the $(i,last) selected \
                 experiment's stream — select one with -e for a coherent dump \
                 (feed it to `obs_cli events analyze`).  Empty under \
                 SMALLWORLD_OBS=0.")
  in
  let run ids quick seed csv_dir obs_out events_out jobs =
    match apply_jobs jobs with
    | Error e -> Error e
    | Ok () ->
    let ctx = Experiments.Context.make ~seed ~scale:(scale_of_quick quick) () in
    let selected =
      match ids with
      | [] -> Ok Experiments.Registry.all
      | ids ->
          let rec resolve acc = function
            | [] -> Ok (List.rev acc)
            | id :: rest -> begin
                match Experiments.Registry.find id with
                | Some e -> resolve (e :: acc) rest
                | None -> Error (`Msg (Printf.sprintf "unknown experiment %S" id))
              end
          in
          resolve [] ids
    in
    match selected with
    | Error e -> Error e
    | Ok experiments ->
        let manifest_oc = Option.map open_out obs_out in
        List.iter
          (fun e ->
            Obs.Metrics.reset Obs.Metrics.default;
            Obs.Span.clear_roots ();
            Obs.Events.clear ();
            let t0 = Sys.time () in
            let tables, span = Experiments.Registry.run_traced e ctx in
            print_string (Experiments.Registry.render_header e);
            List.iter (fun t -> print_string (Stats.Table.render t); print_newline ()) tables;
            (match csv_dir with
            | None -> ()
            | Some dir ->
                if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
                List.iteri
                  (fun i t ->
                    let file =
                      Filename.concat dir
                        (Printf.sprintf "%s_%d.csv" (String.lowercase_ascii e.id) i)
                    in
                    Out_channel.with_open_text file (fun oc ->
                        output_string oc (Stats.Table.to_csv t)))
                  tables);
            Option.iter
              (fun oc ->
                output_string oc
                  (Obs.Export.manifest_line ~experiment:e.id ~seed
                     ~scale:(Experiments.Context.scale_name ctx)
                     ~registry:Obs.Metrics.default ~span ());
                output_char oc '\n';
                flush oc)
              manifest_oc;
            Option.iter
              (fun file ->
                Out_channel.with_open_text file (fun oc ->
                    Obs.Export.write_events oc (Obs.Events.events ())))
              events_out;
            match span with
            | Some s ->
                print_string (Obs.Export.span_table s);
                Printf.printf "(%s finished in %.1fs)\n\n%!" e.id s.Obs.Span.wall_s
            | None -> Printf.printf "(%s finished in %.1fs)\n\n%!" e.id (Sys.time () -. t0))
          experiments;
        Option.iter close_out manifest_oc;
        Ok ()
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      term_result
        (const run $ ids $ quick $ seed $ csv_dir $ obs_out $ events_out
       $ jobs_arg))

let main =
  let doc = "Reproduction suite for 'Greedy Routing and the Algorithmic Small-World Phenomenon'" in
  Cmd.group (Cmd.info "smallworld-experiments" ~doc)
    [ list_cmd; list_metrics_cmd; run_cmd ]

let () = exit (Cmd.eval main)
