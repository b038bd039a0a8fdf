(* Offline analytics over the observability streams the other binaries
   emit:

     obs_cli trace tree FILE...          [--trace ID]
     obs_cli trace critical-path FILE... [--trace ID]
     obs_cli trace flame FILE...         [--trace ID] [-o FILE]
     obs_cli trace chrome FILE...        [--trace ID] [-o FILE]
     obs_cli events analyze FILE         [--n N] [--json FILE]

   The trace subcommands read smallworld.trace.v1 JSONL (written by
   `graphs_cli route --trace-out` and `serve --trace-out`), merge every
   record of one trace into a single span tree (client span on top,
   server stages and algorithm spans grafted under it), and render it
   as an ASCII tree, a critical path, flamegraph.pl folded stacks, or
   Chrome trace-event JSON.

   `events analyze` reads smallworld.events.v1 JSONL (from
   `--events-out` on route / serve / experiments run) and computes the
   paper's trajectory statistics: hop counts vs log log n, per-hop
   objective progress, gravity/pressure phase occupancy, dead-end and
   patch rates.  An empty stream (SMALLWORLD_OBS=0) analyzes to a
   zero-filled report, not an error.                                  *)

open Cmdliner

let fail_usage fmt =
  Printf.ksprintf (fun m -> Api.Cli.fail (Api.Error.make Api.Error.Usage "%s" m)) fmt

let fail_io fmt = Printf.ksprintf (fun m -> Api.Cli.fail (Api.Error.make Api.Error.Io "%s" m)) fmt

let with_input file f =
  match In_channel.with_open_text file f with
  | v -> v
  | exception Sys_error e -> fail_io "%s" e

let write_output output text =
  match output with
  | None -> print_string text
  | Some file ->
      Out_channel.with_open_text file (fun oc -> output_string oc text);
      Printf.eprintf "wrote %s\n" file

(* ------------------------------------------------------------------ *)
(* trace: read, pick one trace id, merge                               *)

let read_trace_files files =
  List.concat_map
    (fun file ->
      let records, errors = with_input file Obs.Profile.read_channel in
      List.iter (fun e -> Printf.eprintf "warning: %s: %s\n" file e) errors;
      records)
    files

let select_trace ~trace files =
  let records = read_trace_files files in
  if records = [] then
    fail_io "no trace records in %s" (String.concat ", " files);
  let ids = Obs.Profile.trace_ids records in
  let tid =
    match trace with
    | Some t ->
        if List.mem t ids then t
        else
          fail_usage "no records for trace %S (file holds: %s)" t
            (String.concat ", " ids)
    | None -> (
        match ids with
        | [ only ] -> only
        | _ ->
            fail_usage "file holds %d traces; pick one with --trace ID:\n  %s"
              (List.length ids)
              (String.concat "\n  " ids))
  in
  match Obs.Profile.merge ~trace_id:tid records with
  | Ok root -> root
  | Error e -> Api.Cli.fail (Api.Error.make Api.Error.Bad_request "%s" e)

let files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE"
         ~doc:"smallworld.trace.v1 JSONL file(s); records of one trace may be \
               spread across several files (client and server sides).")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"ID"
         ~doc:"Trace id to assemble.  Required only when the files hold more \
               than one trace.")

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write to $(docv) instead of stdout.")

let tree_cmd =
  let doc = "Render the merged span tree of one trace as an ASCII table." in
  let run files trace =
    let record = select_trace ~trace files in
    Printf.printf "trace %s (root %s, origin %s)\n" record.Obs.Profile.tr_trace
      record.tr_root.Obs.Span.name record.tr_origin;
    print_string (Obs.Export.span_table record.tr_root)
  in
  Cmd.v (Cmd.info "tree" ~doc) Term.(const run $ files_arg $ trace_arg)

let critical_path_cmd =
  let doc =
    "Show the critical path: the heaviest-child chain from the trace root, \
     with each span's self contribution (the sum of self times telescopes to \
     exactly the root's wall time)."
  in
  let run files trace =
    let record = select_trace ~trace files in
    let path = Obs.Profile.critical_path record.Obs.Profile.tr_root in
    Printf.printf "critical path of trace %s:\n" record.tr_trace;
    Printf.printf "  %-32s %12s %12s\n" "span" "wall(ms)" "self(ms)";
    List.iter
      (fun (h : Obs.Profile.hop) ->
        Printf.printf "  %-32s %12.3f %12.3f\n" h.cp_name
          (h.cp_wall_s *. 1e3) (h.cp_self_s *. 1e3))
      path;
    Printf.printf "  %-32s %12s %12.3f\n" "total (= root wall)" ""
      (Obs.Profile.total path *. 1e3)
  in
  Cmd.v (Cmd.info "critical-path" ~doc) Term.(const run $ files_arg $ trace_arg)

let flame_cmd =
  let doc =
    "Emit the merged trace as folded stacks (flamegraph.pl / speedscope): \
     one 'root;child;leaf MICROS' line per span with self time in µs."
  in
  let run files trace output =
    let record = select_trace ~trace files in
    write_output output (Obs.Export.folded_stacks record.Obs.Profile.tr_root)
  in
  Cmd.v (Cmd.info "flame" ~doc)
    Term.(const run $ files_arg $ trace_arg $ output_arg)

let chrome_cmd =
  let doc =
    "Emit the merged trace as Chrome trace-event JSON (chrome://tracing, \
     Perfetto).  The timeline is synthetic — spans are rolled-up profiles — \
     but durations and nesting are real."
  in
  let run files trace output =
    let record = select_trace ~trace files in
    write_output output
      (Obs.Export.chrome_trace ~t0:record.Obs.Profile.tr_t0
         record.Obs.Profile.tr_root
      ^ "\n")
  in
  Cmd.v (Cmd.info "chrome" ~doc)
    Term.(const run $ files_arg $ trace_arg $ output_arg)

let trace_group =
  let doc = "Assemble and render smallworld.trace.v1 span trees." in
  Cmd.group (Cmd.info "trace" ~doc)
    [ tree_cmd; critical_path_cmd; flame_cmd; chrome_cmd ]

(* ------------------------------------------------------------------ *)
(* events analyze                                                      *)

let read_events_file file =
  with_input file (fun ic ->
      let events = ref [] and lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           if String.trim line <> "" then
             match Obs.Export.json_of_string line with
             | Error e -> Printf.eprintf "warning: %s:%d: %s\n" file !lineno e
             | Ok j -> (
                 match Obs.Export.event_of_json j with
                 | Error e -> Printf.eprintf "warning: %s:%d: %s\n" file !lineno e
                 | Ok ev -> events := ev :: !events)
         done
       with End_of_file -> ());
      (* The ring dump is already seq-ordered, but concatenated or
         hand-edited files may not be; the analysis needs order. *)
      List.sort
        (fun (a : Obs.Events.event) (b : Obs.Events.event) ->
          compare a.seq b.seq)
        (List.rev !events))

let analyze_cmd =
  let doc =
    "Compute trajectory statistics from a smallworld.events.v1 stream: \
     hop-count distribution (vs log log n when --n is given), per-hop \
     objective progress, gravity/pressure phase occupancy, dead-end and \
     patch-entry rates."
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"smallworld.events.v1 JSONL file (--events-out of route, \
                 serve, or experiments run).")
  in
  let n_arg =
    Arg.(value & opt (some int) None & info [ "n" ] ~docv:"N"
           ~doc:"Vertex count of the routed instance; enables the hop-mean \
                 vs ln(ln N) comparison.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write the smallworld.analysis.v1 JSON document to \
                 $(docv).")
  in
  let run file n json =
    let events = read_events_file file in
    let a = Obs.Analysis.analyze ?n events in
    print_string (Obs.Analysis.render a);
    Option.iter
      (fun out ->
        Out_channel.with_open_text out (fun oc ->
            output_string oc (Obs.Export.json_to_string (Obs.Analysis.to_json a));
            output_char oc '\n');
        Printf.eprintf "wrote %s\n" out)
      json
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ file_arg $ n_arg $ json_arg)

let events_group =
  let doc = "Analyze smallworld.events.v1 flight-recorder streams." in
  Cmd.group (Cmd.info "events" ~doc) [ analyze_cmd ]

(* ------------------------------------------------------------------ *)

let main =
  let doc = "Trace assembly, profile export, and event-stream analytics." in
  Cmd.group (Cmd.info "smallworld-obs" ~doc) [ trace_group; events_group ]

let () = exit (Cmd.eval main)
