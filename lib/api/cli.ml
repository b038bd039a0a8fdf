open Cmdliner

let fail err =
  prerr_endline (Error.to_string err);
  exit (Error.exit_code err.Error.code)

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let jobs =
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains (0 = all cores).  Overrides SMALLWORLD_JOBS; \
               results are identical for any value.")

let apply_jobs = function
  | None -> Ok ()
  | Some j -> (
      match V1.parse_jobs (string_of_int j) with
      | Ok j -> Ok (Parallel.Global.set_jobs j)
      | Error e -> Error (`Msg (Error.to_string e)))

let obs_out =
  Arg.(value & opt (some string) None & info [ "obs-out" ] ~docv:"FILE"
         ~doc:"Write a JSONL run manifest (span tree + metric snapshot) to $(docv).")

let with_manifest ~command ~seed obs_out f =
  let result, span = Obs.Span.time ~name:("cli." ^ command) f in
  (match (result, obs_out) with
  | Ok (), Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (Obs.Export.manifest_line ~experiment:("cli." ^ command) ~seed ~scale:"cli"
               ~registry:Obs.Metrics.default ~span ());
          output_char oc '\n')
  | _ -> ());
  result
