(* Graph tooling around the generators, parsed through the v1 API:

     graphs_cli gen girg -o net.girg -n 50000 --beta 2.5 [--jobs N] ...
     graphs_cli gen hrg  -o net.girg -n 50000 --alpha-h 0.55 [--jobs N] ...
     graphs_cli gen kleinberg -o net.girg --side 100 ...
     graphs_cli route net.girg -s 4 -t 93 [--protocol phi-dfs]
     graphs_cli route-batch net.girg --count 8 [--pair-seed S] [--pool giant]
     graphs_cli stats net.girg
     graphs_cli api-schema
     graphs_cli embed / import ...

   Every subcommand above the line goes through Api.V1.of_args — the
   same parser, defaults, and deprecation shims the daemon's clients
   use; `api-schema` dumps the machine-readable surface.  embed, import
   and serve-status are not API ops: they parse with cmdliner terms
   (sharing Api.Cli's --seed and --obs-out) and answer --help.
   Instances are stored in the plain-text format of Girg.Store, so
   external tools can consume them directly.                            *)

open Cmdliner

let usage =
  "usage: graphs_cli <op> [args]\n\
   ops: gen <girg|hrg|kleinberg> -o FILE ...   sample and save an instance\n\
  \     gen girg --shards S --shard I --spill-out FILE ...\n\
  \                                            sample one shard, spill its edges\n\
  \     merge-shards SPILL,SPILL,.. --name N -o FILE\n\
  \                                            merge spills -> binary snapshot\n\
  \     snapshot FILE --out FILE               re-encode as a binary snapshot\n\
  \     route FILE --source V --target V       route one message\n\
  \     route-batch FILE --count N | --pairs S route many pairs\n\
  \     stats FILE                             structural statistics\n\
  \     mutate FILE --ops leave:5,drop:3:7 -o FILE\n\
  \                                            apply a mutation script (one epoch)\n\
  \     churn FILE --scenario uniform --epochs 3 [--events N] [-o FILE]\n\
  \                                            mutate + re-route per epoch\n\
  \     load --name N --path FILE              check a file loads as an instance\n\
  \     embed FILE -o FILE                     re-embed from connectivity\n\
  \     import FILE -o FILE                    edge list -> routable instance\n\
  \     api-schema                             dump the v1 request schema (JSON)\n\
  \     serve-status --port P [--prometheus]   live telemetry of a running daemon\n\
   Flags per op: graphs_cli api-schema | python3 -m json.tool\n\
  \     (embed, import and serve-status: graphs_cli <op> --help)\n"

let fail_usage fmt =
  Printf.ksprintf (fun m -> Api.Cli.fail (Api.Error.make Api.Error.Usage "%s" m)) fmt

let ok_or_fail = function Ok v -> v | Error e -> Api.Cli.fail e

let load_instance path =
  match Girg.Store.load ~path with
  | Ok inst -> inst
  | Error e -> Api.Cli.fail (Api.Error.make Api.Error.Io "cannot load %s: %s" path e)

let with_manifest ~command ~seed obs_out f =
  ok_or_fail (Api.Cli.with_manifest ~command ~seed obs_out (fun () -> Ok (f ())))

let apply_jobs (exec : Api.V1.exec_opts) =
  Option.iter Parallel.Global.set_jobs exec.jobs

(* ------------------------------------------------------------------ *)
(* The V1 subcommands                                                  *)

let required_output (exec : Api.V1.exec_opts) =
  match exec.output with
  | Some path -> path
  | None -> fail_usage "an output file is required (-o FILE)"

let run_sample (exec : Api.V1.exec_opts) ~model ~seed =
  let output = required_output exec in
  let command =
    match model with
    | Api.V1.Girg _ -> "gen.girg"
    | Api.V1.Hrg _ -> "gen.hrg"
    | Api.V1.Kleinberg _ -> "gen.kleinberg"
  in
  with_manifest ~command ~seed exec.obs_out @@ fun () ->
  let inst = Api.Render.instantiate ~model ~seed in
  Girg.Store.save ~path:output inst;
  match model with
  | Api.V1.Girg params ->
      Printf.printf "wrote %s: %s -> %d vertices, %d edges (avg degree %.2f)\n" output
        (Girg.Params.to_string params)
        (Sparse_graph.Graph.n inst.graph)
        (Sparse_graph.Graph.m inst.graph)
        (Sparse_graph.Graph.avg_degree inst.graph)
  | Api.V1.Hrg p ->
      Printf.printf "wrote %s: hrg(n=%d, beta=%.2f, C=%g, T=%g) -> %d edges (avg degree %.2f)\n"
        output p.n (Hyperbolic.Hrg.beta p) p.radius_c p.temperature
        (Sparse_graph.Graph.m inst.graph)
        (Sparse_graph.Graph.avg_degree inst.graph)
  | Api.V1.Kleinberg p ->
      Printf.printf "wrote %s: kleinberg(side=%d, q=%d, r=%g) -> %d vertices, %d edges\n"
        output p.side p.long_range p.exponent
        (Sparse_graph.Graph.n inst.graph)
        (Sparse_graph.Graph.m inst.graph)

(* Out-of-core pipeline: gen --spill-out / merge-shards / snapshot.
   A shard run re-derives everything from (seed, params), so S
   independent processes can each produce one spill and a final merge
   rebuilds the exact single-process instance (see Girg.Shard). *)

let run_gen_shard (exec : Api.V1.exec_opts) ~params ~seed ~shards ~shard ~out =
  with_manifest ~command:"gen.shard" ~seed exec.obs_out @@ fun () ->
  let header = Girg.Shard.generate_spill ~path:out ~seed ~shards ~shard params in
  Printf.printf "wrote %s: shard %d/%d of %s -> %d vertices, %d edges in this shard\n"
    out shard shards
    (Girg.Params.to_string params)
    header.Girg.Shard.count header.Girg.Shard.edges

let run_merge_shards (exec : Api.V1.exec_opts) ~spills =
  let output = required_output exec in
  with_manifest ~command:"merge-shards" ~seed:0 exec.obs_out @@ fun () ->
  match Girg.Shard.merge ~paths:spills () with
  | Error e -> Api.Cli.fail (Api.Error.make Api.Error.Io "merge failed: %s" e)
  | Ok inst ->
      Girg.Store.save_binary ~path:output inst;
      Printf.printf
        "merged %d spills -> %s: %d vertices, %d edges (v2 binary snapshot)\n"
        (List.length spills) output
        (Sparse_graph.Graph.n inst.Girg.Instance.graph)
        (Sparse_graph.Graph.m inst.Girg.Instance.graph)

let run_snapshot (exec : Api.V1.exec_opts) ~path ~out =
  with_manifest ~command:"snapshot" ~seed:0 exec.obs_out @@ fun () ->
  let inst = load_instance path in
  Girg.Store.save_binary ~path:out inst;
  Printf.printf
    "snapshotted %s -> %s: %d vertices, %d edges, %d bytes (mmap-ready)\n" path out
    (Sparse_graph.Graph.n inst.Girg.Instance.graph)
    (Sparse_graph.Graph.m inst.Girg.Instance.graph)
    (Unix.stat out).Unix.st_size

(* Client-side tracing: wrap the work in a probe span and append one
   smallworld.trace.v1 record to FILE.  With --trace-id the record
   adopts the declared context — its span id is the one the client
   announced, so a daemon-side record written for the same request
   grafts under this one when the files are merged (obs_cli trace).
   Without --trace-id a fresh trace id is generated, making the local
   CLI run a one-record trace of its own. *)
let with_client_trace ~name ~(trace : Api.V1.trace_ctx option) trace_out f =
  match trace_out with
  | None -> f ()
  | Some file ->
      let t0 = Unix.gettimeofday () in
      let result, tree = Obs.Span.probe ~name f in
      (match tree with
      | None ->
          print_endline
            "note: observability is off (SMALLWORLD_OBS=0); no trace record written"
      | Some root ->
          let trace_id, span =
            match trace with
            | Some t -> (t.Api.V1.trace_id, t.Api.V1.parent_span)
            | None ->
                (Printf.sprintf "cli-%d-%x" (Unix.getpid ())
                   (int_of_float (t0 *. 1000.0) land 0xffffff), 1)
          in
          let record =
            { Obs.Profile.tr_trace = trace_id; tr_span = span; tr_parent = None;
              tr_origin = "cli"; tr_t0 = t0; tr_root = root }
          in
          Out_channel.with_open_gen
            [ Open_append; Open_creat; Open_wronly; Open_text ]
            0o644 file
            (fun oc ->
              output_string oc (Obs.Export.trace_line record);
              output_char oc '\n');
          Printf.printf "trace %s written to %s\n" trace_id file);
      result

let run_route (exec : Api.V1.exec_opts) ~trace ~path ~source ~target ~protocol
    ~max_steps =
  with_manifest ~command:"route" ~seed:0 exec.obs_out @@ fun () ->
  let inst = load_instance path in
  if exec.events_out <> None then Obs.Events.clear ();
  let reply =
    with_client_trace ~name:"client.route" ~trace exec.trace_out @@ fun () ->
    ok_or_fail (Api.Render.route ~inst ~protocol ?max_steps ~source ~target ())
  in
  Option.iter
    (fun file ->
      Out_channel.with_open_text file (fun oc ->
          Obs.Export.write_events oc (Obs.Events.events ()));
      if not (Obs.Events.recording ()) then
        print_endline
          "note: flight recorder is off (SMALLWORLD_OBS/_EVENTS); events file is empty")
    exec.events_out;
  print_string reply.Api.V1.text

let run_route_batch (exec : Api.V1.exec_opts) ~trace ~path ~pairs ~protocol
    ~max_steps =
  with_manifest ~command:"route-batch" ~seed:0 exec.obs_out @@ fun () ->
  let inst = load_instance path in
  let resolved = ok_or_fail (Api.Render.resolve_pairs ~inst pairs) in
  let replies =
    with_client_trace ~name:"client.route_batch" ~trace exec.trace_out
    @@ fun () ->
    ok_or_fail (Api.Render.route_batch ~inst ~protocol ?max_steps ~pairs:resolved ())
  in
  List.iter (fun r -> print_string r.Api.V1.text) replies

let run_stats (exec : Api.V1.exec_opts) ~path =
  with_manifest ~command:"stats" ~seed:0 exec.obs_out @@ fun () ->
  let inst = load_instance path in
  let g = inst.Girg.Instance.graph in
  let s = Api.Render.stats inst in
  Printf.printf "params:     %s\n" s.Api.V1.params;
  Printf.printf "vertices:   %d\n" s.vertices;
  Printf.printf "edges:      %d\n" s.edges;
  Printf.printf "avg degree: %.2f (max %d)\n" s.avg_degree s.max_degree;
  Printf.printf "components: %d (giant: %d vertices, %.1f%%)\n" s.components s.giant
    (100.0 *. float_of_int s.giant /. float_of_int (max 1 s.vertices));
  let d_min = max 5 (2 * int_of_float s.avg_degree) in
  (match Sparse_graph.Gstats.power_law_exponent_mle ~d_min g with
  | Some b -> Printf.printf "degree exponent (MLE, tail >= %d): %.2f\n" d_min b
  | None -> ());
  let rng = Prng.Rng.create ~seed:1 in
  Printf.printf "clustering (sampled): %.3f\n"
    (Sparse_graph.Gstats.global_clustering_sample g ~rng ~samples:500)

let run_load (exec : Api.V1.exec_opts) ~name ~path =
  with_manifest ~command:"load" ~seed:0 exec.obs_out @@ fun () ->
  let inst = load_instance path in
  let info = Api.Render.instance_info ~name inst in
  Printf.printf "loaded %s: %s -> %d vertices, %d edges\n" name info.Api.V1.params
    info.vertices info.edges

let run_mutate (exec : Api.V1.exec_opts) ~path ~ops ~seed =
  let output = required_output exec in
  with_manifest ~command:"mutate" ~seed exec.obs_out @@ fun () ->
  let inst = load_instance path in
  (match
     Girg.Mutate.validate ~n:(Sparse_graph.Graph.n inst.Girg.Instance.graph) ops
   with
  | Error m -> Api.Cli.fail (Api.Error.make Api.Error.Bad_request "%s" m)
  | Ok () -> ());
  let mutated = Girg.Mutate.apply ~seed inst ops in
  (* The store formats carry a plain CSR, so compact the row table before
     writing; traversal is identical by the compact contract. *)
  let folded =
    Girg.Instance.with_graph mutated (Sparse_graph.Graph.compact mutated.Girg.Instance.graph)
  in
  Girg.Store.save ~path:output folded;
  (* Counted before compaction: compact makes departed vertices live. *)
  let g = mutated.Girg.Instance.graph in
  Printf.printf "mutated %s -> %s: epoch %d, %d ops, %d/%d live, %d edges\n" path
    output
    (Sparse_graph.Graph.epoch g)
    (List.length ops)
    (Sparse_graph.Graph.live_count g)
    (Sparse_graph.Graph.n g) (Sparse_graph.Graph.m g)

let run_churn (exec : Api.V1.exec_opts) ~path ~(config : Experiments.Churn.config) =
  with_manifest ~command:"churn" ~seed:config.seed exec.obs_out @@ fun () ->
  let inst = load_instance path in
  let _final, rows = Experiments.Churn.run_local config inst in
  print_string (Stats.Table.render (Experiments.Churn.table config rows));
  Option.iter
    (fun file ->
      Out_channel.with_open_text file (fun oc ->
          List.iter
            (fun row ->
              output_string oc
                (Obs.Export.json_to_string (Experiments.Churn.record_json config row));
              output_char oc '\n')
            rows);
      Printf.printf "wrote %d smallworld.churn.v1 records to %s\n" (List.length rows)
        file)
    exec.output

let run_v1 args =
  let env, exec = ok_or_fail (Api.V1.of_args args) in
  apply_jobs exec;
  match env.Api.V1.request with
  | Api.V1.Sample { name = _; model; seed } -> run_sample exec ~model ~seed
  | Api.V1.Route { instance; source; target; protocol; max_steps } ->
      run_route exec ~trace:env.Api.V1.trace ~path:instance ~source ~target
        ~protocol ~max_steps
  | Api.V1.Route_batch { instance; pairs; protocol; max_steps } ->
      run_route_batch exec ~trace:env.Api.V1.trace ~path:instance ~pairs
        ~protocol ~max_steps
  | Api.V1.Stats { instance } -> run_stats exec ~path:instance
  | Api.V1.Gen_shard { params; seed; shards; shard; out } ->
      run_gen_shard exec ~params ~seed ~shards ~shard ~out
  | Api.V1.Merge_shards { name = _; spills } -> run_merge_shards exec ~spills
  | Api.V1.Snapshot { instance; out } -> run_snapshot exec ~path:instance ~out
  | Api.V1.Mutate { instance; ops; seed } -> run_mutate exec ~path:instance ~ops ~seed
  | Api.V1.Churn { instance; config } -> run_churn exec ~path:instance ~config
  | Api.V1.Load { name; path } -> run_load exec ~name ~path
  | Api.V1.Server_stats ->
      fail_usage
        "stats-server queries a running daemon; use `graphs_cli serve-status --port P`"
  | Api.V1.Health | Api.V1.Drain ->
      fail_usage "health and drain are daemon requests; run `serve` and send them over TCP"

(* ------------------------------------------------------------------ *)
(* embed / import: not part of the serving API (they produce files,
   not replies), so they parse with cmdliner terms of their own.       *)

(* Save an inferred hyperbolic embedding as a 1-D GIRG instance (the
   form [route] loads); returns the vertex count. *)
let save_embedding ~out ~graph embedding =
  let h = Hyperbolic.Embed.to_hrg embedding ~graph in
  let n = Sparse_graph.Graph.n graph in
  let girg_params =
    Girg.Params.make ~dim:1 ~beta:2.5
      ~w_min:(Array.fold_left Float.min infinity h.Hyperbolic.Hrg.weights)
      ~alpha:Girg.Params.Infinite ~poisson_count:false ~n ()
  in
  Girg.Store.save ~path:out
    (Girg.Instance.make ~params:girg_params ~weights:h.Hyperbolic.Hrg.weights
       ~packed:h.Hyperbolic.Hrg.packed ~graph);
  n

let run_embed path out sweeps seed obs_out =
  with_manifest ~command:"embed" ~seed obs_out @@ fun () ->
  let inst = load_instance path in
  let graph = inst.Girg.Instance.graph in
  let rng = Prng.Rng.create ~seed in
  let embedding = Hyperbolic.Embed.infer ~rng ~graph ~refinement_sweeps:sweeps () in
  let n = save_embedding ~out ~graph embedding in
  Printf.printf
    "embedded %d vertices from connectivity alone; wrote %s\n\
     (route on it with `graphs_cli route %s -s .. -t ..`)\n"
    n out out

let run_import path out seed obs_out =
  with_manifest ~command:"import" ~seed obs_out @@ fun () ->
  match Sparse_graph.Io.load ~path with
  | Error e -> Api.Cli.fail (Api.Error.make Api.Error.Io "cannot load %s: %s" path e)
  | Ok graph ->
      let rng = Prng.Rng.create ~seed in
      let embedding = Hyperbolic.Embed.infer ~rng ~graph () in
      let n = save_embedding ~out ~graph embedding in
      Printf.printf "imported %d vertices / %d edges and embedded them; wrote %s\n" n
        (Sparse_graph.Graph.m graph) out

let input_file ~doc = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let output_file =
  Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Where to write the embedded instance.")

let embed_cmd =
  let sweeps =
    Arg.(value & opt int 0 & info [ "refinement-sweeps" ] ~docv:"N"
           ~doc:"Refinement sweeps after the initial embedding.")
  in
  Cmd.v
    (Cmd.info "embed" ~doc:"Re-embed a saved instance from its connectivity alone.")
    Term.(
      const run_embed $ input_file ~doc:"Saved instance (Girg.Store format)."
      $ output_file $ sweeps $ Api.Cli.seed $ Api.Cli.obs_out)

let import_cmd =
  Cmd.v
    (Cmd.info "import" ~doc:"Embed an edge list into a routable instance.")
    Term.(
      const run_import $ input_file ~doc:"Edge list (Sparse_graph.Io format)."
      $ output_file $ Api.Cli.seed $ Api.Cli.obs_out)

(* ------------------------------------------------------------------ *)
(* serve-status: dial a running daemon (main or admin port), send one
   stats-server request, and render the reply for humans.             *)

let send_and_read_line fd out =
  let len = String.length out in
  let rec w off =
    if off < len then w (off + Unix.write_substring fd out off (len - off))
  in
  w 0;
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec r () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n -> (
        let s = Bytes.sub_string chunk 0 n in
        match String.index_opt s '\n' with
        | Some i ->
            Buffer.add_string buf (String.sub s 0 i);
            Buffer.contents buf
        | None ->
            Buffer.add_string buf s;
            r ())
  in
  r ()

let render_server_stats (s : Api.V1.server_stats_reply) =
  Printf.printf "uptime:  %.1f s%s\n" s.Api.V1.uptime_s
    (if s.Api.V1.s_draining then "  (draining)" else "");
  Printf.printf "obs:     %s\n"
    (if s.Api.V1.obs_live then "live"
     else "off (SMALLWORLD_OBS=0) — stage histograms are empty");
  print_endline "counters:";
  List.iter (fun (k, v) -> Printf.printf "  %-26s %d\n" k v) s.Api.V1.s_counters;
  print_endline "gauges:";
  List.iter (fun (k, v) -> Printf.printf "  %-26s %g\n" k v) s.Api.V1.gauges;
  let live = List.filter (fun st -> st.Api.V1.s_count > 0) s.Api.V1.stages in
  if live <> [] then begin
    print_endline "latency (seconds):";
    Printf.printf "  %-22s %8s %11s %11s %11s %11s %11s\n" "stage" "count" "p50"
      "p90" "p99" "p999" "max";
    List.iter
      (fun st ->
        Printf.printf "  %-22s %8d %11.6f %11.6f %11.6f %11.6f %11.6f\n"
          st.Api.V1.stage st.Api.V1.s_count st.Api.V1.p50 st.Api.V1.p90
          st.Api.V1.p99 st.Api.V1.p999 st.Api.V1.s_max)
      live
  end

let run_serve_status host port prometheus =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with Unix.Unix_error (e, _, _) ->
     Api.Cli.fail
       (Api.Error.make Api.Error.Io "cannot connect to %s:%d: %s" host port
          (Unix.error_message e)));
  let line =
    send_and_read_line fd
      (Api.V1.request_line (Api.V1.envelope Api.V1.Server_stats) ^ "\n")
  in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  if line = "" then
    Api.Cli.fail (Api.Error.make Api.Error.Io "daemon at %s:%d closed without replying" host port);
  match Api.V1.reply_of_line line with
  | Error e -> Api.Cli.fail e
  | Ok { Api.V1.response = Api.V1.Failed e; _ } -> Api.Cli.fail e
  | Ok { Api.V1.response = Api.V1.Server_stats_reply s; _ } ->
      if prometheus then print_string s.Api.V1.prometheus
      else render_server_stats s
  | Ok _ -> Api.Cli.fail (Api.Error.make Api.Error.Bad_request "unexpected reply kind from daemon")

let serve_status_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Daemon address.")
  in
  let port =
    Arg.(required & opt (some int) None & info [ "port" ] ~docv:"P"
           ~doc:"The daemon's main or admin port.")
  in
  let prometheus =
    Arg.(value & flag & info [ "prometheus" ] ~doc:"Print the Prometheus text exposition.")
  in
  Cmd.v
    (Cmd.info "serve-status" ~doc:"Live telemetry of a running daemon.")
    Term.(const run_serve_status $ host $ port $ prometheus)

(* A parse error exits 2, the taxonomy's code for command-line misuse.
   Exceptions are not caught, so they end the process as they would
   without cmdliner. *)
let run_local argv =
  let cmds = Cmd.group (Cmd.info "graphs_cli") [ embed_cmd; import_cmd; serve_status_cmd ] in
  match Cmd.eval_value ~catch:false ~argv cmds with
  | Ok (`Ok () | `Help | `Version) -> exit 0
  | Error (`Parse | `Term | `Exn) -> exit (Api.Error.exit_code Api.Error.Usage)

(* ------------------------------------------------------------------ *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] | [ "help" ] | [ "--help" ] | [ "-h" ] ->
      print_string usage;
      exit 0
  | [ "api-schema" ] ->
      print_endline (Obs.Export.json_to_string (Api.V1.schema_json ()));
      exit 0
  | ("embed" | "import" | "serve-status") :: _ -> run_local Sys.argv
  | args -> run_v1 args
