(* The routing daemon:

     serve [--port P] [--workers N] [--queue-cap N] [--registry-cap N]
           [--max-batch N] [--load NAME=FILE]... [--obs-out FILE] [-j N]
           [--admin-port P] [--access-log FILE [--access-log-sample N]]
           [--obs-interval SECS] [--events-out FILE] [--trace-out FILE]

   Newline-delimited JSON over TCP; the request schema is
   `graphs_cli api-schema`.  SIGTERM / SIGINT (or a client `drain`
   request) drain gracefully: in-flight requests finish, the obs
   manifest is written, exit status 0.  SIGHUP forces a manifest
   rewrite + access-log flush without draining.  --admin-port opens a
   telemetry listener (HTTP GET /metrics for Prometheus, /stats for
   JSON; also the stats-server JSON op) that answers under full load.  *)

open Cmdliner

let host_arg =
  Arg.(value & opt string Server.Daemon.default_config.host
         & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")

let port_arg =
  Arg.(value & opt int Server.Daemon.default_config.port
         & info [ "port" ] ~docv:"P" ~doc:"TCP port (0 = ephemeral, printed on startup).")

let workers_arg =
  Arg.(value & opt int Server.Daemon.default_config.workers
         & info [ "workers" ] ~docv:"N" ~doc:"Request-executing worker domains; every socket is served by \
               one event loop.")

let queue_cap_arg =
  Arg.(value & opt int Server.Daemon.default_config.queue_cap
         & info [ "queue-cap" ] ~docv:"N"
         ~doc:"Pending-request bound; beyond it requests get the \
               'overloaded' error instead of queueing.")

let json_only_arg =
  Arg.(value & flag
         & info [ "json-only" ]
         ~doc:"Refuse binary-framed clients: a connection opening with the \
               0xB1 magic byte gets a JSON bad-request reply and is closed.")

let cache_cap_arg =
  Arg.(value & opt int Server.Daemon.default_config.cache_cap
         & info [ "cache-cap" ] ~docv:"N"
         ~doc:"Route-cache capacity in entries (LRU, keyed on instance \
               generation); 0 disables caching.")

let registry_cap_arg =
  Arg.(value & opt int Server.Daemon.default_config.registry_cap
         & info [ "registry-cap" ] ~docv:"N" ~doc:"Instance registry LRU capacity.")

let max_batch_arg =
  Arg.(value & opt int Server.Daemon.default_config.max_batch
         & info [ "max-batch" ] ~docv:"N"
         ~doc:"Largest accepted route_batch; bigger requests get 'overloaded'.")

let admin_port_arg =
  Arg.(value & opt (some int) None
         & info [ "admin-port" ] ~docv:"P"
         ~doc:"Open a telemetry listener on this port (0 = ephemeral, printed \
               on startup): HTTP GET /metrics (Prometheus text) and /stats \
               (stats-server JSON), plus the stats-server/health JSON ops. \
               Served on the event loop off the worker queue, so scrapes \
               answer under full load.")

let access_log_arg =
  Arg.(value & opt (some string) None
         & info [ "access-log" ] ~docv:"FILE"
         ~doc:"Append one smallworld.access.v1 JSONL line per request \
               (request id, op, instance, stage timings, outcome).")

let access_sample_arg =
  Arg.(value & opt int Server.Daemon.default_config.access_sample
         & info [ "access-log-sample" ] ~docv:"N"
         ~doc:"Log 1 request in N (deterministic, by request id); default 1.")

let obs_interval_arg =
  Arg.(value & opt float Server.Daemon.default_config.obs_interval
         & info [ "obs-interval" ] ~docv:"SECS"
         ~doc:"Rewrite the --obs-out manifest (and flush the access log) every \
               SECS seconds, not only at drain; <= 0 disables the timer. \
               SIGHUP forces a rewrite at any time.")

let events_out_arg =
  Arg.(value & opt (some string) None
         & info [ "events-out" ] ~docv:"FILE"
         ~doc:"Dump the flight-recorder event ring as smallworld.events.v1 JSONL \
               when the daemon drains (empty under SMALLWORLD_OBS=0).")

let trace_out_arg =
  Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Append one smallworld.trace.v1 record per request that carries a \
               trace context (the envelope's trace field / --trace-id), linking \
               server stage spans and algorithm spans under the client's span. \
               Requires observability on.")

let load_arg =
  Arg.(value & opt_all string [] & info [ "load" ] ~docv:"NAME=FILE"
         ~doc:"Preload a saved instance into the registry before serving; repeatable.")

let preload ex spec =
  match String.index_opt spec '=' with
  | None -> Error (Api.Error.make Api.Error.Usage "--load expects NAME=FILE, got %S" spec)
  | Some i ->
      let name = String.sub spec 0 i in
      let path = String.sub spec (i + 1) (String.length spec - i - 1) in
      (* Straight into the registry, not through [Exec.handle]: a preload
         is no request, so it moves no [server.*] counter. *)
      let inserted =
        match Girg.Store.load ~path with
        | Error e -> Error (Api.Error.make Api.Error.Io "cannot load %s: %s" path e)
        | Ok inst -> Server.Registry.insert (Server.Exec.registry ex) ~name inst
      in
      Result.map (fun _ -> Printf.printf "loaded %s from %s\n%!" name path) inserted

let run host port workers queue_cap registry_cap max_batch admin_port access_log
    access_sample obs_interval events_out trace_out json_only cache_cap loads
    obs_out jobs =
  match Api.Cli.apply_jobs jobs with
  | Error e -> Error e
  | Ok () -> (
      let config =
        {
          Server.Daemon.host;
          port;
          workers;
          queue_cap;
          registry_cap;
          max_batch;
          obs_out;
          obs_interval;
          admin_port;
          access_log;
          access_sample;
          events_out;
          trace_out;
          json_only;
          cache_cap;
        }
      in
      let t = Server.Daemon.create config in
      let rec load_all = function
        | [] -> Ok ()
        | spec :: rest -> (
            match preload (Server.Daemon.exec t) spec with
            | Ok () -> load_all rest
            | Error e -> Error e)
      in
      match load_all loads with
      | Error e ->
          Server.Daemon.stop t;
          Server.Daemon.serve t;
          Api.Cli.fail e
      | Ok () ->
          let drain _ = Server.Daemon.stop t in
          Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
          Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
          Sys.set_signal Sys.sighup
            (Sys.Signal_handle (fun _ -> Server.Daemon.request_manifest t));
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          Printf.printf "serving on %s:%d (%d workers, queue %d, registry %d)\n%!" host
            (Server.Daemon.port t) workers queue_cap registry_cap;
          Option.iter
            (fun p -> Printf.printf "admin on %s:%d (/metrics, /stats)\n%!" host p)
            (Server.Daemon.admin_port t);
          Server.Daemon.serve t;
          Printf.printf "drained: %d accepted, %d served, %d rejected, %d deadline-missed\n%!"
            (Server.Exec.accepted (Server.Daemon.exec t))
            (Server.Exec.served (Server.Daemon.exec t))
            (Server.Exec.rejected (Server.Daemon.exec t))
            (Server.Exec.deadline_missed (Server.Daemon.exec t));
          Ok ())

let main =
  let doc = "Serve route/sample/stats queries over newline-delimited JSON (API v1)." in
  Cmd.v (Cmd.info "smallworld-serve" ~doc)
    Term.(
      term_result
        (const run $ host_arg $ port_arg $ workers_arg $ queue_cap_arg
       $ registry_cap_arg $ max_batch_arg $ admin_port_arg $ access_log_arg
       $ access_sample_arg $ obs_interval_arg $ events_out_arg $ trace_out_arg
       $ json_only_arg $ cache_cap_arg $ load_arg $ Api.Cli.obs_out
       $ Api.Cli.jobs))

let () = exit (Cmd.eval main)
