(* Benchmark / reproduction harness.

   Default mode — Phase 1 regenerates every experiment table of the paper
   reproduction (E1-E17, cf. DESIGN.md section 3 and EXPERIMENTS.md) at
   Standard scale; set SMALLWORLD_BENCH_QUICK=1 for a fast smoke run.
   Each experiment is timed with Obs.Span (its phase tree is printed
   under the tables), and with `--obs-out FILE` a JSONL run manifest —
   span tree plus metric snapshot per experiment — is written alongside,
   so successive bench runs are diffable at phase granularity.  Phase 2
   runs Bechamel micro-benchmarks: one Test.make per experiment kernel
   (a miniature version of its workload) plus the core operations
   (generators, routing protocols, BFS).

   Record/diff modes — continuous-benchmark telemetry over the
   smallworld.bench.v1 schema (Obs.Bench): `record` runs each experiment
   k times (plus the text-vs-binary snapshot-load pair) and writes
   BENCH_<label>.json (median/min wall time, allocated bytes, counter
   snapshots, git revision); `diff` compares two such files and exits
   non-zero on a noise-adjusted median regression.

   Scale mode — the out-of-core axis: for each n (doubling from --n,
   fixed seed) the sweep runs generate (heap cell sampler), spill
   (sharded generation), merge (spills -> binary snapshot), heap-route
   and mmap-route as separate forked phases, recording wall time,
   allocation and peak RSS (VmHWM) per phase into the same report
   schema, so `diff` gates the memory ceiling alongside time and
   allocation (--rss-threshold).

     dune exec bench/main.exe -- [--obs-out FILE] [--jobs N]
     dune exec bench/main.exe -- record [--runs K] [--label L] [--seed N]
                                        [--out FILE] [--jobs N]
     dune exec bench/main.exe -- scale [--n N] [--doublings K] [--shards S]
                                       [--routes R] [--label L] [--seed N]
                                       [--out FILE] [--dir DIR] [--keep]
                                       [--max-mmap-rss-ratio X] [--jobs N]
     dune exec bench/main.exe -- diff BASELINE CURRENT [--threshold PCT]
                                      [--alloc-threshold PCT] [--rss-threshold PCT]
                                      [--advisory-time]

   --jobs N (0 = all cores) sizes the shared Parallel pool; otherwise
   SMALLWORLD_JOBS applies.  Reports remember the job count and `diff`
   refuses to compare reports recorded at different counts.  *)

open Bechamel
open Toolkit

(* All fatal exits go through the shared error taxonomy so bench and the
   route server agree on codes: perf-regression -> 1, caller errors
   (usage / io / incomparable) -> 2, matching what CI gates on. *)
let die code fmt =
  Printf.ksprintf
    (fun msg ->
      let e = Api.Error.make code "%s" msg in
      prerr_endline (Api.Error.to_string e);
      exit (Api.Error.exit_code e.Api.Error.code))
    fmt

let scale =
  match Sys.getenv_opt "SMALLWORLD_BENCH_QUICK" with
  | Some ("1" | "true" | "yes") -> Experiments.Context.Quick
  | Some _ | None -> Experiments.Context.Standard

let obs_out =
  let rec scan = function
    | "--obs-out" :: path :: _ -> Some path
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

(* Resolve --jobs (0 = all cores) before anything touches the shared
   pool; without the flag the pool falls back to SMALLWORLD_JOBS. *)
let () =
  let rec scan = function
    | "--jobs" :: v :: _ -> (
        match int_of_string_opt v with
        | Some j when j >= 0 -> Parallel.Global.set_jobs j
        | Some _ | None -> die Api.Error.Usage "--jobs expects a non-negative integer")
    | _ :: rest -> scan rest
    | [] -> ()
  in
  scan (Array.to_list Sys.argv)

let seed = 42

let run_experiment_tables () =
  print_endline "==============================================================";
  print_endline " Phase 1: paper-reproduction tables (one block per experiment)";
  print_endline "==============================================================\n";
  let ctx = Experiments.Context.make ~seed ~scale () in
  let manifest_oc = Option.map open_out obs_out in
  List.iter
    (fun e ->
      (* Fresh counters, trace and event buffer per experiment so the
         manifest line (and the printed tree) attribute to this
         experiment alone. *)
      Obs.Metrics.reset Obs.Metrics.default;
      Obs.Span.clear_roots ();
      Obs.Events.clear ();
      let tables, span = Experiments.Registry.run_traced e ctx in
      print_string (Experiments.Registry.render_header e);
      List.iter (fun t -> print_string (Stats.Table.render t); print_newline ()) tables;
      (match span with
      | Some s ->
          print_string (Obs.Export.span_table s);
          Printf.printf "(%s finished in %.1fs)\n\n%!" e.Experiments.Registry.id s.Obs.Span.wall_s
      | None ->
          Printf.printf "(%s finished; timing disabled via SMALLWORLD_OBS=0)\n\n%!"
            e.Experiments.Registry.id);
      Option.iter
        (fun oc ->
          output_string oc
            (Obs.Export.manifest_line ~experiment:e.Experiments.Registry.id ~seed
               ~scale:(Experiments.Context.scale_name ctx)
               ~registry:Obs.Metrics.default ~span ());
          output_char oc '\n';
          flush oc)
        manifest_oc)
    Experiments.Registry.all;
  Option.iter close_out manifest_oc;
  Option.iter (Printf.printf "run manifest written to %s\n\n%!") obs_out

(* ------------------------------------------------------------------ *)
(* Phase 2: Bechamel micro-benchmarks                                   *)

(* Shared fixtures, built once outside the timed region. *)
let fixture_girg =
  lazy
    (let params = Girg.Params.make ~dim:2 ~beta:2.5 ~c:0.15 ~n:20_000 () in
     let inst = Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:3) params in
     let giant =
       Sparse_graph.Components.giant_members (Sparse_graph.Components.compute inst.graph)
     in
     (inst, giant))

let fixture_sparse_girg =
  lazy
    (let params = Girg.Params.make ~dim:2 ~beta:2.6 ~c:0.07 ~w_min:0.6 ~n:20_000 () in
     let inst = Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:4) params in
     let giant =
       Sparse_graph.Components.giant_members (Sparse_graph.Components.compute inst.graph)
     in
     (inst, giant))

let fixture_hrg =
  lazy (Hyperbolic.Hrg.generate ~rng:(Prng.Rng.create ~seed:5)
          (Hyperbolic.Hrg.make ~alpha_h:0.75 ~radius_c:(-1.0) ~n:20_000 ()))

let route_bench ~name ~protocol ~sparse =
  Test.make ~name
    (Staged.stage (fun () ->
         let inst, giant = Lazy.force (if sparse then fixture_sparse_girg else fixture_girg) in
         let rng = Prng.Rng.create ~seed:(Hashtbl.hash name) in
         let i, j = Prng.Dist.sample_distinct_pair rng ~n:(Array.length giant) in
         let objective = Greedy_routing.Objective.girg_phi inst ~target:giant.(j) in
         ignore
           (Greedy_routing.Protocol.run protocol ~graph:inst.graph ~objective
              ~source:giant.(i) ())))

(* One miniature kernel per (cheap enough) experiment id, so regressions in
   any reproduced pipeline show up as timing changes here.  The heavyweight
   sweep experiments are covered through their per-unit workloads below. *)
let experiment_kernels =
  let mini_ctx = Experiments.Context.make ~seed:1 ~scale:Experiments.Context.Quick () in
  let kernel id =
    match Experiments.Registry.find id with
    | None -> failwith ("unknown experiment " ^ id)
    | Some e -> Test.make ~name:("kernel/" ^ id) (Staged.stage (fun () -> ignore (e.run mini_ctx)))
  in
  List.map kernel [ "E4"; "E5"; "E8"; "E9"; "E11"; "E12"; "E13"; "E15"; "E16"; "E17" ]

let generator_benches =
  [
    Test.make ~name:"girg/cell n=10k d=2"
      (Staged.stage (fun () ->
           let params = Girg.Params.make ~dim:2 ~beta:2.5 ~c:0.15 ~n:10_000 () in
           ignore
             (Girg.Instance.generate ~sampler:Girg.Instance.Use_cell
                ~rng:(Prng.Rng.create ~seed:11) params)));
    Test.make ~name:"girg/naive n=1k d=2"
      (Staged.stage (fun () ->
           let params = Girg.Params.make ~dim:2 ~beta:2.5 ~c:0.15 ~n:1000 () in
           ignore
             (Girg.Instance.generate ~sampler:Girg.Instance.Use_naive
                ~rng:(Prng.Rng.create ~seed:12) params)));
    Test.make ~name:"girg/cell n=10k threshold"
      (Staged.stage (fun () ->
           let params =
             Girg.Params.make ~dim:2 ~beta:2.5 ~alpha:Girg.Params.Infinite ~c:0.15 ~n:10_000 ()
           in
           ignore (Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:13) params)));
    Test.make ~name:"hrg/cell n=10k"
      (Staged.stage (fun () ->
           ignore
             (Hyperbolic.Hrg.generate ~rng:(Prng.Rng.create ~seed:14)
                (Hyperbolic.Hrg.make ~alpha_h:0.75 ~radius_c:(-1.0) ~n:10_000 ()))));
    Test.make ~name:"chung_lu/n=30k"
      (Staged.stage (fun () ->
           ignore
             (Girg.Chung_lu.generate_power_law
                ~rng:(Prng.Rng.create ~seed:18) ~n:30_000 ~beta:2.5 ~w_min:2.0)));
    Test.make ~name:"embed/tree-layout n=10k"
      (Staged.stage (fun () ->
           let h = Lazy.force fixture_hrg in
           ignore
             (Hyperbolic.Embed.infer ~rng:(Prng.Rng.create ~seed:19)
                ~graph:h.Hyperbolic.Hrg.graph ())));
    Test.make ~name:"kleinberg/side=64"
      (Staged.stage (fun () ->
           ignore
             (Kleinberg.Lattice.generate ~rng:(Prng.Rng.create ~seed:15)
                (Kleinberg.Lattice.make ~side:64 ()))));
  ]

let routing_benches =
  [
    route_bench ~name:"route/greedy dense" ~protocol:Greedy_routing.Protocol.Greedy ~sparse:false;
    route_bench ~name:"route/phi-dfs sparse" ~protocol:Greedy_routing.Protocol.Patch_dfs
      ~sparse:true;
    route_bench ~name:"route/history sparse" ~protocol:Greedy_routing.Protocol.Patch_history
      ~sparse:true;
    route_bench ~name:"route/gravity sparse" ~protocol:Greedy_routing.Protocol.Gravity_pressure
      ~sparse:true;
    Test.make ~name:"route/hyperbolic greedy"
      (Staged.stage (fun () ->
           let h = Lazy.force fixture_hrg in
           let rng = Prng.Rng.create ~seed:16 in
           let s, t = Prng.Dist.sample_distinct_pair rng ~n:(Sparse_graph.Graph.n h.graph) in
           let objective = Greedy_routing.Objective.hyperbolic h ~target:t in
           ignore (Greedy_routing.Greedy.route ~graph:h.graph ~objective ~source:s ())));
    Test.make ~name:"bfs/bidirectional pair"
      (Staged.stage (fun () ->
           let inst, giant = Lazy.force fixture_girg in
           let rng = Prng.Rng.create ~seed:17 in
           let i, j = Prng.Dist.sample_distinct_pair rng ~n:(Array.length giant) in
           ignore (Sparse_graph.Bfs.distance inst.graph ~source:giant.(i) ~target:giant.(j))));
  ]

let all_benches =
  Test.make_grouped ~name:"smallworld" ~fmt:"%s %s"
    (generator_benches @ routing_benches @ experiment_kernels)

let run_benchmarks () =
  print_endline "==============================================================";
  print_endline " Phase 2: Bechamel micro-benchmarks (OLS estimate per run)";
  print_endline "==============================================================\n";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 1.5) ~stabilize:true ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances all_benches in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let merged = Analyze.merge ols instances results in
  match Hashtbl.find_opt merged (Measure.label Instance.monotonic_clock) with
  | None -> print_endline "no monotonic clock results?"
  | Some tbl ->
      let rows =
        Hashtbl.fold
          (fun name ols_result acc ->
            let ns =
              match Analyze.OLS.estimates ols_result with
              | Some (est :: _) -> est
              | Some [] | None -> nan
            in
            (name, ns) :: acc)
          tbl []
      in
      let rows = List.sort compare rows in
      Printf.printf "  %-42s %15s %12s\n" "benchmark" "ns/run" "ms/run";
      Printf.printf "  %s\n" (String.make 71 '-');
      List.iter
        (fun (name, ns) -> Printf.printf "  %-42s %15.0f %12.3f\n" name ns (ns /. 1e6))
        rows

(* ------------------------------------------------------------------ *)
(* record / diff: continuous-benchmark telemetry (smallworld.bench.v1) *)

let opt_value args key ~default =
  let rec scan = function
    | k :: v :: _ when k = key -> v
    | _ :: rest -> scan rest
    | [] -> default
  in
  scan args

let record args =
  let runs = max 1 (int_of_string (opt_value args "--runs" ~default:"3")) in
  let label = opt_value args "--label" ~default:"current" in
  let rseed = int_of_string (opt_value args "--seed" ~default:(string_of_int seed)) in
  let out = opt_value args "--out" ~default:("BENCH_" ^ label ^ ".json") in
  let ctx = Experiments.Context.make ~seed:rseed ~scale () in
  let entries =
    List.map
      (fun e ->
        let id = e.Experiments.Registry.id in
        let walls = ref [] in
        let alloc = ref 0.0 in
        for _ = 1 to runs do
          (* Fresh counters per run so the snapshot describes one run; the
             wall clock is read directly, so recording also works under
             SMALLWORLD_OBS=0 (counters then come back zeroed). *)
          Obs.Metrics.reset Obs.Metrics.default;
          Obs.Span.clear_roots ();
          Obs.Events.clear ();
          let a0 = Gc.allocated_bytes () in
          let t0 = Unix.gettimeofday () in
          ignore (e.Experiments.Registry.run ctx);
          walls := (Unix.gettimeofday () -. t0) :: !walls;
          alloc := Gc.allocated_bytes () -. a0
        done;
        let entry =
          Obs.Bench.make_entry ~id ~wall_s:!walls ~alloc_bytes:!alloc
            ~counters:(Obs.Bench.counters_of_registry Obs.Metrics.default) ()
        in
        Printf.printf "  %-4s median %7.3fs  min %7.3fs  (%d runs)\n%!" id entry.Obs.Bench.median_s
          entry.Obs.Bench.min_s runs;
        entry)
      Experiments.Registry.all
  in
  (* Snapshot-codec pair: load the same instance through the v1 text and
     v2 binary codecs.  Committing both entries in the baseline pins the
     binary loader's speedup — if binary load ever drifts toward text
     parsing speed, `bench diff` flags it like any other regression. *)
  let codec_entries =
    let params = Girg.Params.make ~dim:2 ~beta:2.5 ~c:0.15 ~n:30_000 () in
    let inst = Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:rseed) params in
    let text_path = Filename.temp_file "bench-snap" ".girg" in
    let bin_path = Filename.temp_file "bench-snap" ".girgb" in
    Girg.Store.save ~path:text_path inst;
    Girg.Store.save_binary ~path:bin_path inst;
    let time_load id path =
      let walls = ref [] and alloc = ref 0.0 in
      for _ = 1 to runs do
        let a0 = Gc.allocated_bytes () in
        let t0 = Unix.gettimeofday () in
        (match Girg.Store.load ~path with
        | Ok _ -> ()
        | Error e -> die Api.Error.Io "%s: %s" path e);
        walls := (Unix.gettimeofday () -. t0) :: !walls;
        alloc := Gc.allocated_bytes () -. a0
      done;
      let entry = Obs.Bench.make_entry ~id ~wall_s:!walls ~alloc_bytes:!alloc ~counters:[] () in
      Printf.printf "  %-11s median %7.3fs  min %7.3fs  (%d runs)\n%!" id
        entry.Obs.Bench.median_s entry.Obs.Bench.min_s runs;
      entry
    in
    Fun.protect
      ~finally:(fun () ->
        Sys.remove text_path;
        Sys.remove bin_path)
      (fun () -> [ time_load "load/text" text_path; time_load "load/binary" bin_path ])
  in
  let entries = entries @ codec_entries in
  let report =
    {
      Obs.Bench.label;
      git_rev = Obs.Export.git_rev ();
      scale = Experiments.Context.scale_name ctx;
      seed = rseed;
      jobs = Parallel.Global.jobs ();
      entries;
    }
  in
  Out_channel.with_open_text out (fun oc ->
      output_string oc (Obs.Bench.to_string report);
      output_char oc '\n');
  Printf.printf "bench report (%s) written to %s\n" Obs.Bench.schema_version out

let load_report path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> die Api.Error.Io "%s" e
  | contents -> (
      match Obs.Bench.of_string contents with
      | Ok r -> r
      | Error e -> die Api.Error.Io "cannot read %s: %s" path e)

(* --- scale: the out-of-core sweep ---------------------------------- *)

(* Peak resident set of this process in bytes, from /proc/self/status
   VmHWM (0 when the file or the field is unavailable, e.g. non-Linux —
   entries then carry rss_bytes = 0 = "not recorded" and the RSS gate
   stays off). *)
let peak_rss_bytes () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | contents ->
      let value_kb line key =
        let kl = String.length key in
        if String.length line >= kl && String.sub line 0 kl = key then (
          (* "VmHWM:   123456 kB" — keep the digits, ignore tabs/unit. *)
          let buf = Buffer.create 12 in
          String.iter (fun c -> if c >= '0' && c <= '9' then Buffer.add_char buf c) line;
          int_of_string_opt (Buffer.contents buf))
        else None
      in
      String.split_on_char '\n' contents
      |> List.find_map (fun l -> value_kb l "VmHWM:")
      |> Option.fold ~none:0.0 ~some:(fun kb -> float_of_int kb *. 1024.0)

(* Run one sweep phase in a forked child so its peak RSS is isolated:
   VmHWM is monotone within a process, so phases measured in-process
   would all inherit the largest predecessor's peak (and a freed heap
   instance would still count against the mmap phase).  The child
   reports wall time, allocated bytes, peak RSS and a few labelled
   counts over a pipe; file artifacts (spills, snapshots) land on disk
   where the next phase finds them. *)
let run_phase ~id f =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let t0 = Unix.gettimeofday () in
      let a0 = Gc.allocated_bytes () in
      (match f () with
      | counters ->
          Printf.fprintf oc "ok %.17g %.17g %.17g %s\n%!"
            (Unix.gettimeofday () -. t0)
            (Gc.allocated_bytes () -. a0)
            (peak_rss_bytes ())
            (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters))
      | exception e -> Printf.fprintf oc "err %s\n%!" (Printexc.to_string e));
      exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let line = try input_line ic with End_of_file -> "err child produced no result" in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      match (status, String.split_on_char ' ' line) with
      | Unix.WEXITED 0, "ok" :: wall :: alloc :: rss :: counters ->
          let num what s =
            match float_of_string_opt s with
            | Some f -> f
            | None -> die Api.Error.Io "scale phase %s: bad %s %S from child" id what s
          in
          let counter kv =
            match String.index_opt kv '=' with
            | Some i ->
                Option.map
                  (fun v -> (String.sub kv 0 i, v))
                  (int_of_string_opt (String.sub kv (i + 1) (String.length kv - i - 1)))
            | None -> None
          in
          (num "wall" wall, num "alloc" alloc, num "rss" rss, List.filter_map counter counters)
      | _, "err" :: rest ->
          die Api.Error.Io "scale phase %s failed: %s" id (String.concat " " rest)
      | _, _ -> die Api.Error.Io "scale phase %s: child died (%s)" id line)

(* The routed workload both load paths share: [routes] greedy routes
   between uniform distinct pairs.  Failures (dead ends outside the
   giant) are fine — the phase measures traversal cost and residency,
   not delivery rates. *)
let route_workload inst ~routes ~seed =
  let g = inst.Girg.Instance.graph in
  let n = Sparse_graph.Graph.n g in
  let rng = Prng.Rng.create ~seed in
  let delivered = ref 0 in
  for _ = 1 to routes do
    let i, j = Prng.Dist.sample_distinct_pair rng ~n in
    let objective = Greedy_routing.Objective.girg_phi inst ~target:j in
    let outcome =
      Greedy_routing.Protocol.run Greedy_routing.Protocol.Greedy ~graph:g ~objective
        ~source:i ()
    in
    if outcome.Greedy_routing.Outcome.status = Greedy_routing.Outcome.Delivered then
      incr delivered
  done;
  [ ("routes", routes); ("delivered", !delivered) ]

let scale_sweep args =
  let int_arg key ~default =
    match int_of_string_opt (opt_value args key ~default:(string_of_int default)) with
    | Some v when v > 0 -> v
    | Some _ | None -> die Api.Error.Usage "%s expects a positive integer" key
  in
  let n0 = int_arg "--n" ~default:65_536 in
  let doublings =
    match int_of_string_opt (opt_value args "--doublings" ~default:"2") with
    | Some v when v >= 0 -> v
    | Some _ | None -> die Api.Error.Usage "--doublings expects a non-negative integer"
  in
  let shards = int_arg "--shards" ~default:4 in
  let routes = int_arg "--routes" ~default:256 in
  let sseed = int_arg "--seed" ~default:seed in
  let label = opt_value args "--label" ~default:"scale" in
  let out = opt_value args "--out" ~default:("BENCH_" ^ label ^ ".json") in
  let max_mmap_ratio =
    match opt_value args "--max-mmap-rss-ratio" ~default:"" with
    | "" -> None
    | v -> (
        match float_of_string_opt v with
        | Some f when f > 0.0 -> Some f
        | Some _ | None -> die Api.Error.Usage "--max-mmap-rss-ratio expects a positive number")
  in
  let keep = List.mem "--keep" args in
  let dir =
    match opt_value args "--dir" ~default:"" with
    | "" ->
        let d =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "smallworld-scale.%d" (Unix.getpid ()))
        in
        (try Unix.mkdir d 0o700
         with Unix.Unix_error (e, _, _) ->
           die Api.Error.Io "cannot create %s: %s" d (Unix.error_message e));
        d
    | d ->
        if not (Sys.file_exists d && Sys.is_directory d) then
          die Api.Error.Io "--dir %s: not a directory" d;
        d
  in
  (* Worker domains do not survive fork, so the parent pool must be
     joined before the first phase child; each child re-creates a pool
     at the requested parallelism for itself. *)
  let jobs = Parallel.Global.jobs () in
  Parallel.Global.set_jobs 1;
  let made = ref [] in
  let artifact name =
    let p = Filename.concat dir name in
    if not (List.mem p !made) then made := p :: !made;
    p
  in
  let entries = ref [] in
  let rss_of = Hashtbl.create 16 in
  let phase ~nv name f =
    let id = Printf.sprintf "scale/n%d/%s" nv name in
    let wall, alloc, rss, counters =
      run_phase ~id (fun () ->
          Parallel.Global.set_jobs jobs;
          f ())
    in
    Hashtbl.replace rss_of (nv, name) rss;
    Printf.printf "  %-28s %8.3fs  alloc %8.1fMB  peak rss %8.1fMB%s\n%!" id wall
      (alloc /. 1_048_576.0) (rss /. 1_048_576.0)
      (match List.assoc_opt "edges" counters with
      | Some e -> Printf.sprintf "  (%d edges)" e
      | None -> "");
    entries :=
      Obs.Bench.make_entry ~rss_bytes:rss ~id ~wall_s:[ wall ] ~alloc_bytes:alloc ~counters ()
      :: !entries
  in
  let gate_failures = ref [] in
  let ns = List.init (doublings + 1) (fun i -> n0 lsl i) in
  List.iter
    (fun nv ->
      let params = Girg.Params.make ~dim:2 ~beta:2.5 ~c:0.15 ~n:nv () in
      let snap = artifact (Printf.sprintf "n%d.girgb" nv) in
      let spills =
        List.init shards (fun i -> artifact (Printf.sprintf "n%d.shard%d.spill" nv i))
      in
      phase ~nv "generate" (fun () ->
          let inst = Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:sseed) params in
          [ ("edges", Sparse_graph.Graph.m inst.Girg.Instance.graph) ]);
      phase ~nv "spill" (fun () ->
          let edges = ref 0 in
          List.iteri
            (fun i path ->
              let h = Girg.Shard.generate_spill ~path ~seed:sseed ~shards ~shard:i params in
              edges := !edges + h.Girg.Shard.edges)
            spills;
          [ ("edges", !edges); ("shards", shards) ]);
      phase ~nv "merge" (fun () ->
          match Girg.Shard.merge ~paths:spills () with
          | Error e -> failwith e
          | Ok inst ->
              Girg.Store.save_binary ~path:snap inst;
              [ ("edges", Sparse_graph.Graph.m inst.Girg.Instance.graph) ]);
      phase ~nv "heap-route" (fun () ->
          match Girg.Store.load ~path:snap with
          | Error e -> failwith e
          | Ok inst -> route_workload inst ~routes ~seed:sseed);
      phase ~nv "mmap-route" (fun () ->
          match Girg.Store.load_mmap ~path:snap with
          | Error e -> failwith e
          | Ok inst -> route_workload inst ~routes ~seed:sseed);
      match (Hashtbl.find_opt rss_of (nv, "mmap-route"), Hashtbl.find_opt rss_of (nv, "heap-route")) with
      | Some m, Some h when m > 0.0 && h > 0.0 ->
          let ratio = m /. h in
          Printf.printf "  n=%-10d mmap-route peak rss is %.2fx the heap-route path\n%!" nv ratio;
          Option.iter
            (fun bound ->
              if ratio > bound then
                gate_failures :=
                  Printf.sprintf "n=%d: mmap-route rss %.1fMB is %.2fx heap-route (bound %.2fx)"
                    nv (m /. 1_048_576.0) ratio bound
                  :: !gate_failures)
            max_mmap_ratio
      | _ -> Printf.printf "  n=%-10d rss not measured (no /proc); ratio gate skipped\n%!" nv)
    ns;
  let report =
    {
      Obs.Bench.label;
      git_rev = Obs.Export.git_rev ();
      scale = Printf.sprintf "scale:n%d..%d:shards%d" n0 (n0 lsl doublings) shards;
      seed = sseed;
      jobs;
      entries = List.rev !entries;
    }
  in
  Out_channel.with_open_text out (fun oc ->
      output_string oc (Obs.Bench.to_string report);
      output_char oc '\n');
  Printf.printf "scale report (%s) written to %s\n" Obs.Bench.schema_version out;
  if not keep then begin
    List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) !made;
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end
  else Printf.printf "artifacts kept under %s\n" dir;
  match !gate_failures with
  | [] -> ()
  | fs ->
      List.iter (Printf.printf "FAIL: %s\n") (List.rev fs);
      exit (Api.Error.exit_code Api.Error.Regression)

(* --- serving-SLO diffs over smallworld.load.v1 --------------------- *)

(* `diff` gates loadgen reports with the same interface it gates bench
   reports: relative regressions against a baseline (throughput drop /
   p99 growth beyond --threshold) plus absolute SLOs on the current
   report (--max-p50-ms / --max-p99-ms / --max-refusal-rate) and an
   improvement requirement (--expect-speedup R: >= R x throughput or
   <= p99 / R vs the baseline).  --advisory-time downgrades every
   timing verdict to a warning; the refusal-rate SLO always gates. *)

let raw_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> die Api.Error.Io "%s" e
  | contents -> (
      match Obs.Export.json_of_string (String.trim contents) with
      | Ok j -> j
      | Error e -> die Api.Error.Io "cannot parse %s: %s" path e)

let json_schema = function
  | Obs.Export.Obj _ as doc -> (
      match Obs.Export.member "schema" doc with
      | Some (Obs.Export.Str s) -> s
      | _ -> "")
  | _ -> ""

let load_schema_version = "smallworld.load.v1"

let diff_load args ~advisory_time ~threshold_pct base_path cur_path baseline current =
  let number ~path doc name =
    match Obs.Export.member name doc with
    | Some (Obs.Export.Float f) -> f
    | Some (Obs.Export.Int i) -> float_of_int i
    | _ -> die Api.Error.Io "%s: missing %s field" path name
  in
  let text ~path doc name =
    match Obs.Export.member name doc with
    | Some (Obs.Export.Str s) -> s
    | _ -> die Api.Error.Io "%s: missing %s field" path name
  in
  let lat ~path doc q =
    match Obs.Export.member "latency_ms" doc with
    | Some l -> number ~path l q
    | None -> die Api.Error.Io "%s: missing latency_ms" path
  in
  let opt_gate key =
    match opt_value args key ~default:"" with
    | "" -> None
    | v -> (
        match float_of_string_opt v with
        | Some f -> Some f
        | None -> die Api.Error.Usage "%s expects a number, got %S" key v)
  in
  let b_label = text ~path:base_path baseline "label"
  and c_label = text ~path:cur_path current "label" in
  Printf.printf "schema %s\n" load_schema_version;
  Printf.printf "baseline %s (%s codec, %d conns, rate %g)  vs  current %s (%s codec, %d conns, rate %g)\n"
    b_label (text ~path:base_path baseline "codec")
    (int_of_float (number ~path:base_path baseline "connections"))
    (number ~path:base_path baseline "rate")
    c_label (text ~path:cur_path current "codec")
    (int_of_float (number ~path:cur_path current "connections"))
    (number ~path:cur_path current "rate");
  (* Throughput scales with the connection count and pacing, so a diff
     across those knobs would gate on an apples-to-oranges comparison
     (mirroring the bench-report cross-jobs refusal). *)
  List.iter
    (fun key ->
      let b = number ~path:base_path baseline key
      and c = number ~path:cur_path current key in
      if b <> c then
        die Api.Error.Incomparable "cannot compare: baseline %s %g, current %s %g" key b
          key c)
    [ "connections"; "rate" ];
  let b_tp = number ~path:base_path baseline "throughput_rps"
  and c_tp = number ~path:cur_path current "throughput_rps"
  and b_p99 = lat ~path:base_path baseline "p99"
  and c_p99 = lat ~path:cur_path current "p99"
  and c_p50 = lat ~path:cur_path current "p50"
  and c_refusal = number ~path:cur_path current "refusal_rate" in
  Printf.printf "  throughput %10.0f -> %10.0f req/s\n" b_tp c_tp;
  Printf.printf "  p50        %10.3f -> %10.3f ms\n" (lat ~path:base_path baseline "p50") c_p50;
  Printf.printf "  p99        %10.3f -> %10.3f ms\n" b_p99 c_p99;
  Printf.printf "  refusals   %10.4f -> %10.4f\n"
    (number ~path:base_path baseline "refusal_rate") c_refusal;
  let timing_failures = ref [] and hard_failures = ref [] in
  let timing_gate cond fmt =
    Printf.ksprintf (fun msg -> if cond then timing_failures := msg :: !timing_failures) fmt
  in
  if b_tp > 0.0 then
    timing_gate ((b_tp -. c_tp) /. b_tp *. 100.0 > threshold_pct)
      "throughput dropped %.0f%% (beyond %.0f%%)" ((b_tp -. c_tp) /. b_tp *. 100.0)
      threshold_pct;
  if b_p99 > 0.0 then
    timing_gate ((c_p99 -. b_p99) /. b_p99 *. 100.0 > threshold_pct)
      "p99 grew %.0f%% (beyond %.0f%%)" ((c_p99 -. b_p99) /. b_p99 *. 100.0) threshold_pct;
  Option.iter
    (fun bound -> timing_gate (c_p50 > bound) "p50 %.3f ms over the %.3f ms SLO" c_p50 bound)
    (opt_gate "--max-p50-ms");
  Option.iter
    (fun bound -> timing_gate (c_p99 > bound) "p99 %.3f ms over the %.3f ms SLO" c_p99 bound)
    (opt_gate "--max-p99-ms");
  Option.iter
    (fun r ->
      timing_gate
        (not (c_tp >= r *. b_tp || (b_p99 > 0.0 && c_p99 <= b_p99 /. r)))
        "expected %gx speedup: throughput %.0f vs %.0f req/s and p99 %.3f vs %.3f ms" r c_tp
        b_tp c_p99 b_p99)
    (opt_gate "--expect-speedup");
  Option.iter
    (fun bound ->
      if c_refusal > bound then
        hard_failures :=
          Printf.sprintf "refusal rate %.4f over the %.4f SLO" c_refusal bound
          :: !hard_failures)
    (opt_gate "--max-refusal-rate");
  List.iter (Printf.printf "FAIL: %s\n") !hard_failures;
  List.iter
    (fun msg ->
      if advisory_time then Printf.printf "WARN: %s (advisory: timing not gated)\n" msg
      else Printf.printf "FAIL: %s\n" msg)
    !timing_failures;
  if !hard_failures <> [] || ((not advisory_time) && !timing_failures <> []) then
    exit (Api.Error.exit_code Api.Error.Regression)
  else print_endline "OK: serving SLOs met"

let diff args =
  let threshold_pct = float_of_string (opt_value args "--threshold" ~default:"25") in
  let alloc_threshold_pct =
    float_of_string (opt_value args "--alloc-threshold" ~default:"100")
  in
  let rss_threshold_pct = float_of_string (opt_value args "--rss-threshold" ~default:"50") in
  (* On shared CI runners wall time flaps with machine load while
     allocation stays deterministic: --advisory-time reports timing
     verdicts but only allocation regressions affect the exit code. *)
  let advisory_time = List.mem "--advisory-time" args in
  (* Skip the values of value-taking flags when collecting the two
     positional report paths. *)
  let value_keys =
    [ "--threshold"; "--alloc-threshold"; "--rss-threshold"; "--max-p50-ms"; "--max-p99-ms";
      "--max-refusal-rate"; "--expect-speedup"; "--jobs" ]
  in
  let rec positionals = function
    | [] -> []
    | k :: _ :: rest when List.mem k value_keys -> positionals rest
    | a :: rest when String.length a > 0 && a.[0] = '-' -> positionals rest
    | a :: rest -> a :: positionals rest
  in
  match positionals args with
  | [ base_path; cur_path ]
    when json_schema (raw_json base_path) = load_schema_version
         || json_schema (raw_json cur_path) = load_schema_version ->
      let base_doc = raw_json base_path and cur_doc = raw_json cur_path in
      let bs = json_schema base_doc and cs = json_schema cur_doc in
      if bs <> cs then
        die Api.Error.Incomparable "cannot compare: %s has schema %S, %s has %S" base_path
          bs cur_path cs;
      diff_load args ~advisory_time ~threshold_pct base_path cur_path base_doc cur_doc
  | [ base_path; cur_path ] ->
      let baseline = load_report base_path and current = load_report cur_path in
      (* The header goes out before any comparability refusal, so an
         exit-2 "cannot compare" names exactly what mismatched. *)
      Printf.printf "schema %s\n" Obs.Bench.schema_version;
      Printf.printf "baseline %s (%s, %s, jobs %d)  vs  current %s (%s, %s, jobs %d)\n"
        baseline.Obs.Bench.label baseline.Obs.Bench.git_rev baseline.Obs.Bench.scale
        baseline.Obs.Bench.jobs
        current.Obs.Bench.label current.Obs.Bench.git_rev current.Obs.Bench.scale
        current.Obs.Bench.jobs;
      if baseline.Obs.Bench.jobs <> current.Obs.Bench.jobs then
        (* Wall times scale with the job count and alloc_bytes is
           per-domain in OCaml 5, so a cross-jobs diff would gate CI on
           an apples-to-oranges comparison. *)
        die Api.Error.Incomparable
          "cannot compare: baseline recorded with --jobs %d, current with --jobs %d"
          baseline.Obs.Bench.jobs current.Obs.Bench.jobs;
      let comparisons =
        Obs.Bench.diff ~threshold_pct ~alloc_threshold_pct ~rss_threshold_pct ~baseline
          ~current ()
      in
      if baseline.Obs.Bench.scale <> current.Obs.Bench.scale then
        print_endline "warning: reports were recorded at different scales";
      print_string (Obs.Bench.render_diff comparisons);
      let time_bad = Obs.Bench.time_regressed comparisons in
      let alloc_bad = Obs.Bench.alloc_regressed comparisons in
      let rss_bad = Obs.Bench.rss_regressed comparisons in
      if alloc_bad then begin
        Printf.printf "FAIL: allocation regression beyond %.0f%% (or missing experiment)\n"
          alloc_threshold_pct;
        exit (Api.Error.exit_code Api.Error.Regression)
      end
      else if rss_bad then begin
        (* Like allocation, peak RSS is structural at a fixed seed, so
           --advisory-time does not downgrade it. *)
        Printf.printf "FAIL: peak-RSS regression beyond %.0f%%\n" rss_threshold_pct;
        exit (Api.Error.exit_code Api.Error.Regression)
      end
      else if time_bad && not advisory_time then begin
        Printf.printf "FAIL: median regression beyond %.0f%% (or missing experiment)\n" threshold_pct;
        exit (Api.Error.exit_code Api.Error.Regression)
      end
      else if time_bad then
        Printf.printf
          "WARN: median regression beyond %.0f%% (advisory: timing not gated on this runner)\n"
          threshold_pct
      else print_endline "OK: no regression beyond threshold"
  | _ ->
      die Api.Error.Usage
        "usage: bench diff BASELINE CURRENT [--threshold PCT] [--alloc-threshold PCT] \
         [--rss-threshold PCT] [--advisory-time] [--max-p50-ms X] [--max-p99-ms X] \
         [--max-refusal-rate R] [--expect-speedup R]  (load reports use the serving-SLO \
         gates)"

let () =
  match Array.to_list Sys.argv with
  | _ :: "record" :: rest -> record rest
  | _ :: "scale" :: rest -> scale_sweep rest
  | _ :: "diff" :: rest -> diff rest
  | _ ->
      run_experiment_tables ();
      run_benchmarks ()
