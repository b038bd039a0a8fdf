(* Benchmark telemetry harness.  The paper-reproduction tables are
   printed by `experiments_cli run`; this binary records, compares and
   sweeps their cost.

   Record/diff modes — continuous-benchmark telemetry over the
   smallworld.bench.v1 schema (Obs.Bench): `record` runs each experiment
   k times (plus the text-vs-binary snapshot-load pair) and writes
   BENCH_<label>.json (median/min wall time, allocated bytes, counter
   snapshots, git revision); `diff` compares two such files and exits
   non-zero on a noise-adjusted median regression.  Set
   SMALLWORLD_BENCH_QUICK=1 to record at Quick scale.

   Scale mode — the out-of-core axis: for each n (doubling from --n,
   fixed seed) the sweep runs generate (heap cell sampler), spill
   (sharded generation), merge (spills -> binary snapshot), heap-route
   and mmap-route as separate forked phases, recording wall time,
   allocation and peak RSS (VmHWM) per phase into the same report
   schema, so `diff` gates the memory ceiling alongside time and
   allocation (--rss-threshold).

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

let flag_value args key =
  let rec scan = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan args

let opt_value args key ~default = Option.value (flag_value args key) ~default

(* Numeric flags: [None] when absent; a value that does not parse or is
   out of range is a usage error (exit 2). *)
let numeric_arg parse ~valid ~what args key =
  Option.map
    (fun v ->
      match parse v with
      | Some x when valid x -> x
      | Some _ | None -> die Api.Error.Usage "%s expects %s, got %S" key what v)
    (flag_value args key)

(* [min] is 1 (counts and sizes), 0, or [min_int] (any integer). *)
let int_arg ?(min = 1) args key ~default =
  let what =
    match min with
    | 1 -> "a positive integer"
    | 0 -> "a non-negative integer"
    | _ -> "an integer"
  in
  Option.value ~default (numeric_arg int_of_string_opt ~valid:(fun v -> v >= min) ~what args key)

(* Percentages are non-negative; ratios are [~positive]. *)
let float_arg ?(positive = false) args key =
  numeric_arg float_of_string_opt
    ~valid:(fun f -> if positive then f > 0.0 else f >= 0.0)
    ~what:(if positive then "a positive number" else "a non-negative number")
    args key

(* ------------------------------------------------------------------ *)
(* record / diff: continuous-benchmark telemetry (smallworld.bench.v1) *)

let record args =
  let runs = int_arg args "--runs" ~default:3 in
  let label = opt_value args "--label" ~default:"current" in
  let rseed = int_arg ~min:min_int args "--seed" ~default:seed in
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
  let n0 = int_arg args "--n" ~default:65_536 in
  let doublings = int_arg ~min:0 args "--doublings" ~default:2 in
  let shards = int_arg args "--shards" ~default:4 in
  let routes = int_arg args "--routes" ~default:256 in
  let sseed = int_arg args "--seed" ~default:seed in
  let label = opt_value args "--label" ~default:"scale" in
  let out = opt_value args "--out" ~default:("BENCH_" ^ label ^ ".json") in
  let max_mmap_ratio = float_arg ~positive:true args "--max-mmap-rss-ratio" in
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

let diff args =
  let pct key ~default = Option.value ~default (float_arg args key) in
  let threshold_pct = pct "--threshold" ~default:Obs.Bench.default_threshold_pct in
  let alloc_threshold_pct =
    pct "--alloc-threshold" ~default:Obs.Bench.default_alloc_threshold_pct
  in
  let rss_threshold_pct = pct "--rss-threshold" ~default:Obs.Bench.default_rss_threshold_pct in
  (* On shared CI runners wall time flaps with machine load while
     allocation stays deterministic: --advisory-time reports timing
     verdicts but only allocation regressions affect the exit code. *)
  let advisory_time = List.mem "--advisory-time" args in
  (* Skip the values of value-taking flags when collecting the two
     positional report paths. *)
  let value_keys = [ "--threshold"; "--alloc-threshold"; "--rss-threshold"; "--jobs" ] in
  let rec positionals = function
    | [] -> []
    | k :: _ :: rest when List.mem k value_keys -> positionals rest
    | a :: rest when String.length a > 0 && a.[0] = '-' -> positionals rest
    | a :: rest -> a :: positionals rest
  in
  match positionals args with
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
      print_string
        (Obs.Bench.render_diff
           ~unbaselined:(Obs.Bench.unbaselined ~baseline ~current)
           comparisons);
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
         [--rss-threshold PCT] [--advisory-time]"

let () =
  match Array.to_list Sys.argv with
  | _ :: "record" :: rest -> record rest
  | _ :: "scale" :: rest -> scale_sweep rest
  | _ :: "diff" :: rest -> diff rest
  | _ -> die Api.Error.Usage "usage: bench (record | diff | scale) [OPTIONS]"
