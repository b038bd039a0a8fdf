(* The out-of-core scale sweep.  The paper-reproduction tables are
   printed by `experiments_cli run`, their allocation is pinned by
   `dune runtest` (test/golden/alloc_quick.txt), and serving and routing
   cost are measured by perfbench; this binary covers the one axis
   those do not reach: n up to 10^7 with the graph on disk.

   For each n (doubling from --n, fixed seed) the sweep runs generate
   (heap cell sampler), spill (sharded generation), merge (spills ->
   binary snapshot), heap-route and mmap-route as separate forked
   phases, recording wall time, allocation and peak RSS (VmHWM) per
   phase into a smallworld.bench.v1 report.  --max-mmap-rss-ratio fails
   the run (exit 1) when the mmap-route peak RSS exceeds that multiple
   of heap-route's.

     dune exec bench/main.exe -- scale [--n N] [--doublings K] [--shards S]
                                       [--routes R] [--label L] [--seed N]
                                       [--out FILE] [--dir DIR] [--keep]
                                       [--max-mmap-rss-ratio X] [--jobs N]

   --jobs N (0 = all cores) sizes the shared Parallel pool; otherwise
   SMALLWORLD_JOBS applies.  The report records the job count.  *)

(* All fatal exits go through the shared error taxonomy so bench and the
   route server agree on codes: perf-regression -> 1, caller errors
   (usage / io) -> 2, matching what CI gates on. *)
let die code fmt = Printf.ksprintf (fun msg -> Api.Cli.fail (Api.Error.make code "%s" msg)) fmt

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

(* [min] is 1 (counts and sizes) or 0. *)
let int_arg ?(min = 1) args key ~default =
  let what = if min = 1 then "a positive integer" else "a non-negative integer" in
  Option.value ~default (numeric_arg int_of_string_opt ~valid:(fun v -> v >= min) ~what args key)

let ratio_arg args key =
  numeric_arg float_of_string_opt ~valid:(fun f -> f > 0.0) ~what:"a positive number" args key

(* Peak resident set of this process in bytes, from /proc/self/status
   VmHWM (0 when the file or the field is unavailable, e.g. non-Linux —
   entries then omit rss_bytes and the mmap/heap ratio gate is
   skipped). *)
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
      let a0 = Obs.Span.allocated_bytes () in
      (match f () with
      | counters ->
          Printf.fprintf oc "ok %.17g %.17g %.17g %s\n%!"
            (Unix.gettimeofday () -. t0)
            (Obs.Span.allocated_bytes () -. a0)
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
  let max_mmap_ratio = ratio_arg args "--max-mmap-rss-ratio" in
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
    (* One smallworld.bench.v1 entry per phase: a single run, so the
       median and minimum are both its wall time; rss_bytes only when
       /proc reported it. *)
    let open Obs.Export in
    entries :=
      Obj
        ([
           ("id", Str id);
           ("runs", Int 1);
           ("median_s", Float wall);
           ("min_s", Float wall);
           ("alloc_bytes", Float alloc);
         ]
        @ (if rss > 0.0 then [ ("rss_bytes", Float rss) ] else [])
        @ [ ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) counters)) ])
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
  let schema = "smallworld.bench.v1" in
  let report =
    Obs.Export.(
      Obj
        [
          ("schema", Str schema);
          ("label", Str label);
          ("git_rev", Str (git_rev ()));
          ("scale", Str (Printf.sprintf "scale:n%d..%d:shards%d" n0 (n0 lsl doublings) shards));
          ("seed", Int sseed);
          ("jobs", Int jobs);
          ("experiments", Arr (List.rev !entries));
        ])
  in
  Out_channel.with_open_text out (fun oc ->
      output_string oc (Obs.Export.json_to_string report);
      output_char oc '\n');
  Printf.printf "scale report (%s) written to %s\n" schema out;
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

let () =
  match Array.to_list Sys.argv with
  | _ :: "scale" :: rest -> scale_sweep rest
  | _ -> die Api.Error.Usage "usage: bench scale [OPTIONS]"
