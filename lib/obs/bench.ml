(* Continuous-benchmarking records: the smallworld.bench.v1 schema and
   its noise-aware comparator.  A report is one flat JSON object per
   bench run (per-experiment median/min wall time, allocated bytes and
   counter snapshots, stamped with the git revision), written as
   BENCH_<label>.json; `bench diff BASELINE CURRENT` reads two of them
   back and fails only on a median regression that clears both a
   relative threshold and an absolute noise floor. *)

type entry = {
  id : string;
  runs : int;
  median_s : float;
  min_s : float;
  alloc_bytes : float;
  rss_bytes : float;
  counters : (string * int) list;
}

type report = {
  label : string;
  git_rev : string;
  scale : string;
  seed : int;
  jobs : int;
  entries : entry list;
}

let schema_version = "smallworld.bench.v1"

let median values =
  match List.sort compare values with
  | [] -> nan
  | sorted ->
      let n = List.length sorted in
      if n mod 2 = 1 then List.nth sorted (n / 2)
      else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

let make_entry ?(rss_bytes = 0.0) ~id ~wall_s ~alloc_bytes ~counters () =
  if wall_s = [] then invalid_arg "Obs.Bench.make_entry: no samples";
  {
    id;
    runs = List.length wall_s;
    median_s = median wall_s;
    min_s = List.fold_left Float.min infinity wall_s;
    alloc_bytes;
    rss_bytes;
    counters;
  }

let counters_of_registry registry =
  List.filter_map
    (fun (name, v) -> match v with Metrics.Counter_v c -> Some (name, c) | _ -> None)
    (Metrics.snapshot registry)

(* ------------------------------------------------------------------ *)
(* Serialisation *)

let entry_to_json e =
  Export.Obj
    ([
       ("id", Export.Str e.id);
       ("runs", Export.Int e.runs);
       ("median_s", Export.Float e.median_s);
       ("min_s", Export.Float e.min_s);
       ("alloc_bytes", Export.Float e.alloc_bytes);
     ]
    (* Emitted only when measured, so time/alloc-only reports keep their
       v1 byte layout and old readers never see the field. *)
    @ (if e.rss_bytes > 0.0 then [ ("rss_bytes", Export.Float e.rss_bytes) ] else [])
    @ [ ("counters", Export.Obj (List.map (fun (k, v) -> (k, Export.Int v)) e.counters)) ])

let to_json r =
  Export.Obj
    [
      ("schema", Export.Str schema_version);
      ("label", Export.Str r.label);
      ("git_rev", Export.Str r.git_rev);
      ("scale", Export.Str r.scale);
      ("seed", Export.Int r.seed);
      ("jobs", Export.Int r.jobs);
      ("experiments", Export.Arr (List.map entry_to_json r.entries));
    ]

let to_string r = Export.json_to_string (to_json r)

let ( let* ) r f = Result.bind r f

let field name j =
  match Export.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_str = function Export.Str s -> Ok s | _ -> Error "expected a string"
let as_int = function Export.Int i -> Ok i | _ -> Error "expected an integer"

let as_float = function
  | Export.Float f -> Ok f
  | Export.Int i -> Ok (float_of_int i)
  | Export.Null -> Ok nan
  | _ -> Error "expected a number"

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = collect f rest in
      Ok (y :: ys)

let entry_of_json j =
  let* id = Result.bind (field "id" j) as_str in
  let* runs = Result.bind (field "runs" j) as_int in
  let* median_s = Result.bind (field "median_s" j) as_float in
  let* min_s = Result.bind (field "min_s" j) as_float in
  let* alloc_bytes = Result.bind (field "alloc_bytes" j) as_float in
  (* [rss_bytes] joined the schema with the out-of-core scale sweep;
     entries written before it (and in-process experiment entries, whose
     RSS would be meaningless) parse as 0 = "not recorded". *)
  let* rss_bytes =
    match field "rss_bytes" j with Ok v -> as_float v | Error _ -> Ok 0.0
  in
  let* counters =
    match field "counters" j with
    | Ok (Export.Obj fields) ->
        collect (fun (k, v) -> Result.map (fun i -> (k, i)) (as_int v)) fields
    | Ok _ -> Error "counters: expected an object"
    | Error _ -> Ok []
  in
  Ok { id; runs; median_s; min_s; alloc_bytes; rss_bytes; counters }

let of_json j =
  let* schema = Result.bind (field "schema" j) as_str in
  if schema <> schema_version then Error (Printf.sprintf "unsupported schema %S" schema)
  else
    let* label = Result.bind (field "label" j) as_str in
    let* git_rev = Result.bind (field "git_rev" j) as_str in
    let* scale = Result.bind (field "scale" j) as_str in
    let* seed = Result.bind (field "seed" j) as_int in
    (* [jobs] joined the schema with the multicore layer; reports
       written before it are single-domain by construction. *)
    let* jobs =
      match field "jobs" j with Ok v -> as_int v | Error _ -> Ok 1
    in
    let* entries =
      match field "experiments" j with
      | Ok (Export.Arr items) -> collect entry_of_json items
      | Ok _ -> Error "experiments: expected an array"
      | Error e -> Error e
    in
    Ok { label; git_rev; scale; seed; jobs; entries }

let of_string s = Result.bind (Export.json_of_string s) of_json

(* ------------------------------------------------------------------ *)
(* Comparison *)

type verdict = Ok_within_noise | Regressed | Improved | Missing

type comparison = {
  c_id : string;
  base_median_s : float;
  cur_median_s : float;  (** [nan] when missing from the current report *)
  ratio : float;
  verdict : verdict;
  base_alloc_bytes : float;
  cur_alloc_bytes : float;
  alloc_ratio : float;
  alloc_verdict : verdict;
  base_rss_bytes : float;
  cur_rss_bytes : float;
  rss_ratio : float;
  rss_verdict : verdict;
}

let default_threshold_pct = 25.0

(* Timings below the floor are dominated by scheduler/GC noise at any
   threshold; ignore them rather than flapping CI. *)
let default_min_delta_s = 0.005

(* Allocation is deterministic at a fixed seed and job count, so the gate
   can be far looser than the timing one and still mean something: 100%
   (a doubling) flags a structural change — a hot path that started
   boxing — not jitter.  The byte floor ignores experiments too small
   for a ratio to matter. *)
let default_alloc_threshold_pct = 100.0
let default_min_delta_bytes = 1_000_000.0

(* Peak RSS is reproducible at a fixed seed (it is dominated by the data
   structures, not the allocator), but page-cache accounting and GC heap
   sizing add slack, so the gate sits between the timing and allocation
   ones.  The floor ignores instances too small for pages to matter. *)
let default_rss_threshold_pct = 50.0
let default_min_delta_rss_bytes = 16_777_216.0

let diff ?(threshold_pct = default_threshold_pct) ?(min_delta_s = default_min_delta_s)
    ?(alloc_threshold_pct = default_alloc_threshold_pct)
    ?(min_delta_bytes = default_min_delta_bytes)
    ?(rss_threshold_pct = default_rss_threshold_pct)
    ?(min_delta_rss_bytes = default_min_delta_rss_bytes) ~baseline ~current () =
  List.map
    (fun (b : entry) ->
      match List.find_opt (fun (c : entry) -> c.id = b.id) current.entries with
      | None ->
          {
            c_id = b.id;
            base_median_s = b.median_s;
            cur_median_s = nan;
            ratio = nan;
            verdict = Missing;
            base_alloc_bytes = b.alloc_bytes;
            cur_alloc_bytes = nan;
            alloc_ratio = nan;
            alloc_verdict = Missing;
            base_rss_bytes = b.rss_bytes;
            cur_rss_bytes = nan;
            rss_ratio = nan;
            (* The timing axis already fails a missing experiment; the
               RSS axis only ever judges measurements that exist. *)
            rss_verdict = Ok_within_noise;
          }
      | Some c ->
          let ratio = if b.median_s > 0.0 then c.median_s /. b.median_s else nan in
          let delta = c.median_s -. b.median_s in
          let verdict =
            if delta > min_delta_s && ratio > 1.0 +. (threshold_pct /. 100.0) then Regressed
            else if -.delta > min_delta_s && ratio < 1.0 -. (threshold_pct /. 100.0) then Improved
            else Ok_within_noise
          in
          let alloc_ratio =
            if b.alloc_bytes > 0.0 then c.alloc_bytes /. b.alloc_bytes else nan
          in
          let alloc_delta = c.alloc_bytes -. b.alloc_bytes in
          let growth = 1.0 +. (alloc_threshold_pct /. 100.0) in
          let alloc_verdict =
            if alloc_delta > min_delta_bytes && alloc_ratio > growth then Regressed
            else if -.alloc_delta > min_delta_bytes && alloc_ratio < 1.0 /. growth then
              Improved
            else Ok_within_noise
          in
          (* RSS is only comparable when both reports recorded it: a
             report from before the field (or an in-process entry)
             carries 0, and gating 0-vs-measured would fail every
             baseline refresh. *)
          let rss_comparable = b.rss_bytes > 0.0 && c.rss_bytes > 0.0 in
          let rss_ratio = if rss_comparable then c.rss_bytes /. b.rss_bytes else nan in
          let rss_delta = c.rss_bytes -. b.rss_bytes in
          let rss_growth = 1.0 +. (rss_threshold_pct /. 100.0) in
          let rss_verdict =
            if not rss_comparable then Ok_within_noise
            else if rss_delta > min_delta_rss_bytes && rss_ratio > rss_growth then Regressed
            else if -.rss_delta > min_delta_rss_bytes && rss_ratio < 1.0 /. rss_growth then
              Improved
            else Ok_within_noise
          in
          {
            c_id = b.id;
            base_median_s = b.median_s;
            cur_median_s = c.median_s;
            ratio;
            verdict;
            base_alloc_bytes = b.alloc_bytes;
            cur_alloc_bytes = c.alloc_bytes;
            alloc_ratio;
            alloc_verdict;
            base_rss_bytes = b.rss_bytes;
            cur_rss_bytes = c.rss_bytes;
            rss_ratio;
            rss_verdict;
          })
    baseline.entries

let unbaselined ~baseline ~current =
  List.filter_map
    (fun (c : entry) ->
      if List.exists (fun (b : entry) -> b.id = c.id) baseline.entries then None else Some c.id)
    current.entries

let time_regressed comparisons =
  List.exists (fun c -> c.verdict = Regressed || c.verdict = Missing) comparisons

let alloc_regressed comparisons =
  List.exists (fun c -> c.alloc_verdict = Regressed || c.alloc_verdict = Missing) comparisons

(* No [Missing] arm: entries without RSS data come back [Ok_within_noise]
   on this axis by construction. *)
let rss_regressed comparisons = List.exists (fun c -> c.rss_verdict = Regressed) comparisons

let regressed comparisons =
  time_regressed comparisons || alloc_regressed comparisons || rss_regressed comparisons

let verdict_to_string = function
  | Ok_within_noise -> "ok"
  | Regressed -> "REGRESSED"
  | Improved -> "improved"
  | Missing -> "MISSING"

let mib bytes =
  if Float.is_nan bytes then "-" else Printf.sprintf "%.1fMB" (bytes /. 1_048_576.0)

(* 0 means "not recorded" for RSS, so it renders as absent. *)
let mib_rss bytes = if bytes <= 0.0 then "-" else mib bytes

let render_diff ?(unbaselined = []) comparisons =
  (* The RSS columns only appear when some entry recorded RSS (scale
     reports); plain experiment diffs keep the narrower v1 table. *)
  let with_rss =
    List.exists (fun c -> c.base_rss_bytes > 0.0 || c.cur_rss_bytes > 0.0) comparisons
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "  %-24s %12s %12s %8s %-10s %10s %10s %8s %-13s" "exp" "base median"
       "cur median" "ratio" "verdict" "base alloc" "cur alloc" "aratio" "alloc verdict");
  if with_rss then
    Buffer.add_string buf
      (Printf.sprintf " %10s %10s %8s %s" "base rss" "cur rss" "rratio" "rss verdict");
  Buffer.add_char buf '\n';
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  %-24s %11.3fs %11.3fs %8s %-10s %10s %10s %8s %-13s" c.c_id
           c.base_median_s c.cur_median_s
           (if Float.is_nan c.ratio then "-" else Printf.sprintf "%.2fx" c.ratio)
           (verdict_to_string c.verdict) (mib c.base_alloc_bytes) (mib c.cur_alloc_bytes)
           (if Float.is_nan c.alloc_ratio then "-" else Printf.sprintf "%.2fx" c.alloc_ratio)
           (verdict_to_string c.alloc_verdict));
      if with_rss then
        Buffer.add_string buf
          (Printf.sprintf " %10s %10s %8s %s" (mib_rss c.base_rss_bytes)
             (mib_rss c.cur_rss_bytes)
             (if Float.is_nan c.rss_ratio then "-" else Printf.sprintf "%.2fx" c.rss_ratio)
             (verdict_to_string c.rss_verdict));
      Buffer.add_char buf '\n')
    comparisons;
  if unbaselined <> [] then
    Buffer.add_string buf
      (Printf.sprintf "  not in baseline (not gated): %s\n" (String.concat ", " unbaselined));
  Buffer.contents buf
