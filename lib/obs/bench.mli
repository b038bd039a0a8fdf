(** Continuous-benchmarking records: the [smallworld.bench.v1] schema
    ([BENCH_<label>.json]) and its noise-aware comparator.

    A {!report} captures one `bench record` run — per-experiment median
    and minimum wall time over k repetitions, allocated bytes, counter
    snapshots — stamped with {!Export.git_rev} so a committed baseline
    pins the revision it measured.  {!diff} compares two reports and
    flags only regressions that clear both a relative threshold and an
    absolute noise floor, so CI can gate on wall time without flapping. *)

type entry = {
  id : string;  (** experiment id, e.g. ["E1"] *)
  runs : int;
  median_s : float;
  min_s : float;
  alloc_bytes : float;  (** major+minor allocation of the last run *)
  rss_bytes : float;
      (** peak resident-set bytes of the phase ([VmHWM] of a per-phase
          child process in `bench scale`); [0.] when not recorded —
          in-process experiment entries and reports predating the field
          parse as such, and the RSS axis then never gates *)
  counters : (string * int) list;  (** counter snapshot of the last run *)
}

type report = {
  label : string;
  git_rev : string;
  scale : string;
  seed : int;
  jobs : int;
      (** resolved [Parallel] job count the run executed with; reports
          predating the field parse as [1].  Wall times at different job
          counts are not comparable (and [alloc_bytes] is per-domain in
          OCaml 5), so `bench diff` refuses mismatched reports. *)
  entries : entry list;
}

val schema_version : string
(** Currently ["smallworld.bench.v1"]. *)

val median : float list -> float
(** [nan] on an empty list; mean of the middle pair on even lengths. *)

val make_entry :
  ?rss_bytes:float ->
  id:string ->
  wall_s:float list ->
  alloc_bytes:float ->
  counters:(string * int) list ->
  unit ->
  entry
(** [rss_bytes] defaults to [0.] (not recorded).
    @raise Invalid_argument when [wall_s] is empty. *)

val counters_of_registry : Metrics.registry -> (string * int) list
(** Counter-kind metrics only, sorted by name. *)

val to_json : report -> Export.json
val to_string : report -> string

val of_json : Export.json -> (report, string) result
val of_string : string -> (report, string) result

(** {1 Comparison} *)

type verdict = Ok_within_noise | Regressed | Improved | Missing

type comparison = {
  c_id : string;
  base_median_s : float;
  cur_median_s : float;  (** [nan] when the experiment is {!Missing} *)
  ratio : float;
  verdict : verdict;  (** wall-time verdict *)
  base_alloc_bytes : float;
  cur_alloc_bytes : float;
  alloc_ratio : float;
  alloc_verdict : verdict;
      (** allocation verdict; allocation is deterministic at fixed seed and
          job count, so this gate is trustworthy even on noisy CI boxes *)
  base_rss_bytes : float;
  cur_rss_bytes : float;
  rss_ratio : float;  (** [nan] unless both entries recorded RSS *)
  rss_verdict : verdict;
      (** peak-RSS verdict; [Ok_within_noise] whenever either side did
          not record RSS, so refreshing a pre-RSS baseline never fails
          on this axis.  Never [Missing] — absent experiments are
          already failed by the timing axis. *)
}

val default_threshold_pct : float
(** 25%. *)

val default_min_delta_s : float
(** 5ms: median deltas below this are noise regardless of ratio. *)

val default_alloc_threshold_pct : float
(** 100%: an experiment allocating over twice its baseline bytes fails —
    a structural change (a hot path started boxing), not timer jitter. *)

val default_min_delta_bytes : float
(** 1MB: allocation deltas below this are ignored regardless of ratio. *)

val default_rss_threshold_pct : float
(** 50%: looser than allocation (page-cache accounting and GC heap
    sizing add slack) but tight enough to catch an mmap path that
    started materialising its sections. *)

val default_min_delta_rss_bytes : float
(** 16MB: RSS deltas below this are ignored regardless of ratio. *)

val diff :
  ?threshold_pct:float ->
  ?min_delta_s:float ->
  ?alloc_threshold_pct:float ->
  ?min_delta_bytes:float ->
  ?rss_threshold_pct:float ->
  ?min_delta_rss_bytes:float ->
  baseline:report ->
  current:report ->
  unit ->
  comparison list
(** One comparison per baseline entry.  [Regressed]/[Improved] require
    the median delta to exceed [min_delta_s] {e and} the ratio to leave
    the [1 ± threshold_pct/100] band; the allocation verdict analogously
    uses [min_delta_bytes] and the multiplicative
    [1 + alloc_threshold_pct/100] band ([Improved] below its reciprocal).
    Experiments absent from [current] come back [Missing] on both axes;
    those absent from [baseline] get no comparison (see {!unbaselined}). *)

val unbaselined : baseline:report -> current:report -> string list
(** Ids of [current] entries that [baseline] lacks, in [current]'s order.
    {!diff} has nothing to judge them against, so no gate sees them. *)

val regressed : comparison list -> bool
(** {!time_regressed}, {!alloc_regressed} or {!rss_regressed} — the
    full CI gate. *)

val time_regressed : comparison list -> bool
(** True if any wall-time verdict is [Regressed] or [Missing]. *)

val alloc_regressed : comparison list -> bool
(** True if any allocation verdict is [Regressed] or [Missing].  CI legs
    on noisy shared runners can gate on this alone (advisory time). *)

val rss_regressed : comparison list -> bool
(** True if any peak-RSS verdict is [Regressed].  Entries without RSS
    data never trip this. *)

val verdict_to_string : verdict -> string
val render_diff : ?unbaselined:string list -> comparison list -> string
(** The comparison table, then one line naming [unbaselined] (default
    none) as [not in baseline (not gated): ...] so ungated ids are never
    silent. *)
