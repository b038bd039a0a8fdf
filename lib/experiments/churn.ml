(* Greedy routing under churn: drive a mutation scenario over a live
   instance, one epoch at a time, and measure delivery after every epoch.

   Everything is keyed on (seed, epoch) through disjoint
   [Prng.Rng.of_mixed_triple] substreams — channel 0 plans mutations,
   channel 1 samples measurement pairs, channel 2 draws Milgram quit
   coins — so a scenario replays bit-identically regardless of job
   count or graph backing. *)

module G = Sparse_graph.Graph

type scenario =
  | Uniform  (** each event flips a uniformly drawn vertex (leave/rejoin) *)
  | Adversarial  (** each epoch removes the highest-weight live vertices *)
  | Milgram  (** no structural churn; per-hop quit probability instead *)

let scenario_to_string = function
  | Uniform -> "uniform"
  | Adversarial -> "adversarial"
  | Milgram -> "milgram"

let scenario_of_string = function
  | "uniform" -> Ok Uniform
  | "adversarial" -> Ok Adversarial
  | "milgram" -> Ok Milgram
  | s -> Error (Printf.sprintf "unknown churn scenario %S (uniform | adversarial | milgram)" s)

type config = {
  scenario : scenario;
  epochs : int;  (** mutation rounds after the baseline measurement *)
  events : int;  (** structural events per epoch (ignored by [Milgram]) *)
  quit : float;  (** per-hop quit probability, 0.0 disables *)
  seed : int;  (** keys mutation planning, resampling and quit coins *)
  count : int;  (** measurement pairs per epoch *)
  pair_seed : int;  (** keys pair sampling, independently of [seed] *)
  protocol : Greedy_routing.Protocol.t;
  max_steps : int option;
}

type epoch_row = {
  epoch : int;
  live : int;
  edges : int;
  attempted : int;
  delivered : int;
  mean_steps : float;  (** over delivered runs; [nan] if none *)
  mean_stretch : float;  (** over delivered runs; [nan] if none *)
}

(* Plan the structural events of one epoch against the current graph.
   Pure: returns the op list without touching the instance. *)
let plan cfg ~(inst : Girg.Instance.t) ~epoch =
  let g = inst.graph in
  let n = G.n g in
  match cfg.scenario with
  | Milgram -> []
  | Uniform ->
      let rng =
        Prng.Rng.of_mixed_triple
          ~base:(Prng.Rng.mix64 (Int64.of_int cfg.seed))
          ~a:epoch ~b:0 ~c:0
      in
      (* Track liveness as the plan itself would change it, so a vertex
         drawn twice in one epoch flips twice (leave then rejoin). *)
      let flipped = Hashtbl.create 16 in
      let is_live v =
        match Hashtbl.find_opt flipped v with
        | Some b -> b
        | None -> G.live g v
      in
      List.init cfg.events (fun _ ->
          let v = Prng.Rng.int rng n in
          let op = if is_live v then Girg.Mutate.Leave v else Girg.Mutate.Rejoin v in
          Hashtbl.replace flipped v (not (is_live v));
          op)
  | Adversarial ->
      (* Highest-weight live vertices first; ties break on the lower
         index so the target set is unique. *)
      let order = Array.init n (fun v -> v) in
      Array.sort
        (fun a b ->
          match compare inst.weights.(b) inst.weights.(a) with
          | 0 -> compare a b
          | c -> c)
        order;
      let ops = ref [] and taken = ref 0 and i = ref 0 in
      while !taken < cfg.events && !i < n do
        let v = order.(!i) in
        if G.live g v then begin
          ops := Girg.Mutate.Leave v :: !ops;
          incr taken
        end;
        incr i
      done;
      List.rev !ops

(* Milgram's letter holders give up with probability [quit] at every
   forwarding step: a chain of [s] hops survives with probability
   [(1-quit)^s].  One coin per delivered run, keyed on its index in the
   (deterministic) delivery order. *)
let survives_quit cfg ~epoch i steps =
  if cfg.quit <= 0.0 then true
  else
    let rng =
      Prng.Rng.of_mixed_triple
        ~base:(Prng.Rng.mix64 (Int64.of_int cfg.seed))
        ~a:epoch ~b:2 ~c:i
    in
    Prng.Rng.unit_float rng < ((1.0 -. cfg.quit) ** steps)

let measure ?pool cfg ~(inst : Girg.Instance.t) ~epoch =
  let g = inst.graph in
  let pair_rng =
    Prng.Rng.of_mixed_triple
      ~base:(Prng.Rng.mix64 (Int64.of_int cfg.pair_seed))
      ~a:epoch ~b:1 ~c:0
  in
  let pairs = Workload.sample_pairs_giant ~rng:pair_rng ~graph:g ~count:cfg.count in
  let results =
    Workload.run ?pool ~graph:g
      ~objective_for:(fun ~target -> Greedy_routing.Objective.girg_phi inst ~target)
      ~protocol:cfg.protocol ?max_steps:cfg.max_steps ~with_stretch:true ~pairs ()
  in
  let keep = Array.mapi (fun i s -> survives_quit cfg ~epoch i s) results.steps in
  let filter arr =
    let out = ref [] in
    Array.iteri (fun i x -> if i < Array.length keep && keep.(i) then out := x :: !out) arr;
    Array.of_list (List.rev !out)
  in
  let steps = filter results.steps in
  let stretches = filter results.stretches in
  let mean arr = if Array.length arr = 0 then nan else Stats.Summary.mean arr in
  {
    epoch;
    live = G.live_count g;
    edges = G.m g;
    attempted = results.attempted;
    delivered = Array.length steps;
    mean_steps = mean steps;
    mean_stretch = mean stretches;
  }

let run_local ?pool cfg (inst : Girg.Instance.t) =
  let rows = ref [ measure ?pool cfg ~inst ~epoch:(G.epoch inst.graph) ] in
  let final =
    let cur = ref inst in
    for _ = 1 to cfg.epochs do
      let ops = plan cfg ~inst:!cur ~epoch:(G.epoch !cur.graph + 1) in
      cur := Girg.Mutate.apply ~seed:cfg.seed !cur ops;
      rows := measure ?pool cfg ~inst:!cur ~epoch:(G.epoch !cur.graph) :: !rows
    done;
    !cur
  in
  (final, List.rev !rows)

let record_json cfg row =
  let open Obs.Export in
  Obj
    [
      ("schema", Str "smallworld.churn.v1");
      ("scenario", Str (scenario_to_string cfg.scenario));
      ("protocol", Str (Greedy_routing.Protocol.name cfg.protocol));
      ("epoch", Int row.epoch);
      ("live", Int row.live);
      ("edges", Int row.edges);
      ("attempted", Int row.attempted);
      ("delivered", Int row.delivered);
      ("mean_steps", Float row.mean_steps);
      ("mean_stretch", Float row.mean_stretch);
    ]

let table cfg rows =
  let t =
    Stats.Table.create
      ~title:
        (Printf.sprintf "Routing under %s churn (%s)"
           (scenario_to_string cfg.scenario)
           (Greedy_routing.Protocol.name cfg.protocol))
      ~columns:[ "epoch"; "live"; "edges"; "attempted"; "delivered"; "mean steps"; "stretch" ]
  in
  List.iter
    (fun r ->
      let f x = if Float.is_nan x then "-" else Printf.sprintf "%.2f" x in
      Stats.Table.add_row t
        [
          string_of_int r.epoch;
          string_of_int r.live;
          string_of_int r.edges;
          string_of_int r.attempted;
          string_of_int r.delivered;
          f r.mean_steps;
          f r.mean_stretch;
        ])
    rows;
  t
