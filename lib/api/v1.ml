(* Version 1 of the routing API: typed requests and replies, the JSON
   wire codec the daemon speaks, the argument-list codec the CLIs parse,
   and the schema dump for client authors.

   A field's JSON key, CLI flag (the key with '_' spelled '-' unless
   given), deprecated aliases, value type, default (or that it is
   required) and doc line all live in its one [fld] definition.  Each op
   is one row of [table], holding a description of its request and of
   its reply: the fields in wire order, a constructor from their values
   and its inverse ([desc]).  Both directions of the JSON codec, both
   directions of the argv codec, the schema dump's flag tables and the
   op inventory are derived from those rows, so each key, flag and
   default is written once and the codecs cannot drift apart.  The
   bytes both wire codecs emit are pinned by
   test/golden/api_v1_wire.txt. *)

module J = Obs.Export

let version = 1

type model =
  | Girg of Girg.Params.t
  | Hrg of Hyperbolic.Hrg.params
  | Kleinberg of Kleinberg.Lattice.params

type pair_pool = Any | Giant

type pairs_spec =
  | Pairs of (int * int) list
  | Drawn of { count : int; pair_seed : int; pool : pair_pool }

type request =
  | Load of { name : string; path : string }
  | Sample of { name : string; model : model; seed : int }
  | Route of {
      instance : string;
      source : int;
      target : int;
      protocol : Greedy_routing.Protocol.t;
      max_steps : int option;
    }
  | Route_batch of {
      instance : string;
      pairs : pairs_spec;
      protocol : Greedy_routing.Protocol.t;
      max_steps : int option;
    }
  | Stats of { instance : string }
  | Gen_shard of {
      params : Girg.Params.t;
      seed : int;
      shards : int;
      shard : int;
      out : string;
    }
  | Merge_shards of { name : string; spills : string list }
  | Snapshot of { instance : string; out : string }
  | Mutate of { instance : string; ops : Girg.Mutate.op list; seed : int }
  | Churn of { instance : string; config : Experiments.Churn.config }
  | Health
  | Server_stats
  | Drain

(* Distributed-trace context: the client names the trace and the span
   id its own record will carry, so the server's smallworld.trace.v1
   record can hang under it (see Obs.Profile) with no clock agreement. *)
type trace_ctx = { trace_id : string; parent_span : int }

type envelope = {
  id : int option;
  deadline_ms : int option;
  trace : trace_ctx option;
  request : request;
}

let envelope ?id ?deadline_ms ?trace request = { id; deadline_ms; trace; request }

type instance_info = { name : string; params : string; vertices : int; edges : int }

type route_reply = {
  source : int;
  target : int;
  status : Greedy_routing.Outcome.status;
  steps : int;
  visited : int;
  shortest : int option;
  text : string;
}

type stats_reply = {
  params : string;
  vertices : int;
  edges : int;
  avg_degree : float;
  max_degree : int;
  components : int;
  giant : int;
}

type spill_info = {
  sp_path : string;
  sp_shard : int;
  sp_shards : int;
  sp_vertices : int;
  sp_edges : int;
}

type snapshot_info = {
  sn_path : string;
  sn_bytes : int;
  sn_vertices : int;
  sn_edges : int;
}

type mutate_reply = {
  mu_name : string;
  mu_epoch : int;
  mu_generation : int;
  mu_live : int;
  mu_vertices : int;
  mu_edges : int;
  mu_applied : int;
}

type churn_reply = {
  ch_name : string;
  ch_scenario : Experiments.Churn.scenario;
  ch_generation : int;
  ch_rows : Experiments.Churn.epoch_row list;
}

type health_reply = {
  draining : bool;
  instances : string list;
  counters : (string * int) list;
}

type stage_latency = {
  stage : string;
  s_count : int;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  s_max : float;
}

type server_stats_reply = {
  uptime_s : float;
  s_draining : bool;
  obs_live : bool;
  s_counters : (string * int) list;
  gauges : (string * float) list;
  stages : stage_latency list;
  prometheus : string;
}

type response =
  | Loaded of instance_info
  | Sampled of instance_info
  | Routed of route_reply
  | Routed_batch of route_reply list
  | Stats_reply of stats_reply
  | Spilled of spill_info
  | Merged of instance_info
  | Snapshotted of snapshot_info
  | Mutated of mutate_reply
  | Churned of churn_reply
  | Health_reply of health_reply
  | Server_stats_reply of server_stats_reply
  | Drain_ack
  | Failed of Error.t

type reply = { reply_id : int option; response : response }

(* ------------------------------------------------------------------ *)
(* Shared string conversions                                           *)

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let err_bad fmt =
  Printf.ksprintf (fun message -> Error { Error.code = Error.Bad_request; message }) fmt

let protocol_to_string = Greedy_routing.Protocol.name

let protocol_of_string s =
  match String.lowercase_ascii s with
  | "greedy" -> Ok Greedy_routing.Protocol.Greedy
  | "phi-dfs" | "dfs" -> Ok Greedy_routing.Protocol.Patch_dfs
  | "history" -> Ok Greedy_routing.Protocol.Patch_history
  | "gravity-pressure" | "gp" -> Ok Greedy_routing.Protocol.Gravity_pressure
  | other ->
      err_bad "unknown protocol %S (greedy | phi-dfs | history | gravity-pressure)" other

let status_to_string = Greedy_routing.Outcome.status_to_string

let status_of_string s =
  List.find_opt
    (fun st -> Greedy_routing.Outcome.status_to_string st = s)
    [
      Greedy_routing.Outcome.Delivered;
      Greedy_routing.Outcome.Dead_end;
      Greedy_routing.Outcome.Exhausted;
      Greedy_routing.Outcome.Cutoff;
    ]

let alpha_of_string s =
  match String.lowercase_ascii s with
  | "inf" | "infinity" -> Ok Girg.Params.Infinite
  | s -> (
      match float_of_string_opt s with
      | Some a -> Ok (Girg.Params.Finite a)
      | None -> err_bad "bad --alpha %S (a float > 1, or 'inf')" s)

let parse_jobs s =
  match int_of_string_opt s with
  | Some j when j >= 0 -> Ok j
  | Some _ | None -> err_bad "--jobs expects a non-negative integer (0 = all cores)"

(* Shortest decimal that parses back to the same double (the JSON
   emitter uses the same trick), so argument lists round-trip floats. *)
let float_arg f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.9g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* ------------------------------------------------------------------ *)
(* Value types                                                         *)

(* How a field's value is spelled in JSON and as a command-line
   argument.  A parser's [None] is a value of the wrong shape, reported
   with [expects].  A value equal to [absent] is left out by both
   printers and is what a missing field reads as. *)
type 'a ty = {
  tname : string;  (* the schema's type column; a "flag" takes no argument *)
  expects : string;
  absent : 'a option;
  to_json : 'a -> J.json;
  of_json : J.json -> 'a option;
  to_arg : 'a -> string;
  of_arg : string -> 'a option;
}

let scalar tname expects to_json of_json to_arg of_arg =
  { tname; expects; absent = None; to_json; of_json; to_arg; of_arg }

let jint = function J.Int i -> Some i | _ -> None

let jfloat = function
  | J.Float f -> Some f
  | J.Int i -> Some (float_of_int i)
  | _ -> None

let jstr = function J.Str s -> Some s | _ -> None
let jbool = function J.Bool b -> Some b | _ -> None

let int_t = scalar "int" "an integer" (fun i -> J.Int i) jint string_of_int int_of_string_opt

let float_t = scalar "float" "a number" (fun f -> J.Float f) jfloat float_arg float_of_string_opt

let string_t = scalar "string" "a string" (fun s -> J.Str s) jstr Fun.id Option.some
let bool_t = scalar "bool" "a boolean" (fun b -> J.Bool b) jbool string_of_bool bool_of_string_opt

(* A string-valued enumeration. *)
let enum tname expects to_s of_s =
  scalar tname expects (fun v -> J.Str (to_s v)) (fun j -> Option.bind (jstr j) of_s) to_s of_s

let protocol_t =
  enum "protocol" "one of greedy | phi-dfs | history | gravity-pressure" protocol_to_string
    (fun s -> Result.to_option (protocol_of_string s))

let pool_t =
  enum "pool" "one of giant | any"
    (function Any -> "any" | Giant -> "giant")
    (function "any" -> Some Any | "giant" -> Some Giant | _ -> None)

let norm_t =
  enum "norm" "one of linf | l2 | l1" Girg.Params.norm_to_string Girg.Params.norm_of_string

let scenario_t =
  enum "scenario" "one of uniform | adversarial | milgram"
    Experiments.Churn.scenario_to_string (fun s ->
      Result.to_option (Experiments.Churn.scenario_of_string s))

let mutation_t =
  enum "mutation" "mutations (leave:V | rejoin:V | drop:U:V | resample:V)"
    Girg.Mutate.op_to_string (fun s -> Result.to_option (Girg.Mutate.op_of_string s))

let status_t = enum "status" "a route status" status_to_string status_of_string

(* A GIRG's decay: "inf" or a number, on both codecs. *)
let alpha_t =
  scalar "alpha" "a float > 1, or 'inf'"
    (function Girg.Params.Infinite -> J.Str "inf" | Finite a -> J.Float a)
    (function
      | J.Str s -> Result.to_option (alpha_of_string s)
      | j -> Option.map (fun a -> Girg.Params.Finite a) (jfloat j))
    (function Girg.Params.Infinite -> "inf" | Finite a -> float_arg a)
    (fun s -> Result.to_option (alpha_of_string s))

(* An optional value: [None] is left out of both codecs. *)
let opt t =
  {
    tname = t.tname;
    expects = t.expects;
    absent = Some None;
    to_json = (fun v -> Option.fold ~none:J.Null ~some:t.to_json v);
    of_json = (fun j -> Option.map Option.some (t.of_json j));
    to_arg = (fun v -> Option.fold ~none:"" ~some:t.to_arg v);
    of_arg = (fun s -> Option.map Option.some (t.of_arg s));
  }

(* Present but possibly null (a route's BFS distance). *)
let nullable t =
  {
    (opt t) with
    absent = None;
    of_json = (function J.Null -> Some None | j -> Option.map Option.some (t.of_json j));
  }

(* Churn means over zero delivered routes are NaN, which JSON writes as
   null. *)
let nan_t = { float_t with of_json = (function J.Null -> Some Float.nan | j -> jfloat j) }

let all f xs =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | x :: rest -> ( match f x with Some y -> go (y :: acc) rest | None -> None)
  in
  go [] xs

(* A JSON array; a comma-separated list on the command line. *)
let list_t ?(nonempty = false) tname expects elt =
  let check l = if nonempty && l = [] then None else Some l in
  scalar tname expects
    (fun l -> J.Arr (List.map elt.to_json l))
    (function J.Arr items -> Option.bind (all elt.of_json items) check | _ -> None)
    (fun l -> String.concat "," (List.map elt.to_arg l))
    (fun s ->
      Option.bind (all elt.of_arg (List.filter (( <> ) "") (String.split_on_char ',' s))) check)

let pair_t =
  let both s t =
    match (s, t) with Some s, Some t -> Some (s, t) | _ -> None
  in
  scalar "pair" "a source:target pair"
    (fun (s, t) -> J.Arr [ J.Int s; J.Int t ])
    (function J.Arr [ s; t ] -> both (jint s) (jint t) | _ -> None)
    (fun (s, t) -> Printf.sprintf "%d:%d" s t)
    (fun p ->
      match String.split_on_char ':' p with
      | [ s; t ] -> both (int_of_string_opt s) (int_of_string_opt t)
      | _ -> None)

(* A JSON object read as a string-keyed map (replies only: never on the
   command line). *)
let map_t elt =
  scalar "map"
    ("an object of " ^ elt.tname ^ " values")
    (fun kvs -> J.Obj (List.map (fun (k, v) -> (k, elt.to_json v)) kvs))
    (function
      | J.Obj kvs -> all (fun (k, v) -> Option.map (fun x -> (k, x)) (elt.of_json v)) kvs
      | _ -> None)
    (fun _ -> "") (fun _ -> None)

(* ------------------------------------------------------------------ *)
(* Fields, and reading and writing them                                *)

type 'a field = {
  key : string;  (* JSON key *)
  flag : string;  (* canonical CLI flag; "" for sample's leading model token *)
  als : string list;  (* deprecation shims: parsed, never printed *)
  ty : 'a ty;
  dflt : 'a option;  (* [None]: required *)
  doc : string;
}

let fld ?flag ?(als = []) ?dflt ?(doc = "") ty key =
  let flag =
    match flag with
    | Some f -> f
    | None -> "--" ^ String.map (function '_' -> '-' | c -> c) key
  in
  { key; flag; als; ty; dflt = (if dflt = None then ty.absent else dflt); doc }

type any_field = F : 'a field -> any_field
type binding = B : 'a field * 'a -> binding

let ( @= ) f v = B (f, v)

(* Where a decoder reads its fields: a JSON object, or the scanned
   command line (canonical flag -> raw value).  The string names the
   object or op in error messages. *)
type src = Json of string * J.json | Argv of string * (string, string) Hashtbl.t

let label = function Json (what, _) | Argv (what, _) -> what
let spell src f = match src with Json _ -> Printf.sprintf "%S" f.key | Argv _ -> f.flag

let has src f =
  match src with
  | Json (_, j) -> J.member f.key j <> None
  | Argv (_, seen) -> Hashtbl.mem seen f.flag

let missing src f =
  match src with
  | Json (what, _) -> err_bad "%s is missing field %S" what f.key
  | Argv (op, _) -> err_bad "%s requires %s" op f.flag

let default src f = match f.dflt with Some d -> Ok d | None -> missing src f

let get src f =
  match src with
  | Json (what, j) -> (
      match J.member f.key j with
      | None -> default src f
      | Some v -> (
          match f.ty.of_json v with
          | Some x -> Ok x
          | None -> err_bad "field %S of %s must be %s" f.key what f.ty.expects))
  | Argv (op, seen) -> (
      match Hashtbl.find_opt seen f.flag with
      | None -> default src f
      | Some v -> (
          match f.ty.of_arg v with
          | Some x -> Ok x
          | None -> err_bad "flag %s of %s expects %s, got %S" f.flag op f.ty.expects v))

(* An optional field that this op requires after all. *)
let need src f =
  let* v = get src f in
  match v with Some x -> Ok x | None -> missing src f

(* Absent values are constants ([None]), so physical equality finds them. *)
let omitted f v = match f.ty.absent with Some a -> v == a | None -> false

let rec json_fields = function
  | [] -> []
  | B (f, v) :: bs when omitted f v -> json_fields bs
  | B (f, v) :: bs -> (f.key, f.ty.to_json v) :: json_fields bs

(* The model token prints first and bare; a switch prints bare when its
   value is off its default. *)
let argv_of bs =
  let tokens (B (f, v)) =
    if omitted f v then []
    else if f.flag = "" then [ f.ty.to_arg v ]
    else if f.ty.tname = "flag" then if Some v = f.dflt then [] else [ f.flag ]
    else [ f.flag; f.ty.to_arg v ]
  in
  let bare, flagged = List.partition (fun (B (f, _)) -> f.flag = "") bs in
  List.concat_map tokens (bare @ flagged)

(* The fields of a record, or of one constructor of a variant, in wire
   order, and the values that fill them: [Fields.[ f1; f2 ]] and
   [Values.[ v1; v2 ]] share the index [a1 * (a2 * unit)]. *)
module Fields = struct
  type _ t = [] : unit t | ( :: ) : 'a field * 'b t -> ('a * 'b) t
end

module Values = struct
  type _ t = [] : unit t | ( :: ) : 'a * 'b t -> ('a * 'b) t
end

let rec flags_of : type t. t Fields.t -> any_field list = function
  | Fields.[] -> []
  | Fields.(f :: fs) -> F f :: flags_of fs

let rec read_fields : type t. t Fields.t -> src -> (t Values.t, Error.t) result =
 fun fields src ->
  match fields with
  | Fields.[] -> Ok Values.[]
  | Fields.(f :: fs) ->
      let* x = get src f in
      let* xs = read_fields fs src in
      Ok Values.(x :: xs)

let rec bind_fields : type t. t Fields.t -> t Values.t -> binding list =
 fun fields values ->
  match (fields, values) with
  | Fields.[], Values.[] -> []
  | Fields.(f :: fs), Values.(x :: xs) -> (f @= x) :: bind_fields fs xs

(* Everything the codecs need of a value's type: the flags it takes, a
   value's bindings in wire order ([None]: a value of another
   constructor), and how to read one back. *)
type 'v codec = {
  flags : any_field list;
  enc : 'v -> binding list option;
  dec : src -> ('v, Error.t) result;
}

(* A value described once: its [fields], [make] from their values, and
   [split] back into them.  Both directions of both codecs follow. *)
let desc fields make split =
  {
    flags = flags_of fields;
    enc = (fun v -> match split v with Some vs -> Some (bind_fields fields vs) | None -> None);
    dec = (fun src -> Result.map make (read_fields fields src));
  }

let record fields make split = desc fields make (fun v -> Some (split v))
let bindings c v = Option.value (c.enc v) ~default:[]

(* A variant constructor carrying a described record. *)
let answers c inj proj =
  {
    flags = c.flags;
    enc = (fun v -> Option.bind (proj v) c.enc);
    dec = (fun src -> Result.map inj (c.dec src));
  }

let nullary v =
  { flags = []; enc = (fun x -> if x = v then Some [] else None); dec = (fun _ -> Ok v) }

(* A nested JSON object (never on the command line). *)
let obj_t expects c =
  scalar "object" expects
    (fun r -> J.Obj (json_fields (bindings c r)))
    (fun j -> Result.to_option (c.dec (Json (expects, j))))
    (fun _ -> "") (fun _ -> None)

(* ------------------------------------------------------------------ *)
(* Request fields                                                      *)

let id_f = fld (opt int_t) "id" ~doc:"request id, echoed in the reply"

let deadline_f =
  fld (opt int_t) "deadline_ms"
    ~doc:"deadline in milliseconds from request receipt; expiry returns the 'deadline' error"

let trace_id_f =
  fld (opt string_t) "id" ~flag:"--trace-id"
    ~doc:
      "distributed-trace id: the server's smallworld.trace.v1 record joins the trace of \
       this id"

let trace_span_f =
  fld int_t "span" ~flag:"--trace-parent" ~dflt:0
    ~doc:"span id (within --trace-id) the server's spans hang under"

let output_f =
  fld (opt string_t) "output" ~als:[ "-o" ]
    ~doc:"CLI only: file the sampled instance is written to"

let obs_out_f = fld (opt string_t) "obs_out" ~doc:"CLI only: write a JSONL run manifest"

let events_out_f =
  fld (opt string_t) "events_out"
    ~doc:"CLI only (route): write flight-recorder events (smallworld.events.v1)"

let trace_out_f =
  fld (opt string_t) "trace_out"
    ~doc:
      "CLI only (route, route-batch): write this run's span tree as a smallworld.trace.v1 \
       record"

let jobs_f =
  let of_arg s = Result.to_option (parse_jobs s) in
  fld (opt { int_t with expects = "a non-negative integer"; of_arg }) "jobs" ~als:[ "-j" ]
    ~doc:"worker domains (0 = all cores); overrides SMALLWORLD_JOBS"

let n_f = fld int_t "n" ~als:[ "-n" ] ~dflt:10_000 ~doc:"expected vertex count"
let dim_f = fld int_t "dim" ~dflt:2 ~doc:"torus dimension"
let beta_f = fld float_t "beta" ~dflt:2.5 ~doc:"power-law exponent in (2,3)"
let w_min_f = fld float_t "w_min" ~dflt:1.0 ~doc:"minimum weight"

let alpha_f =
  fld alpha_t "alpha" ~dflt:(Girg.Params.Finite 2.0) ~doc:"decay parameter (> 1) or 'inf'"

let c_f = fld float_t "c" ~als:[ "-c" ] ~dflt:0.25 ~doc:"edge probability constant"

let norm_f = fld norm_t "norm" ~dflt:Geometry.Torus.Linf ~doc:"torus norm: linf | l2 | l1"

(* [--fixed-count] is a bare switch that clears JSON's "poisson". *)
let poisson_f =
  fld { bool_t with tname = "flag"; of_arg = (fun _ -> Some false) } "poisson"
    ~flag:"--fixed-count" ~dflt:true ~doc:"exactly n vertices instead of Poisson(n)"

let shards_f =
  fld int_t "shards" ~dflt:1
    ~doc:"split edge generation into this many deterministic shards (with --spill-out)"

let shard_f = fld int_t "shard" ~dflt:0 ~doc:"which shard to generate, in [0, --shards)"

let spill_out_f =
  fld (opt string_t) "out" ~flag:"--spill-out"
    ~doc:"write this shard's edges as a binary spill file instead of a full instance"

let hrg_n_f = fld int_t "n" ~als:[ "-n" ] ~dflt:10_000 ~doc:"vertex count"
let alpha_h_f = fld float_t "alpha_h" ~dflt:0.75 ~doc:"radial dispersion in (1/2, 1)"
let radius_c_f = fld float_t "radius_c" ~dflt:0.0 ~doc:"constant C in R = 2 ln n + C"
let temperature_f = fld float_t "temperature" ~dflt:0.0 ~doc:"T in [0, 1)"
let side_f = fld int_t "side" ~doc:"lattice side (side^2 vertices)"
let long_range_f = fld int_t "long_range" ~dflt:1 ~doc:"long-range contacts per vertex"

let exponent_f = fld float_t "exponent" ~dflt:2.0 ~doc:"decay exponent of the contact distribution"

let model_f = fld string_t "model" ~flag:""

let sample_name_f = fld (opt string_t) "name" ~doc:"registry name (CLI default: the --output path)"

let seed_f = fld int_t "seed" ~dflt:42 ~doc:"random seed"

let instance_f =
  fld string_t "instance"
    ~doc:"instance name (daemon) or file (CLI); also the positional argument"

let source_f = fld int_t "source" ~als:[ "-s" ] ~doc:"source vertex"
let target_f = fld int_t "target" ~als:[ "-t" ] ~doc:"target vertex"

let protocol_f =
  fld protocol_t "protocol" ~dflt:Greedy_routing.Protocol.Greedy
    ~doc:"greedy | phi-dfs | history | gravity-pressure"

let max_steps_f = fld (opt int_t) "max_steps" ~doc:"step budget (default: unlimited)"

let pairs_f =
  fld
    (opt (list_t "pairs" "a list of source:target pairs" pair_t))
    "pairs" ~doc:"explicit pairs, e.g. 1:2,3:4 (excludes --count)"

let count_f = fld (opt int_t) "count" ~doc:"number of sampled pairs (excludes --pairs)"
let pair_seed_f = fld int_t "pair_seed" ~dflt:0 ~doc:"seed of the pair-sampling substream"
let pool_f = fld pool_t "pair_pool" ~flag:"--pool" ~dflt:Giant ~doc:"pair pool: giant | any"
let load_name_f = fld string_t "name" ~doc:"registry name for the loaded instance"

let path_f =
  fld string_t "path" ~doc:"instance file (smallworld-girg format); also the positional argument"

let merge_name_f = fld string_t "name" ~doc:"registry name for the merged instance"

let spills_f =
  fld
    (list_t ~nonempty:true "paths" "a non-empty list of spill paths" string_t)
    "spills"
    ~doc:"comma-separated spill files, one per shard index; also the positional argument"

let out_f = fld string_t "out" ~doc:"where the v2 binary snapshot is written"

let ops_f =
  fld
    (list_t ~nonempty:true "mutations" "a non-empty list of mutations" mutation_t)
    "ops" ~doc:"comma-separated mutations: leave:V | rejoin:V | drop:U:V | resample:V"

let mutate_seed_f =
  fld int_t "seed" ~dflt:42
    ~doc:"seed of the resample substreams (replay-deterministic per epoch)"

let scenario_f =
  fld scenario_t "scenario" ~dflt:Experiments.Churn.Uniform
    ~doc:"uniform | adversarial | milgram"

let epochs_f = fld int_t "epochs" ~dflt:3 ~doc:"mutation rounds after the baseline"

let events_f = fld int_t "events" ~dflt:16 ~doc:"structural events per epoch (ignored by milgram)"

let quit_f =
  fld float_t "quit" ~dflt:0.0
    ~doc:"per-hop quit probability (Milgram attrition), 0 disables"

let churn_seed_f =
  fld int_t "seed" ~dflt:42 ~doc:"seed of churn planning, resampling and quit coins"

let churn_count_f = fld int_t "count" ~dflt:200 ~doc:"measurement pairs per epoch"

(* ------------------------------------------------------------------ *)
(* Record descriptions                                                 *)

type exec_opts = {
  output : string option;
  obs_out : string option;
  events_out : string option;
  trace_out : string option;
  jobs : int option;
}

let no_exec = { output = None; obs_out = None; events_out = None; trace_out = None; jobs = None }

let exec_c =
  record
    Fields.[ output_f; obs_out_f; events_out_f; trace_out_f; jobs_f ]
    (fun Values.[ output; obs_out; events_out; trace_out; jobs ] ->
      { output; obs_out; events_out; trace_out; jobs })
    (fun x -> Values.[ x.output; x.obs_out; x.events_out; x.trace_out; x.jobs ])

(* JSON nests the trace context in a "trace" object; the command line
   spells the same two fields as flat flags.  The id is optional as a
   flag but required once a trace is given. *)
let trace_c =
  {
    flags = [ F trace_id_f; F trace_span_f ];
    enc =
      (fun t -> Some [ trace_id_f @= Some t.trace_id; trace_span_f @= t.parent_span ]);
    dec =
      (fun src ->
        let* trace_id = need src trace_id_f in
        let* parent_span = get src trace_span_f in
        Ok { trace_id; parent_span });
  }

(* Sample's model tag: the "model" key in JSON, the token after
   [sample] on the command line, which also selects the flags accepted
   after it.  Sharded generation rides under [sample girg --spill-out]. *)
type model_row = { m_tag : string; m_flags : any_field list; m_codec : model codec }

let model ?(extra = []) m_tag m_codec = { m_tag; m_flags = m_codec.flags @ extra; m_codec }

let models =
  [
    model "girg"
      ~extra:[ F shards_f; F shard_f; F spill_out_f ]
      (desc
         Fields.[ n_f; dim_f; beta_f; w_min_f; alpha_f; c_f; norm_f; poisson_f ]
         (fun Values.[ n; dim; beta; w_min; alpha; c; norm; poisson_count ] ->
           Girg (Girg.Params.validate_exn { n; dim; beta; w_min; alpha; c; norm; poisson_count }))
         (function
           | Girg p ->
               Some
                 Values.[ p.n; p.dim; p.beta; p.w_min; p.alpha; p.c; p.norm; p.poisson_count ]
           | _ -> None));
    model "hrg"
      (desc
         Fields.[ hrg_n_f; alpha_h_f; radius_c_f; temperature_f ]
         (fun Values.[ n; alpha_h; radius_c; temperature ] ->
           Hrg (Hyperbolic.Hrg.make ~alpha_h ~radius_c ~temperature ~n ()))
         (function
           | Hrg p -> Some Values.[ p.n; p.alpha_h; p.radius_c; p.temperature ]
           | _ -> None));
    model "kleinberg"
      (desc
         Fields.[ side_f; long_range_f; exponent_f ]
         (fun Values.[ side; long_range; exponent ] ->
           Kleinberg (Kleinberg.Lattice.make ~long_range ~exponent ~side ()))
         (function
           | Kleinberg p -> Some Values.[ p.side; p.long_range; p.exponent ] | _ -> None));
  ]

let model_tags = String.concat " | " (List.map (fun m -> m.m_tag) models)

let model_bindings model =
  List.concat_map
    (fun m ->
      match m.m_codec.enc model with Some bs -> (model_f @= m.m_tag) :: bs | None -> [])
    models

(* Each model's own constructor validates its parameters. *)
let read_model src =
  let* tag = get src model_f in
  match List.find_opt (fun m -> m.m_tag = tag) models with
  | None -> err_bad "unknown model %S (%s)" tag model_tags
  | Some m -> (
      match m.m_codec.dec src with
      | r -> r
      | exception Invalid_argument msg -> err_bad "invalid %s parameters: %s" tag msg)

let read_gen_shard src =
  let* model = read_model src in
  let* seed = get src seed_f in
  let* shards = get src shards_f in
  let* shard = get src shard_f in
  let* out = need src spill_out_f in
  match model with
  | Hrg _ | Kleinberg _ -> err_bad "gen_shard supports the girg model only"
  | Girg _ when shards < 1 -> err_bad "%s: shards must be >= 1, got %d" (label src) shards
  | Girg _ when shard < 0 || shard >= shards ->
      err_bad "%s: shard must be in [0, %d), got %d" (label src) shards shard
  | Girg params -> Ok (Gen_shard { params; seed; shards; shard; out })

let read_sample src =
  match src with
  | Argv _ when has src spill_out_f -> read_gen_shard src
  | Argv _ when has src shards_f || has src shard_f ->
      err_bad "sharded generation writes a spill file: add --spill-out FILE"
  | _ ->
      let* name =
        match src with
        | Argv (_, seen) when Hashtbl.mem seen output_f.flag && not (has src sample_name_f)
          ->
            (* the CLI names an instance after the file it writes *)
            Ok (Hashtbl.find seen output_f.flag)
        | _ -> need src sample_name_f
      in
      let* model = read_model src in
      let* seed = get src seed_f in
      Ok (Sample { name; model; seed })

(* route_batch's pairs: an explicit list, or a count to draw, never
   both. *)
let pairs_c =
  {
    flags = [ F pairs_f; F count_f; F pair_seed_f; F pool_f ];
    enc =
      (function
      | Pairs ps -> Some [ pairs_f @= Some ps ]
      | Drawn { count; pair_seed; pool } ->
          Some [ count_f @= Some count; pair_seed_f @= pair_seed; pool_f @= pool ]);
    dec =
      (fun src ->
        let* pairs = get src pairs_f in
        let* count = get src count_f in
        match (pairs, count) with
        | Some ps, None -> Ok (Pairs ps)
        | None, Some count ->
            let* pair_seed = get src pair_seed_f in
            let* pool = get src pool_f in
            Ok (Drawn { count; pair_seed; pool })
        | Some _, Some _ | None, None ->
            err_bad "%s takes %s or %s%s" (label src) (spell src pairs_f) (spell src count_f)
              (if pairs = None then "" else ", not both"));
  }

(* Replies are JSON only; their fields are required unless a default is
   given. *)

let o_ok = fld bool_t "ok"
let o_op = fld string_t "op"
let o_name = fld string_t "name"
let o_params = fld string_t "params"
let o_vertices = fld int_t "vertices"
let o_edges = fld int_t "edges"
let o_path = fld string_t "path"
let o_generation = fld int_t "generation"
let o_draining = fld bool_t "draining"
let o_counters = fld (map_t int_t) "counters"

let instance_info_c =
  record
    Fields.[ o_name; o_params; o_vertices; o_edges ]
    (fun Values.[ name; params; vertices; edges ] ->
      ({ name; params; vertices; edges } : instance_info))
    (fun (i : instance_info) -> Values.[ i.name; i.params; i.vertices; i.edges ])

let route_c =
  record
    Fields.[ source_f; target_f; fld status_t "status"; fld int_t "steps";
             fld int_t "visited"; fld (nullable int_t) "shortest" ~dflt:None;
             fld string_t "text" ]
    (fun Values.[ source; target; status; steps; visited; shortest; text ] ->
      { source; target; status; steps; visited; shortest; text })
    (fun r ->
      Values.[ r.source; r.target; r.status; r.steps; r.visited; r.shortest; r.text ])

(* Means over zero delivered routes are NaN: null on the wire. *)
let churn_row_c =
  record
    Fields.[ fld int_t "epoch"; fld int_t "live"; o_edges; fld int_t "attempted";
             fld int_t "delivered"; fld nan_t "mean_steps" ~dflt:Float.nan;
             fld nan_t "mean_stretch" ~dflt:Float.nan ]
    (fun Values.[ epoch; live; edges; attempted; delivered; mean_steps; mean_stretch ] ->
      ({ epoch; live; edges; attempted; delivered; mean_steps; mean_stretch }
        : Experiments.Churn.epoch_row))
    (fun (r : Experiments.Churn.epoch_row) ->
      Values.[ r.epoch; r.live; r.edges; r.attempted; r.delivered; r.mean_steps;
               r.mean_stretch ])

let stage_c =
  record
    Fields.[ fld string_t "stage"; fld int_t "count"; fld float_t "p50"; fld float_t "p90";
             fld float_t "p99"; fld float_t "p999"; fld float_t "max" ]
    (fun Values.[ stage; s_count; p50; p90; p99; p999; s_max ] ->
      { stage; s_count; p50; p90; p99; p999; s_max })
    (fun s -> Values.[ s.stage; s.s_count; s.p50; s.p90; s.p99; s.p999; s.s_max ])

let objects what c = list_t what ("a list of " ^ what) (obj_t what c)

(* ------------------------------------------------------------------ *)
(* The op table                                                        *)

(* One row per operation: every accepted spelling, and the request and
   reply descriptions that all codec directions, the schema dump, the
   daemon's op inventory and the did-you-mean suggestions are read off.
   A row that is not [r_public] is a wire op only (gen_shard rides
   under [sample ... --spill-out] on the command line). *)
type row = {
  r_wire : string;  (* canonical wire spelling (spans, logs, metrics) *)
  r_cli : string;  (* canonical CLI token *)
  r_names : string list;  (* every accepted spelling, wire and CLI *)
  r_public : bool;
  r_doc : string;
  r_models : model_row list;
  r_positional : any_field option;  (* what a bare argument stands for *)
  r_request : request codec;
  r_reply : response codec;
}

let row ?cli ?(aliases = []) ?(public = true) ?(models = []) ?positional ~doc wire r_request
    r_reply =
  {
    r_wire = wire;
    r_cli = Option.value cli ~default:wire;
    r_names = wire :: aliases;
    r_public = public;
    r_doc = doc;
    r_models = models;
    r_positional = positional;
    r_request;
    r_reply;
  }

let table =
  [
    row "load" ~doc:"load a saved instance into the registry" ~positional:(F path_f)
      (desc
         Fields.[ load_name_f; path_f ]
         (fun Values.[ name; path ] -> Load { name; path })
         (function Load { name; path } -> Some Values.[ name; path ] | _ -> None))
      (answers instance_info_c (fun i -> Loaded i) (function Loaded i -> Some i | _ -> None));
    row "sample" ~aliases:[ "gen" ] ~models
      ~doc:"sample an instance (sample <girg|hrg|kleinberg> ...) and register it"
      {
        flags = [ F sample_name_f; F seed_f ];
        enc =
          (function
          | Sample { name; model; seed } ->
              Some
                (((sample_name_f @= Some name) :: model_bindings model)
                @ [ seed_f @= seed ])
          | _ -> None);
        dec = read_sample;
      }
      (answers instance_info_c (fun i -> Sampled i) (function Sampled i -> Some i | _ -> None));
    row "route" ~doc:"route one message and return the walk summary" ~positional:(F instance_f)
      (desc
         Fields.[ instance_f; source_f; target_f; protocol_f; max_steps_f ]
         (fun Values.[ instance; source; target; protocol; max_steps ] ->
           Route { instance; source; target; protocol; max_steps })
         (function
           | Route { instance; source; target; protocol; max_steps } ->
               Some Values.[ instance; source; target; protocol; max_steps ]
           | _ -> None))
      (answers route_c (fun r -> Routed r) (function Routed r -> Some r | _ -> None));
    row "route_batch" ~cli:"route-batch" ~aliases:[ "route-batch" ]
      ~doc:"route a batch of pairs (explicit or sampled) in one request"
      ~positional:(F instance_f)
      {
        flags = (F instance_f :: pairs_c.flags) @ [ F protocol_f; F max_steps_f ];
        enc =
          (function
          | Route_batch { instance; pairs; protocol; max_steps } ->
              Some
                (((instance_f @= instance) :: bindings pairs_c pairs)
                @ [ protocol_f @= protocol; max_steps_f @= max_steps ])
          | _ -> None);
        dec =
          (fun src ->
            let* instance = get src instance_f in
            let* pairs = pairs_c.dec src in
            let* protocol = get src protocol_f in
            let* max_steps = get src max_steps_f in
            Ok (Route_batch { instance; pairs; protocol; max_steps }));
      }
      (desc
         Fields.[ fld (objects "routes" route_c) "routes" ]
         (fun Values.[ rs ] -> Routed_batch rs)
         (function Routed_batch rs -> Some Values.[ rs ] | _ -> None));
    row "stats" ~doc:"structural statistics of an instance" ~positional:(F instance_f)
      (desc
         Fields.[ instance_f ]
         (fun Values.[ instance ] -> Stats { instance })
         (function Stats { instance } -> Some Values.[ instance ] | _ -> None))
      (desc
         Fields.[ o_params; o_vertices; o_edges; fld float_t "avg_degree";
                  fld int_t "max_degree"; fld int_t "components"; fld int_t "giant" ]
         (fun Values.[ params; vertices; edges; avg_degree; max_degree; components; giant ]
         -> Stats_reply { params; vertices; edges; avg_degree; max_degree; components; giant })
         (function
           | Stats_reply s ->
               Some Values.[ s.params; s.vertices; s.edges; s.avg_degree; s.max_degree;
                             s.components; s.giant ]
           | _ -> None));
    row "gen_shard" ~cli:"sample" ~aliases:[ "gen-shard" ] ~public:false
      ~doc:"sample one shard of a GIRG's deterministic edge enumeration and spill it"
      {
        flags = [];
        enc =
          (function
          | Gen_shard { params; seed; shards; shard; out } ->
              Some
                (model_bindings (Girg params)
                @ [
                    seed_f @= seed;
                    shards_f @= shards;
                    shard_f @= shard;
                    spill_out_f @= Some out;
                  ])
          | _ -> None);
        dec = read_gen_shard;
      }
      (desc
         Fields.[ o_path; fld int_t "shard"; fld int_t "shards"; o_vertices; o_edges ]
         (fun Values.[ sp_path; sp_shard; sp_shards; sp_vertices; sp_edges ] ->
           Spilled { sp_path; sp_shard; sp_shards; sp_vertices; sp_edges })
         (function
           | Spilled s ->
               Some Values.[ s.sp_path; s.sp_shard; s.sp_shards; s.sp_vertices; s.sp_edges ]
           | _ -> None));
    row "merge_shards" ~cli:"merge-shards" ~aliases:[ "merge-shards" ]
      ~doc:"merge per-shard spill files into one instance and register it"
      ~positional:(F spills_f)
      (desc
         Fields.[ merge_name_f; spills_f ]
         (fun Values.[ name; spills ] -> Merge_shards { name; spills })
         (function
           | Merge_shards { name; spills } -> Some Values.[ name; spills ] | _ -> None))
      (answers instance_info_c (fun i -> Merged i) (function Merged i -> Some i | _ -> None));
    row "snapshot" ~doc:"re-encode a saved instance as a v2 binary (mmap-ready) snapshot"
      ~positional:(F instance_f)
      (desc
         Fields.[ instance_f; out_f ]
         (fun Values.[ instance; out ] -> Snapshot { instance; out })
         (function
           | Snapshot { instance; out } -> Some Values.[ instance; out ] | _ -> None))
      (desc
         Fields.[ o_path; fld int_t "bytes"; o_vertices; o_edges ]
         (fun Values.[ sn_path; sn_bytes; sn_vertices; sn_edges ] ->
           Snapshotted { sn_path; sn_bytes; sn_vertices; sn_edges })
         (function
           | Snapshotted s -> Some Values.[ s.sn_path; s.sn_bytes; s.sn_vertices; s.sn_edges ]
           | _ -> None));
    row "mutate"
      ~doc:"apply a live-mutation script (leave/rejoin/drop/resample) as one new graph epoch"
      ~positional:(F instance_f)
      (desc
         Fields.[ instance_f; ops_f; mutate_seed_f ]
         (fun Values.[ instance; ops; seed ] -> Mutate { instance; ops; seed })
         (function
           | Mutate { instance; ops; seed } -> Some Values.[ instance; ops; seed ]
           | _ -> None))
      (desc
         Fields.[ o_name; fld int_t "epoch"; o_generation; fld int_t "live"; o_vertices;
                  o_edges; fld int_t "applied" ]
         (fun Values.[ mu_name; mu_epoch; mu_generation; mu_live; mu_vertices; mu_edges;
                       mu_applied ] ->
           Mutated
             { mu_name; mu_epoch; mu_generation; mu_live; mu_vertices; mu_edges; mu_applied })
         (function
           | Mutated m ->
               Some Values.[ m.mu_name; m.mu_epoch; m.mu_generation; m.mu_live;
                             m.mu_vertices; m.mu_edges; m.mu_applied ]
           | _ -> None));
    row "churn"
      ~doc:"run a churn scenario (mutate, re-route, repeat) and report per-epoch delivery"
      ~positional:(F instance_f)
      (desc
         Fields.[ instance_f; scenario_f; epochs_f; events_f; quit_f; churn_seed_f;
                  churn_count_f; pair_seed_f; protocol_f; max_steps_f ]
         (fun Values.[ instance; scenario; epochs; events; quit; seed; count; pair_seed;
                       protocol; max_steps ] ->
           let config =
             { Experiments.Churn.scenario; epochs; events; quit; seed; count; pair_seed;
               protocol; max_steps }
           in
           Churn { instance; config })
         (function
           | Churn { instance; config = c } ->
               Some Values.[ instance; c.scenario; c.epochs; c.events; c.quit; c.seed;
                             c.count; c.pair_seed; c.protocol; c.max_steps ]
           | _ -> None))
      (desc
         Fields.[ o_name; fld scenario_t "scenario"; o_generation;
                  fld (objects "epochs" churn_row_c) "epochs" ]
         (fun Values.[ ch_name; ch_scenario; ch_generation; ch_rows ] ->
           Churned { ch_name; ch_scenario; ch_generation; ch_rows })
         (function
           | Churned c ->
               Some Values.[ c.ch_name; c.ch_scenario; c.ch_generation; c.ch_rows ]
           | _ -> None));
    row "health" ~doc:"server liveness, counters, registry contents" (nullary Health)
      (desc
         Fields.[ o_draining; fld (list_t "names" "a list of names" string_t) "instances";
                  o_counters ]
         (fun Values.[ draining; instances; counters ] ->
           Health_reply { draining; instances; counters })
         (function
           | Health_reply h -> Some Values.[ h.draining; h.instances; h.counters ]
           | _ -> None));
    row "stats-server" ~aliases:[ "server-stats" ]
      ~doc:
        "live telemetry snapshot: counters, gauges, per-stage latency quantiles, Prometheus \
         text dump"
      (nullary Server_stats)
      (desc
         Fields.[ fld float_t "uptime_s"; o_draining; fld bool_t "obs_live"; o_counters;
                  fld (map_t float_t) "gauges"; fld (objects "stages" stage_c) "stages";
                  fld string_t "prometheus" ]
         (fun Values.[ uptime_s; s_draining; obs_live; s_counters; gauges; stages;
                       prometheus ] ->
           Server_stats_reply
             { uptime_s; s_draining; obs_live; s_counters; gauges; stages; prometheus })
         (function
           | Server_stats_reply s ->
               Some Values.[ s.uptime_s; s.s_draining; s.obs_live; s.s_counters; s.gauges;
                             s.stages; s.prometheus ]
           | _ -> None));
    row "drain" ~doc:"stop accepting work, finish in-flight requests, exit" (nullary Drain)
      (desc
         Fields.[ o_draining ]
         (fun Values.[ _ ] -> Drain_ack)
         (function Drain_ack -> Some Values.[ true ] | _ -> None));
  ]

(* The row whose codec covers [v], with [v]'s bindings. *)
let find_row codec v =
  let rec go = function
    | [] -> invalid_arg "Api.V1: value without an op row"
    | r :: rest -> ( match (codec r).enc v with Some bs -> (r, bs) | None -> go rest)
  in
  go table

(* The daemon asks each request's op and instance several times; one slot
   per domain makes that one walk of the table (and its allocation). *)
let last_request = Domain.DLS.new_key (fun () -> None)

let request_row r =
  match Domain.DLS.get last_request with
  | Some (r', found) when r' == r -> found
  | _ ->
      let found = find_row (fun row -> row.r_request) r in
      Domain.DLS.set last_request (Some (r, found));
      found

let op_names = List.map (fun r -> r.r_wire) table
let op_of_request r = (fst (request_row r)).r_wire

(* The registry name a request touches is its "instance" or "name". *)
let instance_of_request r =
  List.find_map
    (fun (B (f, v)) ->
      match (f.key, f.ty.to_json v) with
      | ("instance" | "name"), J.Str s -> Some s
      | _ -> None)
    (snd (request_row r))

let op_of_response = function
  | Failed _ -> "error"
  | resp -> (fst (find_row (fun row -> row.r_reply) resp)).r_wire

(* ------------------------------------------------------------------ *)
(* Envelope codecs                                                     *)

let envelope_flags = [ F id_f; F deadline_f ] @ trace_c.flags
let envelope_bindings e = [ id_f @= e.id; deadline_f @= e.deadline_ms ]

let read_envelope src row =
  let* id = get src id_f in
  let* deadline_ms = get src deadline_f in
  let trace_src =
    match src with
    | Json (what, j) -> Option.map (fun t -> Json (what ^ " trace", t)) (J.member "trace" j)
    | Argv _ -> if has src trace_id_f || has src trace_span_f then Some src else None
  in
  let* trace =
    match trace_src with None -> Ok None | Some s -> Result.map Option.some (trace_c.dec s)
  in
  let* request = row.r_request.dec src in
  Ok { id; deadline_ms; trace; request }

let envelope_to_json e =
  let row, fields = request_row e.request in
  J.Obj
    ([ ("v", J.Int version); ("op", J.Str row.r_wire) ]
    @ json_fields (envelope_bindings e)
    @ (match e.trace with
      | Some t -> [ ("trace", J.Obj (json_fields (bindings trace_c t))) ]
      | None -> [])
    @ json_fields fields)

let envelope_of_json j =
  let* () =
    match J.member "v" j with
    | Some (J.Int v) when v = version -> Ok ()
    | Some (J.Int v) ->
        Error
          (Error.make Error.Unsupported_version
             "unsupported API version %d (this server speaks v%d only)" v version)
    | Some _ -> err_bad "field \"v\" must be an integer"
    | None -> err_bad "request is missing field \"v\" (API version, currently %d)" version
  in
  let* op = get (Json ("request", j)) o_op in
  match List.find_opt (fun r -> List.mem op r.r_names) table with
  | Some row -> read_envelope (Json (op ^ " request", j)) row
  | None -> err_bad "unknown op %S (%s)" op (String.concat " | " op_names)

let envelope_of_line line =
  match J.json_of_string line with
  | Error m -> err_bad "unparseable request line: %s" m
  | Ok j -> envelope_of_json j

let request_line e = J.json_to_string (envelope_to_json e)

let reply_to_json r =
  let head = ("v", J.Int version) :: json_fields [ id_f @= r.reply_id ] in
  match r.response with
  | Failed e -> J.Obj (head @ [ ("ok", J.Bool false); ("error", Error.to_json e) ])
  | resp ->
      let row, fields = find_row (fun row -> row.r_reply) resp in
      J.Obj
        (head
        @ [
            ("ok", J.Bool true);
            ("op", J.Str row.r_wire);
            ("result", J.Obj (json_fields fields));
          ])

let reply_of_json j =
  let src = Json ("reply", j) in
  let* reply_id = get src id_f in
  let* ok = get src o_ok in
  if not ok then
    match J.member "error" j with
    | Some e -> (
        match Error.of_json e with
        | Ok e -> Ok { reply_id; response = Failed e }
        | Error m -> err_bad "bad error object in reply: %s" m)
    | None -> err_bad "failed reply is missing field \"error\""
  else
    let* op = get src o_op in
    match (List.find_opt (fun r -> r.r_wire = op) table, J.member "result" j) with
    | None, _ -> err_bad "unknown reply op %S" op
    | _, None -> err_bad "ok reply is missing field \"result\""
    | Some row, Some result ->
        let* response = row.r_reply.dec (Json (op ^ " reply", result)) in
        Ok { reply_id; response }

let reply_of_line line =
  match J.json_of_string line with
  | Error m -> err_bad "unparseable reply line: %s" m
  | Ok j -> reply_of_json j

let reply_line r = J.json_to_string (reply_to_json r)

(* ------------------------------------------------------------------ *)
(* Argument-list codec                                                 *)

let flag_of (F f) = f.flag

(* Edit distance for the did-you-mean suggestion on unknown flags. *)
let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id and cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let suggest ~known flag =
  let scored = List.map (fun f -> (levenshtein flag (flag_of f), flag_of f)) known in
  match List.sort compare scored with
  | (d, best) :: _ when d <= max 2 (String.length flag / 3) ->
      Printf.sprintf " (did you mean %S?)" best
  | _ -> ""

(* Scan tokens into (canonical flag -> raw value) plus positionals. *)
let scan ~op ~known tokens =
  let seen = Hashtbl.create 16 in
  let positionals = ref [] in
  let rec go = function
    | [] -> Ok ()
    | tok :: rest when String.length tok > 1 && tok.[0] = '-' -> (
        match List.find_opt (fun (F f) -> f.flag = tok || List.mem tok f.als) known with
        | None -> err_bad "unknown flag %S for %s%s" tok op (suggest ~known tok)
        | Some (F f) when f.ty.tname = "flag" ->
            Hashtbl.replace seen f.flag "true";
            go rest
        | Some (F f) -> (
            match rest with
            | v :: rest ->
                Hashtbl.replace seen f.flag v;
                go rest
            | [] -> err_bad "flag %s expects a value" f.flag))
    | tok :: rest ->
        positionals := tok :: !positionals;
        go rest
  in
  let* () = go tokens in
  Ok (seen, List.rev !positionals)

let cli_ops_doc () =
  String.concat " | "
    (List.filter_map (fun r -> if r.r_public then Some r.r_cli else None) table)

let of_args args =
  match args with
  | [] -> err_bad "missing operation (%s)" (cli_ops_doc ())
  | op_tok :: rest -> (
      match List.find_opt (fun r -> r.r_public && List.mem op_tok r.r_names) table with
      | None -> err_bad "unknown operation %S (%s)" op_tok (cli_ops_doc ())
      | Some row ->
          let op = row.r_cli in
          (* sample's leading bare token picks the model and swaps that
             model's flags into the scanner. *)
          let* model, flags, rest =
            match (row.r_models, rest) with
            | [], _ -> Ok (None, row.r_request.flags, rest)
            | models, tag :: rest when String.length tag > 0 && tag.[0] <> '-' ->
                let mflags =
                  match List.find_opt (fun m -> m.m_tag = tag) models with
                  | Some m -> m.m_flags
                  | None -> []
                in
                Ok (Some tag, mflags @ row.r_request.flags, rest)
            | _ -> err_bad "%s needs a model: %s <%s> ..." op op model_tags
          in
          let* seen, positionals = scan ~op ~known:(flags @ envelope_flags @ exec_c.flags) rest in
          Option.iter (Hashtbl.replace seen model_f.flag) model;
          let* () =
            match (positionals, Option.map flag_of row.r_positional) with
            | [], _ -> Ok ()
            | [ p ], Some flag ->
                if Hashtbl.mem seen flag then
                  err_bad "%s got both a positional argument and %s" op flag
                else Ok (Hashtbl.replace seen flag p)
            | p :: _, _ -> err_bad "unexpected argument %S for %s" p op
          in
          let src = Argv (op, seen) in
          let* exec = exec_c.dec src in
          let* envelope = read_envelope src row in
          Ok (envelope, exec))

let to_args ?(exec = no_exec) e =
  let row, fields = request_row e.request in
  let trace = match e.trace with Some t -> bindings trace_c t | None -> [] in
  row.r_cli :: argv_of (fields @ envelope_bindings e @ trace @ bindings exec_c exec)

(* ------------------------------------------------------------------ *)
(* Schema dump                                                         *)

let field_json (F f) =
  J.Obj
    [
      ("flag", J.Str f.flag);
      ("aliases", J.Arr (List.map (fun a -> J.Str a) f.als));
      ("type", J.Str f.ty.tname);
      ("required", J.Bool (f.dflt = None));
      ( "default",
        match f.dflt with
        | Some d when f.ty.tname <> "flag" && not (omitted f d) -> J.Str (f.ty.to_arg d)
        | _ -> J.Null );
      ("doc", J.Str f.doc);
    ]

let schema_json () =
  let op_json r =
    let models =
      if r.r_models = [] then []
      else
        [
          ( "models",
            J.Arr
              (List.map
                 (fun m ->
                   J.Obj
                     [
                       ("model", J.Str m.m_tag);
                       ("args", J.Arr (List.map field_json m.m_flags));
                     ])
                 r.r_models) );
        ]
    in
    J.Obj
      ([
         ("op", J.Str r.r_cli);
         ( "aliases",
           J.Arr
             (List.filter_map
                (fun a -> if a = r.r_cli then None else Some (J.Str a))
                r.r_names) );
         ("doc", J.Str r.r_doc);
         ("positional", match r.r_positional with Some p -> J.Str (flag_of p) | None -> J.Null);
         ("args", J.Arr (List.map field_json r.r_request.flags));
       ]
      @ models)
  in
  J.Obj
    [
      ("schema", J.Str "smallworld.api.v1");
      ("version", J.Int version);
      ( "ops",
        J.Arr
          (List.filter_map (fun r -> if r.r_public then Some (op_json r) else None) table) );
      ("envelope_args", J.Arr (List.map field_json envelope_flags));
      ("exec_args", J.Arr (List.map field_json exec_c.flags));
      ( "error_codes",
        J.Arr
          (List.map
             (fun c ->
               J.Obj
                 [
                   ("code", J.Str (Error.code_string c));
                   ("exit", J.Int (Error.exit_code c));
                 ])
             Error.all_codes) );
    ]
