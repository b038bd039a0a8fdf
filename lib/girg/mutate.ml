(* Live-graph mutations over a generated instance.

   The geometry (weights, positions, kernel parameters) of an instance is
   immutable; mutation changes only the edge set, through the
   copy-on-write row table of [Sparse_graph.Graph].  [Resample] re-draws a
   vertex's edges from the instance's own connection kernel with a
   substream keyed on (seed, epoch, vertex, neighbour), so the same
   mutation script against the same (seed, params) yields bit-identical
   graphs at every epoch — independent of evaluation order, job count,
   or heap/mmap backing. *)

module G = Sparse_graph.Graph

type op =
  | Leave of int
  | Rejoin of int
  | Drop of int * int
  | Resample of int

let op_to_string = function
  | Leave v -> Printf.sprintf "leave:%d" v
  | Rejoin v -> Printf.sprintf "rejoin:%d" v
  | Drop (u, v) -> Printf.sprintf "drop:%d:%d" u v
  | Resample v -> Printf.sprintf "resample:%d" v

let op_of_string s =
  let int_of what tok =
    match int_of_string_opt tok with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "bad %s %S in mutation %S" what tok s)
  in
  match String.split_on_char ':' s with
  | [ "leave"; v ] -> Result.map (fun v -> Leave v) (int_of "vertex" v)
  | [ "rejoin"; v ] -> Result.map (fun v -> Rejoin v) (int_of "vertex" v)
  | [ "drop"; u; v ] -> (
      match (int_of "endpoint" u, int_of "endpoint" v) with
      | Ok u, Ok v -> Ok (Drop (u, v))
      | (Error _ as e), _ | _, (Error _ as e) -> e)
  | [ "resample"; v ] -> Result.map (fun v -> Resample v) (int_of "vertex" v)
  | _ ->
      Error
        (Printf.sprintf
           "bad mutation %S (leave:V | rejoin:V | drop:U:V | resample:V)" s)

let ops_of_strings ss =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
        match op_of_string s with
        | Ok op -> go (op :: acc) rest
        | Error _ as e -> e)
  in
  go [] ss

let validate ~n ops =
  let check what v =
    if v < 0 || v >= n then
      Error (Printf.sprintf "%s: vertex %d out of range [0, %d)" what v n)
    else Ok ()
  in
  let rec go = function
    | [] -> Ok ()
    | op :: rest -> (
        let r =
          match op with
          | Leave v -> check "leave" v
          | Rejoin v -> check "rejoin" v
          | Resample v -> check "resample" v
          | Drop (u, v) -> (
              if u = v then Error (Printf.sprintf "drop:%d:%d: self-loop" u v)
              else
                match check "drop" u with Ok () -> check "drop" v | e -> e)
        in
        match r with Ok () -> go rest | Error _ as e -> e)
  in
  go ops

(* One coin per ordered (epoch, v, u): re-sampling vertex [v] draws every
   live partner [u] in ascending order, each from its own keyed
   substream, so the draw for a pair never depends on how many other
   pairs were considered. *)
let resample_mutations ~base ~epoch (inst : Instance.t) g v =
  let n = G.n g in
  let drops =
    G.fold_neighbors g v ~init:[] ~f:(fun acc u -> G.Remove_edge (v, u) :: acc)
  in
  let adds = ref [] in
  for u = n - 1 downto 0 do
    if u <> v && G.live g u then begin
      let rng = Prng.Rng.of_mixed_triple ~base ~a:epoch ~b:v ~c:u in
      if Prng.Rng.unit_float rng < Instance.connection_prob inst v u then
        adds := G.Add_edge (v, u) :: !adds
    end
  done;
  List.rev_append drops !adds

let apply ~seed (inst : Instance.t) ops =
  let epoch = G.epoch inst.graph + 1 in
  let base = Prng.Rng.mix64 (Int64.of_int seed) in
  (* An empty script is still an epoch: apply a no-op batch first so the
     version always advances, then fold the ops. *)
  let graph0 = G.apply ~epoch inst.graph [] in
  let graph =
    List.fold_left
      (fun g op ->
        match op with
        | Leave v -> G.apply ~epoch g [ G.Remove_vertex v ]
        | Rejoin v -> G.apply ~epoch g [ G.Restore_vertex v ]
        | Drop (u, v) -> G.apply ~epoch g [ G.Remove_edge (u, v) ]
        | Resample v ->
            (* Re-sampling a departed vertex is a deterministic no-op;
               the caller decides whether to reject it upfront. *)
            if not (G.live g v) then g
            else G.apply ~epoch g (resample_mutations ~base ~epoch inst g v))
      graph0 ops
  in
  Instance.with_graph inst graph
