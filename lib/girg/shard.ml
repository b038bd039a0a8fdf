(* Sharded out-of-core generation: each shard process re-derives the vertex
   data from (seed, params), samples its contiguous band of the cell
   sampler's task enumeration, and spills the edges to a binary file.  The
   merge step validates the spill set and concatenates the edge streams in
   shard order, which reproduces single-process generation byte for byte
   (see [Cell.sample_edges_buf_stats]'s sharding contract). *)

let magic = "SWGSPIL1"

type header = {
  params : Params.t;
  seed : int;
  shards : int;
  shard : int;
  count : int;
  edges : int;
}

(* Spill layout (all integers little-endian):
     magic               8 bytes   "SWGSPIL1"
     endian tag          i32       0x01020304
     seed                i64
     shards              i32
     shard               i32
     count               i64       realised vertex count
     params block        47 bytes  see [Codec.write_params]
     edge count          i64
     edges               edge count x (u i32, v i32), sampling order *)

let header_bytes = 8 + 4 + 8 + 4 + 4 + 8 + Codec.params_block_size + 8

let check_shard_range ~shards ~shard =
  if shards < 1 then invalid_arg "Shard: shards must be >= 1";
  if shard < 0 || shard >= shards then invalid_arg "Shard: shard index out of range"

let sample ?pool ~seed ~shards ~shard params =
  check_shard_range ~shards ~shard;
  let params = Params.validate_exn params in
  let rng = Prng.Rng.create ~seed in
  let vd = Instance.derive_vertex_data ~rng params in
  let kernel = Kernel.girg params in
  let buf, _stats =
    Cell.sample_edges_buf_stats ?pool ~shard:(shard, shards) ~rng:vd.Instance.rng_edges
      ~kernel ~weights:vd.Instance.v_weights ~positions:vd.Instance.v_positions ()
  in
  (buf, vd.Instance.count)

let write_spill ~path ~seed ~shards ~shard ~params ~count buf =
  (* Write-then-rename so a crashed or killed shard process never leaves
     a truncated spill under the final name for the merge to trip on. *)
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  (try
     Out_channel.with_open_bin tmp (fun oc ->
         Codec.write_magic oc magic;
         Codec.write_i32 oc Codec.endian_tag;
         Codec.write_i64 oc seed;
         Codec.write_i32 oc shards;
         Codec.write_i32 oc shard;
         Codec.write_i64 oc count;
         Codec.write_params oc params;
         Codec.write_i64 oc (Edge_buf.length buf);
         Codec.write_edges_i32 oc (Edge_buf.flat buf) ~len:(Edge_buf.flat_len buf))
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let generate_spill ?pool ~path ~seed ~shards ~shard params =
  check_shard_range ~shards ~shard;
  let params = Params.validate_exn params in
  let buf, count = sample ?pool ~seed ~shards ~shard params in
  write_spill ~path ~seed ~shards ~shard ~params ~count buf;
  { params; seed; shards; shard; count; edges = Edge_buf.length buf }

let read_header_ic ic ~path =
  Codec.read_magic ic magic;
  Codec.check_endian_tag ic;
  let seed = Codec.read_i64 ic "seed" in
  let shards = Codec.read_i32 ic "shards" in
  let shard = Codec.read_i32 ic "shard" in
  let count = Codec.read_i64 ic "count" in
  let params = Codec.read_params ic in
  let edges = Codec.read_i64 ic "edge count" in
  if shards < 1 || shard < 0 || shard >= shards then
    Codec.corrupt "shard %d of %d out of range" shard shards;
  if count < 0 then Codec.corrupt "negative vertex count %d" count;
  if edges < 0 || edges > (Sys.max_array_length / 2) - 1 then
    Codec.corrupt "edge count %d out of range" edges;
  (* Oversized-count rejection: the edge section's byte size must match
     what remains of the file, so a forged count fails before any
     allocation sized by it. *)
  let remaining = Int64.sub (In_channel.length ic) (In_channel.pos ic) in
  if Int64.compare remaining (Int64.mul 8L (Int64.of_int edges)) <> 0 then
    Codec.corrupt "edge section of %s is %Ld bytes, header promises %Ld" path remaining
      (Int64.mul 8L (Int64.of_int edges));
  { params; seed; shards; shard; count; edges }

let with_file path f =
  match In_channel.with_open_bin path f with
  | v -> Ok v
  | exception Codec.Corrupt msg -> Error (Printf.sprintf "%s: %s" path msg)
  | exception Sys_error msg -> Error msg

let read_header ~path = with_file path (fun ic -> read_header_ic ic ~path)

let read_spill ~path =
  with_file path (fun ic ->
      let h = read_header_ic ic ~path in
      let buf = Edge_buf.create ~capacity:(max 1 h.edges) () in
      Codec.read_edges_i32 ic buf ~edges:h.edges ~max_vertex:h.count;
      (h, buf))

(* Validate a spill set: one spill per shard index 0..S-1, all stamped with
   the same seed/params/count/shard-total.  Returns the headers sorted in
   shard order paired with their paths. *)
let plan_merge ~paths =
  if paths = [] then Error "no spill files given"
  else begin
    let rec read_all acc = function
      | [] -> Ok (List.rev acc)
      | path :: rest -> begin
          match read_header ~path with
          | Ok h -> read_all ((path, h) :: acc) rest
          | Error e -> Error e
        end
    in
    match read_all [] paths with
    | Error e -> Error e
    | Ok headers -> begin
        let _, h0 = List.hd headers in
        let mismatch =
          List.find_opt
            (fun (_, h) ->
              h.seed <> h0.seed || h.shards <> h0.shards || h.count <> h0.count
              || h.params <> h0.params)
            headers
        in
        match mismatch with
        | Some (path, _) ->
            Error (Printf.sprintf "%s: spill header disagrees with %s" path (fst (List.hd headers)))
        | None ->
            if List.length headers <> h0.shards then
              Error
                (Printf.sprintf "expected %d spill files (one per shard), got %d" h0.shards
                   (List.length headers))
            else begin
              let sorted =
                List.sort (fun (_, a) (_, b) -> Int.compare a.shard b.shard) headers
              in
              let ok, _ =
                List.fold_left (fun (ok, i) (_, h) -> (ok && h.shard = i, i + 1)) (true, 0) sorted
              in
              if not ok then Error "spill set does not cover shards 0..S-1 exactly once"
              else Ok sorted
            end
      end
  end

(* Concatenate the spills' edge streams in shard order.  The result is the
   full instance edge buffer, byte-identical to single-process sampling. *)
let merge_edges ~paths =
  match plan_merge ~paths with
  | Error e -> Error e
  | Ok sorted -> begin
      let total = List.fold_left (fun acc (_, h) -> acc + h.edges) 0 sorted in
      if total > (Sys.max_array_length / 2) - 1 then
        Error (Printf.sprintf "merged edge count %d exceeds buffer capacity" total)
      else begin
        let _, h0 = List.hd sorted in
        let buf = Edge_buf.create ~capacity:(max 1 total) () in
        let rec fill = function
          | [] -> Ok (h0, buf)
          | (path, h) :: rest -> begin
              match
                with_file path (fun ic ->
                    let (_ : header) = read_header_ic ic ~path in
                    Codec.read_edges_i32 ic buf ~edges:h.edges ~max_vertex:h.count)
              with
              | Ok () -> fill rest
              | Error e -> Error e
            end
        in
        fill sorted
      end
    end

let merge ~paths () =
  match merge_edges ~paths with
  | Error e -> Error e
  | Ok (h, buf) ->
      let rng = Prng.Rng.create ~seed:h.seed in
      let vd = Instance.derive_vertex_data ~rng h.params in
      if vd.Instance.count <> h.count then
        Error
          (Printf.sprintf
             "seed %d derives %d vertices but spills were generated with %d — wrong seed or \
              params"
             h.seed vd.Instance.count h.count)
      else begin
        let graph =
          Obs.Span.with_ ~name:"girg.merge.build_graph" (fun () ->
              Sparse_graph.Graph.of_flat_halves ~n:h.count ~len:(Edge_buf.flat_len buf)
                (Edge_buf.flat buf))
        in
        Ok
          (Instance.make ~params:h.params ~weights:vd.Instance.v_weights
             ~packed:
               (Geometry.Torus.Packed.of_points ~dim:h.params.Params.dim vd.Instance.v_positions)
             ~graph)
      end
