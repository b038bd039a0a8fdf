let alpha_to_field = function
  | Params.Infinite -> "inf"
  | Params.Finite a -> Printf.sprintf "%h" a

let alpha_of_field = function
  | "inf" -> Some Params.Infinite
  | s -> Option.map (fun a -> Params.Finite a) (float_of_string_opt s)

let save ~path (inst : Instance.t) =
  Out_channel.with_open_text path (fun oc ->
      let p = inst.params in
      let count = Array.length inst.weights in
      Printf.fprintf oc "# smallworld-girg n=%d dim=%d beta=%h w_min=%h alpha=%s c=%h norm=%s poisson=%b count=%d\n"
        p.Params.n p.Params.dim p.Params.beta p.Params.w_min (alpha_to_field p.Params.alpha)
        p.Params.c (Params.norm_to_string p.Params.norm) p.Params.poisson_count count;
      let dim = Geometry.Torus.Packed.dim inst.packed in
      let coords = Geometry.Torus.Packed.data inst.packed in
      for v = 0 to count - 1 do
        Printf.fprintf oc "%d %h" v inst.weights.(v);
        for i = v * dim to (v * dim) + dim - 1 do
          Printf.fprintf oc " %h" coords.(i)
        done;
        Out_channel.output_char oc '\n'
      done;
      Printf.fprintf oc "edges %d\n" (Sparse_graph.Graph.m inst.graph);
      Sparse_graph.Graph.iter_edges inst.graph (fun u v -> Printf.fprintf oc "%d %d\n" u v))

let parse_header line =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match String.split_on_char ' ' (String.trim line) with
  | "#" :: "smallworld-girg" :: fields -> begin
      let kv = Hashtbl.create 8 in
      List.iter
        (fun field ->
          match String.index_opt field '=' with
          | Some i ->
              Hashtbl.replace kv
                (String.sub field 0 i)
                (String.sub field (i + 1) (String.length field - i - 1))
          | None -> ())
        fields;
      let get key = Hashtbl.find_opt kv key in
      let norm =
        match get "norm" with
        | None -> Some Geometry.Torus.Linf (* older files predate the field *)
        | Some s -> Params.norm_of_string s
      in
      match
        ( Option.bind (get "n") int_of_string_opt,
          Option.bind (get "dim") int_of_string_opt,
          Option.bind (get "beta") float_of_string_opt,
          Option.bind (get "w_min") float_of_string_opt,
          Option.bind (get "alpha") alpha_of_field,
          (Option.bind (get "c") float_of_string_opt, norm),
          Option.bind (get "poisson") bool_of_string_opt,
          Option.bind (get "count") int_of_string_opt )
      with
      | Some n, Some dim, Some beta, Some w_min, Some alpha, (Some c, Some norm), Some poisson, Some count
        -> begin
          match
            Params.validate
              { Params.n; dim; beta; w_min; alpha; c; norm; poisson_count = poisson }
          with
          | Ok params -> Ok (params, count)
          | Error e -> fail "invalid parameters in header: %s" e
        end
      | _ -> fail "missing or malformed header fields"
    end
  | _ -> fail "not a smallworld-girg file"

(* Edge counts come from an untrusted header: cap them so the buffer
   allocation below cannot blow up with [Invalid_argument] from
   [Array.make] — a malformed file must yield [Error], never a crash. *)
let max_edge_count = (Sys.max_array_length / 2) - 1

let load_text ic =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match In_channel.input_line ic with
  | None -> Error "empty file"
  | Some header -> begin
      match parse_header header with
      | Error e -> Error e
      | Ok (params, count) -> begin
          let dim = params.Params.dim in
          if count < 0 || count > Sys.max_array_length / dim then
            fail "vertex count %d out of range" count
          else begin
            let weights = Array.make count 0.0 in
            let coords = Array.make (count * dim) 0.0 in
            let error = ref None in
            (try
               for v = 0 to count - 1 do
                 match In_channel.input_line ic with
                 | None -> raise Exit
                 | Some line -> begin
                     match String.split_on_char ' ' (String.trim line) with
                     | id_str :: w_str :: coord_strs
                       when List.length coord_strs = dim -> begin
                         match
                           ( int_of_string_opt id_str,
                             float_of_string_opt w_str,
                             List.map float_of_string_opt coord_strs )
                         with
                         | Some id, Some w, xs when id = v && List.for_all Option.is_some xs
                           ->
                             weights.(v) <- w;
                             List.iteri (fun i x -> coords.((v * dim) + i) <- Option.get x) xs
                         | _ ->
                             error := Some (Printf.sprintf "bad vertex line %d" v);
                             raise Exit
                       end
                     | _ ->
                         error := Some (Printf.sprintf "bad vertex line %d" v);
                         raise Exit
                   end
               done
             with Exit -> if !error = None then error := Some "truncated vertex section");
            match !error with
            | Some e -> Error e
            | None -> begin
                match In_channel.input_line ic with
                | Some sep -> begin
                    match String.split_on_char ' ' (String.trim sep) with
                    | [ "edges"; m_str ] -> begin
                        match int_of_string_opt m_str with
                        | Some m when m < 0 || m > max_edge_count ->
                            fail "edge count %d out of range" m
                        | Some m -> begin
                            let buf = Edge_buf.create ~capacity:(max 1 m) () in
                            let ok = ref true in
                            (try
                               for _ = 1 to m do
                                 match In_channel.input_line ic with
                                 | None -> raise Exit
                                 | Some line -> begin
                                     match
                                       String.split_on_char ' ' (String.trim line)
                                     with
                                     | [ u_str; v_str ] -> begin
                                         match
                                           (int_of_string_opt u_str, int_of_string_opt v_str)
                                         with
                                         | Some u, Some v
                                           when u >= 0 && u < count && v >= 0 && v < count ->
                                             Edge_buf.push buf u v
                                         | _ -> raise Exit
                                       end
                                     | _ -> raise Exit
                                   end
                               done
                             with Exit -> ok := false);
                            if not !ok then Error "truncated or malformed edge section"
                            else
                              Ok
                                (Instance.make ~params ~weights
                                   ~packed:(Geometry.Torus.Packed.of_flat ~dim coords)
                                   ~graph:
                                     (Sparse_graph.Graph.of_flat_halves ~n:count
                                        ~len:(Edge_buf.flat_len buf) (Edge_buf.flat buf)))
                          end
                        | None -> fail "bad edge count %s" m_str
                      end
                    | _ -> fail "expected 'edges m' separator, got %s" sep
                  end
                | None -> Error "missing edge section"
              end
          end
        end
    end

(* ------------------------------------------------------------------ *)
(* Binary snapshot (v2, auto-detected alongside the v1 text format).

   Layout, all integers little-endian, all sections 8-byte aligned:

     offset  size          field
     0       8             magic "SWGIRGB1"
     8       4             endian tag 0x01020304 (i32)
     12      38            parameter block (see Codec.write_params)
     50      8             count: realised vertex count (i64)
     58      8             m: undirected edge count (i64)
     66      6             zero padding (aligns the data sections)
     72      8*count       weights (f64)
     ..      8*count*dim   positions, dim-strided per vertex (f64)
     ..      8*(count+1)   CSR offsets (i64)
     ..      8*2m          CSR targets (i64)

   The CSR words are nonnegative OCaml ints, so on a little-endian 64-bit
   host the offsets/targets sections can be [Unix.map_file]'d as
   native-int Bigarrays and traversed zero-copy ([load_mmap]). *)

let binary_magic = "SWGIRGB1"
let binary_fixed_bytes = 8 + 4 + Codec.params_block_size + 8 + 8
let binary_pad = (8 - (binary_fixed_bytes mod 8)) mod 8
let binary_header_bytes = binary_fixed_bytes + binary_pad

let save_binary ~path (inst : Instance.t) =
  Out_channel.with_open_bin path (fun oc ->
      (* A mutated graph's base arrays do not describe the merged view;
         fold any live delta into a plain CSR before serialising. *)
      let g = Sparse_graph.Graph.compact inst.graph in
      let count = Array.length inst.weights in
      Codec.write_magic oc binary_magic;
      Codec.write_i32 oc Codec.endian_tag;
      Codec.write_params oc inst.params;
      Codec.write_i64 oc count;
      Codec.write_i64 oc (Sparse_graph.Graph.m g);
      for _ = 1 to binary_pad do
        Codec.write_u8 oc 0
      done;
      Codec.write_f64_array oc inst.weights;
      Codec.write_f64_array oc (Geometry.Torus.Packed.data inst.packed);
      Codec.write_int_ba oc (Sparse_graph.Graph.offsets_ba g);
      Codec.write_int_ba oc (Sparse_graph.Graph.targets_ba g))

(* Reads and fully validates the fixed part.  Returns (params, count, m);
   afterwards [ic] is positioned at the weights section. *)
let read_binary_header ic =
  Codec.read_magic ic binary_magic;
  Codec.check_endian_tag ic;
  let params = Codec.read_params ic in
  let count = Codec.read_i64 ic "count" in
  let m = Codec.read_i64 ic "m" in
  if count < 0 || count > Sys.max_array_length then
    Codec.corrupt "vertex count %d out of range" count;
  if m < 0 || m > max_edge_count then Codec.corrupt "edge count %d out of range" m;
  for _ = 1 to binary_pad do
    ignore (Codec.read_u8 ic "padding")
  done;
  (* Oversized/truncated rejection: the data sections' byte size must match
     the header's promise exactly, before anything is allocated from it. *)
  let dim = params.Params.dim in
  let expected =
    let ( + ) = Int64.add and ( * ) = Int64.mul in
    let i = Int64.of_int in
    (8L * i count) + (8L * i count * i dim) + (8L * (i count + 1L)) + (16L * i m)
  in
  let remaining = Int64.sub (In_channel.length ic) (In_channel.pos ic) in
  if Int64.compare remaining expected <> 0 then
    Codec.corrupt "data sections are %Ld bytes, header promises %Ld" remaining expected;
  (params, count, m)

(* The weights and positions sections, read onto the heap.  The positions
   section is already the packed layout, so the store wraps it as read. *)
let read_vertex_sections ic ~params ~count =
  let weights = Codec.read_f64_array ic count "weights" in
  let dim = params.Params.dim in
  let coords = Codec.read_f64_array ic (count * dim) "positions" in
  (weights, Geometry.Torus.Packed.of_flat ~dim coords)

let load_binary ic =
  let params, count, m = read_binary_header ic in
  let weights, packed = read_vertex_sections ic ~params ~count in
  let offsets = Codec.read_int_ba ic (count + 1) "offsets" in
  let targets = Codec.read_int_ba ic (2 * m) "targets" in
  match Sparse_graph.Graph.of_bigarrays ~n:count ~offsets ~targets () with
  | Error e -> Codec.corrupt "%s" e
  | Ok graph -> Instance.make ~params ~weights ~packed ~graph

let load ~path =
  let dispatch ic =
    match In_channel.input_char ic with
    | None -> Error "empty file"
    | Some first -> begin
        In_channel.seek ic 0L;
        if first = '#' then load_text ic
        else
          match load_binary ic with
          | inst -> Ok inst
          | exception Codec.Corrupt msg -> Error msg
      end
  in
  match In_channel.with_open_bin path dispatch with
  | result -> result
  | exception Sys_error msg -> Error msg

(* Binary-only load that maps the CSR sections instead of reading them:
   the graph pages in lazily from the file and stays off the OCaml heap.
   Weights and positions are still materialised (routing needs them in
   heap form); the CSR dominates the footprint at scale.  The mapping's
   lifetime is tied to the returned Bigarrays — the fd is closed before
   returning, and the kernel drops the mapping when the graph's arrays are
   collected. *)
let load_mmap ~path =
  let header ic =
    let params, count, m = read_binary_header ic in
    let weights, packed = read_vertex_sections ic ~params ~count in
    (params, count, m, weights, packed, In_channel.pos ic)
  in
  match In_channel.with_open_bin path header with
  | exception Sys_error msg -> Error msg
  | exception Codec.Corrupt msg -> Error msg
  | params, count, m, weights, packed, csr_pos -> begin
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      let map ~pos len =
        Bigarray.array1_of_genarray
          (Unix.map_file fd ~pos Bigarray.int Bigarray.c_layout false [| len |])
      in
      match
        let offsets = map ~pos:csr_pos (count + 1) in
        let targets =
          map ~pos:(Int64.add csr_pos (Int64.of_int (8 * (count + 1)))) (2 * m)
        in
        (offsets, targets)
      with
      | exception e ->
          Unix.close fd;
          Error (Printexc.to_string e)
      | offsets, targets -> begin
          Unix.close fd;
          (* No content validation: the full scan would fault the whole
             mapping resident, which is exactly what load_mmap exists to
             avoid.  Section sizes were already checked against the
             header, and Bigarray bounds checks contain any residual
             corruption. *)
          match
            Sparse_graph.Graph.of_bigarrays ~validate:false ~n:count ~offsets ~targets ()
          with
          | Error e -> Error e
          | Ok graph -> Ok (Instance.make ~params ~weights ~packed ~graph)
        end
    end
