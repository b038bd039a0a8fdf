(* Binary snapshots: round-trips, text/binary auto-detection, mmap-CSR vs
   heap-CSR behavioural equality, and malformed-file rejection. *)

let with_tmp ext f =
  let path = Filename.temp_file "smallworld-snap" ext in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let expect_error what = function
  | Ok (_ : Girg.Instance.t) -> Alcotest.failf "%s: expected Error, got Ok" what
  | Error (_ : string) -> ()

let instance =
  lazy
    (let params = Girg.Params.make ~n:900 ~dim:2 ~poisson_count:false () in
     Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:11) params)

let graphs_equal what a b =
  let module G = Sparse_graph.Graph in
  Alcotest.(check int) (what ^ ": n") (G.n a) (G.n b);
  Alcotest.(check int) (what ^ ": m") (G.m a) (G.m b);
  for v = 0 to G.n a - 1 do
    if G.neighbors a v <> G.neighbors b v then
      Alcotest.failf "%s: adjacency of vertex %d differs" what v
  done

let instances_equal what (a : Girg.Instance.t) (b : Girg.Instance.t) =
  Alcotest.(check string)
    (what ^ ": params")
    (Girg.Params.to_string a.params)
    (Girg.Params.to_string b.params);
  if a.weights <> b.weights then Alcotest.failf "%s: weights differ" what;
  if Geometry.Torus.Packed.data a.packed <> Geometry.Torus.Packed.data b.packed then
    Alcotest.failf "%s: positions differ" what;
  graphs_equal what a.graph b.graph

let test_binary_round_trip () =
  let inst = Lazy.force instance in
  with_tmp ".bin" (fun path ->
      Girg.Store.save_binary ~path inst;
      match Girg.Store.load ~path with
      | Error e -> Alcotest.failf "binary load failed: %s" e
      | Ok loaded -> instances_equal "binary round-trip" inst loaded)

let test_text_binary_agree () =
  let inst = Lazy.force instance in
  with_tmp ".txt" (fun text_path ->
      with_tmp ".bin" (fun bin_path ->
          Girg.Store.save ~path:text_path inst;
          Girg.Store.save_binary ~path:bin_path inst;
          match (Girg.Store.load ~path:text_path, Girg.Store.load ~path:bin_path) with
          | Ok a, Ok b -> instances_equal "text vs binary" a b
          | Error e, _ -> Alcotest.failf "text load failed: %s" e
          | _, Error e -> Alcotest.failf "binary load failed: %s" e))

(* The mmap-backed CSR must be behaviourally indistinguishable from the
   heap-backed one: same routes, same BFS distances, same statistics. *)
let test_mmap_equals_heap () =
  let inst = Lazy.force instance in
  with_tmp ".bin" (fun path ->
      Girg.Store.save_binary ~path inst;
      match (Girg.Store.load ~path, Girg.Store.load_mmap ~path) with
      | Error e, _ -> Alcotest.failf "heap load failed: %s" e
      | _, Error e -> Alcotest.failf "mmap load failed: %s" e
      | Ok heap, Ok mapped ->
          instances_equal "mmap vs heap sections" heap mapped;
          let module G = Sparse_graph.Graph in
          let n = G.n heap.Girg.Instance.graph in
          (* Greedy routes agree step for step (same outcome on a pair grid). *)
          List.iter
            (fun (source, target) ->
              let route (i : Girg.Instance.t) =
                Greedy_routing.Greedy.route ~graph:i.Girg.Instance.graph
                  ~objective:(Greedy_routing.Objective.girg_phi i ~target)
                  ~source ()
              in
              if route heap <> route mapped then
                Alcotest.failf "route %d->%d differs between backings" source target)
            [ (0, n - 1); (1, n / 2); (n / 3, 2 * n / 3) ];
          let d_heap = Sparse_graph.Bfs.distances heap.Girg.Instance.graph ~source:0 in
          let d_mapped = Sparse_graph.Bfs.distances mapped.Girg.Instance.graph ~source:0 in
          Alcotest.(check (array int)) "BFS distances" d_heap d_mapped;
          Alcotest.(check (list (pair int int)))
            "degree histogram"
            (Sparse_graph.Gstats.degree_histogram heap.Girg.Instance.graph)
            (Sparse_graph.Gstats.degree_histogram mapped.Girg.Instance.graph);
          Alcotest.(check int)
            "max degree"
            (G.max_degree heap.Girg.Instance.graph)
            (G.max_degree mapped.Girg.Instance.graph))

let test_mmap_requires_binary () =
  let inst = Lazy.force instance in
  with_tmp ".txt" (fun path ->
      Girg.Store.save ~path inst;
      expect_error "mmap of text snapshot" (Girg.Store.load_mmap ~path))

(* Offsets of the fixed fields (see the layout table in store.ml). *)
let count_offset = 50
let m_offset = 58

let test_binary_rejection () =
  let inst = Lazy.force instance in
  with_tmp ".bin" (fun path ->
      Girg.Store.save_binary ~path inst;
      let original = read_file path in
      let patched patch =
        let b = Bytes.of_string original in
        patch b;
        Bytes.to_string b
      in
      with_tmp ".bad" (fun bad ->
          (* Truncated: drop the tail, or cut at the end of each section
             (header, weights, positions, offsets) and one byte short of
             it. *)
          let count = Array.length inst.Girg.Instance.weights in
          let dim = inst.Girg.Instance.params.Girg.Params.dim in
          let header_end = Girg.Store.binary_header_bytes in
          let weights_end = header_end + (8 * count) in
          let positions_end = weights_end + (8 * count * dim) in
          let offsets_end = positions_end + (8 * (count + 1)) in
          Alcotest.(check int) "the targets section ends the file"
            (String.length original)
            (offsets_end + (16 * Sparse_graph.Graph.m inst.Girg.Instance.graph));
          List.iter
            (fun (what, len) ->
              write_file bad (String.sub original 0 len);
              expect_error ("truncated " ^ what) (Girg.Store.load ~path:bad);
              expect_error ("truncated " ^ what ^ " (mmap)") (Girg.Store.load_mmap ~path:bad))
            (("before the tail", String.length original - 8)
            :: List.concat_map
                 (fun (what, cut) ->
                   [ ("at the end of the " ^ what, cut); ("short of the " ^ what ^ " end", cut - 1) ])
                 [
                   ("header", header_end);
                   ("weights", weights_end);
                   ("positions", positions_end);
                   ("offsets", offsets_end);
                 ]);
          (* Bad magic. *)
          write_file bad (patched (fun b -> Bytes.set b 0 'Z'));
          expect_error "bad magic" (Girg.Store.load ~path:bad);
          (* Endianness tag mismatch. *)
          write_file bad (patched (fun b -> Bytes.set_int32_le b 8 0x04030201l));
          expect_error "endian tag" (Girg.Store.load ~path:bad);
          (* Oversized counts must be rejected before any allocation. *)
          write_file bad (patched (fun b -> Bytes.set_int64_le b m_offset 0x2000000000000L));
          expect_error "huge m" (Girg.Store.load ~path:bad);
          write_file bad
            (patched (fun b -> Bytes.set_int64_le b count_offset 0x2000000000000000L));
          expect_error "huge count" (Girg.Store.load ~path:bad);
          (* Off-by-one count: the size cross-check catches it. *)
          let count = Array.length inst.Girg.Instance.weights in
          write_file bad
            (patched (fun b -> Bytes.set_int64_le b m_offset (Int64.of_int (count + 1))));
          expect_error "inflated m" (Girg.Store.load ~path:bad);
          (* Empty file. *)
          write_file bad "";
          expect_error "empty file" (Girg.Store.load ~path:bad)))

(* Satellite regression: a text header promising an absurd edge count used
   to crash Edge_buf.create with Invalid_argument; it must return Error. *)
let test_text_huge_edge_count () =
  with_tmp ".txt" (fun path ->
      write_file path
        (String.concat "\n"
           [
             "# smallworld-girg n=1 dim=1 beta=2.5 w_min=1.0 alpha=2.0 c=1.0 norm=linf \
              poisson=false count=1";
             "0 1.0 0.5";
             "edges 4611686018427387902";
             "";
           ]);
      expect_error "huge text edge count" (Girg.Store.load ~path))

let suite =
  [
    Alcotest.test_case "binary snapshot round-trips" `Quick test_binary_round_trip;
    Alcotest.test_case "text and binary loads agree" `Quick test_text_binary_agree;
    Alcotest.test_case "mmap CSR equals heap CSR" `Quick test_mmap_equals_heap;
    Alcotest.test_case "mmap requires a binary snapshot" `Quick test_mmap_requires_binary;
    Alcotest.test_case "malformed binary snapshots are rejected" `Quick test_binary_rejection;
    Alcotest.test_case "huge text edge count yields Error" `Quick test_text_huge_edge_count;
  ]
