(* Persistence round-trips: Sparse_graph.Io and Girg.Store. *)

let temp_path suffix = Filename.temp_file "smallworld_test" suffix

let test_graph_roundtrip () =
  let g = Sparse_graph.Graph.of_edge_list ~n:6 [ (0, 1); (2, 5); (1, 4); (3, 4) ] in
  let path = temp_path ".graph" in
  Sparse_graph.Io.save ~path g;
  (match Sparse_graph.Io.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok g' ->
      Alcotest.(check int) "n" (Sparse_graph.Graph.n g) (Sparse_graph.Graph.n g');
      Alcotest.(check int) "m" (Sparse_graph.Graph.m g) (Sparse_graph.Graph.m g');
      for v = 0 to 5 do
        Alcotest.(check (array int))
          (Printf.sprintf "nbrs %d" v)
          (Sparse_graph.Graph.neighbors g v)
          (Sparse_graph.Graph.neighbors g' v)
      done);
  Sys.remove path

let test_graph_roundtrip_random () =
  let rng = Prng.Rng.create ~seed:31 in
  for trial = 1 to 20 do
    let n = 1 + Prng.Rng.int rng 30 in
    let edges =
      Array.init (Prng.Rng.int rng 60) (fun _ -> (Prng.Rng.int rng n, Prng.Rng.int rng n))
    in
    let g = Sparse_graph.Graph.of_edges ~n edges in
    let path = temp_path ".graph" in
    Sparse_graph.Io.save ~path g;
    (match Sparse_graph.Io.load ~path with
    | Error e -> Alcotest.failf "trial %d: %s" trial e
    | Ok g' ->
        let edges_of g =
          let acc = ref [] in
          Sparse_graph.Graph.iter_edges g (fun u v -> acc := (u, v) :: !acc);
          List.sort compare !acc
        in
        Alcotest.(check (list (pair int int))) "edge sets" (edges_of g) (edges_of g'));
    Sys.remove path
  done

let test_graph_empty () =
  let g = Sparse_graph.Graph.of_edges ~n:0 [||] in
  let path = temp_path ".graph" in
  Sparse_graph.Io.save ~path g;
  (match Sparse_graph.Io.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok g' -> Alcotest.(check int) "empty" 0 (Sparse_graph.Graph.n g'));
  Sys.remove path

let test_graph_rejects_garbage () =
  let path = temp_path ".graph" in
  Out_channel.with_open_text path (fun oc -> output_string oc "not a graph\n1 2\n");
  (match Sparse_graph.Io.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected header error");
  Sys.remove path

let test_graph_rejects_bad_edge () =
  let path = temp_path ".graph" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "# smallworld-graph 3 1\n0 7\n");
  (match Sparse_graph.Io.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected out-of-range error");
  Sys.remove path

let test_graph_rejects_count_mismatch () =
  let path = temp_path ".graph" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "# smallworld-graph 3 2\n0 1\n");
  (match Sparse_graph.Io.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected edge-count error");
  Sys.remove path

let test_graph_missing_file () =
  match Sparse_graph.Io.load ~path:"/nonexistent/nowhere.graph" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected file error"

let test_store_roundtrip () =
  let params =
    Girg.Params.make ~dim:2 ~beta:2.5 ~alpha:(Girg.Params.Finite 2.0) ~c:0.3 ~n:300 ()
  in
  let inst = Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:8) params in
  let path = temp_path ".girg" in
  Girg.Store.save ~path inst;
  (match Girg.Store.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok inst' ->
      Alcotest.(check bool) "params" true (inst'.Girg.Instance.params = inst.params);
      Alcotest.(check bool) "weights exact" true (inst'.weights = inst.weights);
      Alcotest.(check bool) "positions exact" true
        (Geometry.Torus.Packed.data inst'.packed = Geometry.Torus.Packed.data inst.packed);
      Alcotest.(check int) "m" (Sparse_graph.Graph.m inst.graph)
        (Sparse_graph.Graph.m inst'.graph);
      (* Routing on the reloaded instance is identical. *)
      let n = Sparse_graph.Graph.n inst.graph in
      let route i ~source ~target =
        let objective = Greedy_routing.Objective.girg_phi i ~target in
        (Greedy_routing.Greedy.route ~graph:i.Girg.Instance.graph ~objective ~source ())
          .Greedy_routing.Outcome.walk
      in
      let rng = Prng.Rng.create ~seed:9 in
      for _ = 1 to 20 do
        let s, t = Prng.Dist.sample_distinct_pair rng ~n in
        Alcotest.(check (list int)) "same route" (route inst ~source:s ~target:t)
          (route inst' ~source:s ~target:t)
      done);
  Sys.remove path

let test_store_roundtrip_threshold () =
  let params = Girg.Params.make ~dim:1 ~beta:2.2 ~alpha:Girg.Params.Infinite ~n:200 () in
  let inst = Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:10) params in
  let path = temp_path ".girg" in
  Girg.Store.save ~path inst;
  (match Girg.Store.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok inst' ->
      Alcotest.(check bool) "alpha inf survives" true
        (inst'.Girg.Instance.params.Girg.Params.alpha = Girg.Params.Infinite));
  Sys.remove path

let test_store_norm_roundtrip () =
  let params =
    Girg.Params.make ~dim:2 ~beta:2.5 ~norm:Geometry.Torus.L2 ~n:100 ~poisson_count:false ()
  in
  let inst = Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:12) params in
  let path = temp_path ".girg" in
  Girg.Store.save ~path inst;
  (match Girg.Store.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok inst' ->
      Alcotest.(check bool) "norm survives" true
        (inst'.Girg.Instance.params.Girg.Params.norm = Geometry.Torus.L2));
  Sys.remove path

let test_store_rejects_garbage () =
  let path = temp_path ".girg" in
  Out_channel.with_open_text path (fun oc -> output_string oc "hello\n");
  (match Girg.Store.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error");
  Sys.remove path

let test_store_rejects_truncated () =
  (* Write a valid instance, truncate it mid-file, expect a clean error. *)
  let params = Girg.Params.make ~dim:2 ~beta:2.5 ~n:100 ~poisson_count:false () in
  let inst = Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:11) params in
  let path = temp_path ".girg" in
  Girg.Store.save ~path inst;
  let contents = In_channel.with_open_text path In_channel.input_all in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (String.sub contents 0 (String.length contents / 2)));
  (match Girg.Store.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected truncation error");
  Sys.remove path

let suite =
  [
    Alcotest.test_case "graph roundtrip" `Quick test_graph_roundtrip;
    Alcotest.test_case "graph roundtrip random" `Quick test_graph_roundtrip_random;
    Alcotest.test_case "graph empty" `Quick test_graph_empty;
    Alcotest.test_case "graph rejects garbage" `Quick test_graph_rejects_garbage;
    Alcotest.test_case "graph rejects bad edge" `Quick test_graph_rejects_bad_edge;
    Alcotest.test_case "graph rejects count mismatch" `Quick test_graph_rejects_count_mismatch;
    Alcotest.test_case "graph missing file" `Quick test_graph_missing_file;
    Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
    Alcotest.test_case "store threshold alpha" `Quick test_store_roundtrip_threshold;
    Alcotest.test_case "store norm roundtrip" `Quick test_store_norm_roundtrip;
    Alcotest.test_case "store rejects garbage" `Quick test_store_rejects_garbage;
    Alcotest.test_case "store rejects truncated" `Quick test_store_rejects_truncated;
  ]
