open Sparse_graph

let path_graph n = Graph.of_edge_list ~n (List.init (n - 1) (fun i -> (i, i + 1)))

let random_graph ~seed ~n ~m =
  let rng = Prng.Rng.create ~seed in
  let edges =
    Array.init m (fun _ -> (Prng.Rng.int rng n, Prng.Rng.int rng n))
  in
  Graph.of_edges ~n edges

let test_distances_path () =
  let g = path_graph 6 in
  Alcotest.(check (array int)) "from 0" [| 0; 1; 2; 3; 4; 5 |] (Bfs.distances g ~source:0);
  Alcotest.(check (array int)) "from 3" [| 3; 2; 1; 0; 1; 2 |] (Bfs.distances g ~source:3)

let test_distances_disconnected () =
  let g = Graph.of_edge_list ~n:4 [ (0, 1) ] in
  Alcotest.(check (array int)) "unreachable -1" [| 0; 1; -1; -1 |] (Bfs.distances g ~source:0)

let test_single_pair () =
  let g = path_graph 10 in
  Alcotest.(check (option int)) "0-9" (Some 9) (Bfs.distance g ~source:0 ~target:9);
  Alcotest.(check (option int)) "same" (Some 0) (Bfs.distance g ~source:4 ~target:4);
  Alcotest.(check (option int)) "adjacent" (Some 1) (Bfs.distance g ~source:4 ~target:5)

let test_single_pair_disconnected () =
  let g = Graph.of_edge_list ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check (option int)) "disconnected" None (Bfs.distance g ~source:0 ~target:3)

let bidirectional_matches_full_prop =
  QCheck2.Test.make ~name:"bidirectional BFS = full BFS" ~count:150
    QCheck2.Gen.(
      tup3 (list_size (int_bound 40) (tup2 (int_bound 11) (int_bound 11)))
        (int_bound 11) (int_bound 11))
    (fun (edges, s, t) ->
      let g = Graph.of_edge_list ~n:12 edges in
      let full = (Bfs.distances g ~source:s).(t) in
      let expected = if full < 0 then None else Some full in
      Bfs.distance g ~source:s ~target:t = expected)

(* Many small components: vertices fall into blocks of 1 to 5, and edges
   join only vertices of one block, so most pairs are disconnected and
   each side of the bidirectional search runs dry at a different depth. *)
let small_components_match_full_prop =
  QCheck2.Test.make ~name:"many small components: bidirectional BFS = full BFS" ~count:100
    QCheck2.Gen.(
      tup3 (int_range 2 60) (int_range 1 5)
        (list_size (int_bound 80) (tup2 (int_bound 59) (int_bound 4))))
    (fun (n, block, raw) ->
      let edges =
        List.filter_map
          (fun (u, k) ->
            let u = u mod n in
            let v = ((u / block) * block) + (k mod block) in
            if v < n then Some (u, v) else None)
          raw
      in
      let g = Graph.of_edge_list ~n edges in
      List.for_all
        (fun s ->
          let full = Bfs.distances g ~source:s in
          List.for_all
            (fun t ->
              let expected = if full.(t) < 0 then None else Some full.(t) in
              Bfs.distance g ~source:s ~target:t = expected)
            (List.init n Fun.id))
        (List.init n Fun.id))

let test_eccentricity () =
  let g = path_graph 7 in
  Alcotest.(check int) "end" 6 (Bfs.eccentricity_lower_bound g ~source:0);
  Alcotest.(check int) "middle" 3 (Bfs.eccentricity_lower_bound g ~source:3)

let test_bidirectional_on_random_larger () =
  let g = random_graph ~seed:5 ~n:300 ~m:500 in
  let rng = Prng.Rng.create ~seed:6 in
  for _ = 1 to 100 do
    let s = Prng.Rng.int rng 300 and t = Prng.Rng.int rng 300 in
    let full = (Bfs.distances g ~source:s).(t) in
    let expected = if full < 0 then None else Some full in
    Alcotest.(check (option int)) "pair distance" expected (Bfs.distance g ~source:s ~target:t)
  done

(* --- the per-domain stamped scratch --------------------------------- *)

let test_scratch_epochs () =
  let s = Scratch.create () in
  Scratch.start s ~n:4;
  let e0 = Scratch.epoch s in
  Alcotest.(check bool) "first add stamps" true (Scratch.add s 2);
  Alcotest.(check bool) "second add is a no-op" false (Scratch.add s 2);
  Alcotest.(check bool) "mem" true (Scratch.mem s 2);
  List.iter (Scratch.push s) [ 5; 1; 5 ];
  Alcotest.(check (list int)) "trail in order" [ 5; 1; 5 ] (Scratch.trail s);
  Scratch.start s ~n:4;
  Alcotest.(check bool) "a new epoch forgets" false (Scratch.mem s 2);
  Alcotest.(check (list int)) "and empties the trail" [] (Scratch.trail s);
  Scratch.start s ~n:10;
  Alcotest.(check bool) "epochs only grow" true (Scratch.epoch s > e0 + 1);
  Alcotest.(check bool) "grown columns" true (Array.length (Scratch.ints s 3) >= 10);
  Alcotest.(check bool) "grown stamps" false (Scratch.mem s 9)

let test_scratch_nested_use () =
  let g = path_graph 8 in
  Scratch.with_domain ~n:8 (fun s ->
      ignore (Scratch.add s 3);
      (Scratch.ints s 0).(3) <- 42;
      (match Bfs.distance g ~source:0 ~target:7 with
      | _ -> Alcotest.fail "nested use of the domain scratch was accepted"
      | exception Failure _ -> ());
      Alcotest.(check bool) "outer stamp kept" true (Scratch.mem s 3);
      Alcotest.(check int) "outer slot kept" 42 (Scratch.ints s 0).(3));
  (try Scratch.with_domain ~n:8 (fun _ -> failwith "boom") with Failure _ -> ());
  Alcotest.(check (option int)) "released after return and raise" (Some 7)
    (Bfs.distance g ~source:0 ~target:7)

let suite =
  [
    Alcotest.test_case "scratch epochs and trail" `Quick test_scratch_epochs;
    Alcotest.test_case "scratch nested use fails loudly" `Quick test_scratch_nested_use;
    Alcotest.test_case "distances on a path" `Quick test_distances_path;
    Alcotest.test_case "distances disconnected" `Quick test_distances_disconnected;
    Alcotest.test_case "single pair" `Quick test_single_pair;
    Alcotest.test_case "single pair disconnected" `Quick test_single_pair_disconnected;
    QCheck_alcotest.to_alcotest bidirectional_matches_full_prop;
    QCheck_alcotest.to_alcotest small_components_match_full_prop;
    Alcotest.test_case "eccentricity lower bound" `Quick test_eccentricity;
    Alcotest.test_case "bidirectional on random graph" `Quick test_bidirectional_on_random_larger;
  ]
