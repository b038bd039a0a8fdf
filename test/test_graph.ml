open Sparse_graph

let test_empty () =
  let g = Graph.of_edges ~n:5 [||] in
  Alcotest.(check int) "n" 5 (Graph.n g);
  Alcotest.(check int) "m" 0 (Graph.m g);
  for v = 0 to 4 do
    Alcotest.(check int) "degree 0" 0 (Graph.degree g v)
  done

let test_zero_vertices () =
  let g = Graph.of_edges ~n:0 [||] in
  Alcotest.(check int) "n" 0 (Graph.n g);
  Alcotest.(check (float 0.0)) "avg degree" 0.0 (Graph.avg_degree g)

let test_triangle () =
  let g = Graph.of_edge_list ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.(check int) "m" 3 (Graph.m g);
  Alcotest.(check (array int)) "nbrs of 0" [| 1; 2 |] (Graph.neighbors g 0);
  Alcotest.(check (array int)) "nbrs of 1" [| 0; 2 |] (Graph.neighbors g 1)

let test_self_loops_dropped () =
  let g = Graph.of_edge_list ~n:3 [ (0, 0); (1, 1); (0, 1) ] in
  Alcotest.(check int) "m" 1 (Graph.m g);
  Alcotest.(check int) "deg 0" 1 (Graph.degree g 0)

let test_duplicates_dropped () =
  let g = Graph.of_edge_list ~n:3 [ (0, 1); (1, 0); (0, 1); (0, 2) ] in
  Alcotest.(check int) "m" 2 (Graph.m g);
  Alcotest.(check (array int)) "nbrs of 0" [| 1; 2 |] (Graph.neighbors g 0)

let test_out_of_range_rejected () =
  Alcotest.check_raises "endpoint range"
    (Invalid_argument "Graph.of_edges: endpoint out of range") (fun () ->
      ignore (Graph.of_edge_list ~n:3 [ (0, 3) ]))

let test_has_edge () =
  let g = Graph.of_edge_list ~n:5 [ (0, 1); (2, 4); (1, 3) ] in
  Alcotest.(check bool) "0-1" true (Graph.has_edge g 0 1);
  Alcotest.(check bool) "1-0" true (Graph.has_edge g 1 0);
  Alcotest.(check bool) "2-4" true (Graph.has_edge g 2 4);
  Alcotest.(check bool) "0-2" false (Graph.has_edge g 0 2);
  Alcotest.(check bool) "no self" false (Graph.has_edge g 0 0)

let test_iter_edges_each_once () =
  let edges = [ (0, 1); (1, 2); (3, 4); (0, 4) ] in
  let g = Graph.of_edge_list ~n:5 edges in
  let seen = ref [] in
  Graph.iter_edges g (fun u v ->
      if u >= v then Alcotest.fail "iter_edges must give u < v";
      seen := (u, v) :: !seen);
  Alcotest.(check (list (pair int int)))
    "all edges once" (List.sort compare edges) (List.sort compare !seen)

let test_fold_and_exists () =
  let g = Graph.of_edge_list ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  let sum = Graph.fold_neighbors g 0 ~init:0 ~f:( + ) in
  Alcotest.(check int) "fold sum" 6 sum;
  Alcotest.(check bool) "exists" true (Graph.exists_neighbor g 0 (fun v -> v = 2));
  Alcotest.(check bool) "not exists" false (Graph.exists_neighbor g 1 (fun v -> v = 2))

let test_degrees_and_max () =
  let g = Graph.of_edge_list ~n:5 [ (0, 1); (0, 2); (0, 3); (0, 4); (1, 2) ] in
  Alcotest.(check int) "max degree" 4 (Graph.max_degree g);
  Alcotest.(check (float 1e-9)) "avg degree" 2.0 (Graph.avg_degree g)

(* Property: CSR construction agrees with a brute-force adjacency matrix on
   random multigraph inputs (self-loops and duplicates included). *)
let csr_vs_matrix_prop =
  QCheck2.Test.make ~name:"CSR equals adjacency matrix" ~count:200
    QCheck2.Gen.(
      let n = 8 in
      let edge = tup2 (int_bound (n - 1)) (int_bound (n - 1)) in
      list_size (int_bound 40) edge)
    (fun edges ->
      let n = 8 in
      let g = Graph.of_edge_list ~n edges in
      let matrix = Array.make_matrix n n false in
      List.iter
        (fun (u, v) ->
          if u <> v then begin
            matrix.(u).(v) <- true;
            matrix.(v).(u) <- true
          end)
        edges;
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Graph.has_edge g u v <> matrix.(u).(v) then ok := false
        done;
        let expected_deg =
          Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 matrix.(u)
        in
        if Graph.degree g u <> expected_deg then ok := false
      done;
      !ok)

let neighbors_sorted_prop =
  QCheck2.Test.make ~name:"adjacency slices sorted ascending" ~count:100
    QCheck2.Gen.(list_size (int_bound 60) (tup2 (int_bound 9) (int_bound 9)))
    (fun edges ->
      let g = Graph.of_edge_list ~n:10 edges in
      let ok = ref true in
      for v = 0 to 9 do
        let nbrs = Graph.neighbors g v in
        for k = 1 to Array.length nbrs - 1 do
          if nbrs.(k - 1) >= nbrs.(k) then ok := false
        done
      done;
      !ok)

let test_large_hub_sorting () =
  (* Exercise the comparison-sort path for long adjacency slices. *)
  let edges = Array.init 500 (fun i -> (0, 500 - i)) in
  let g = Graph.of_edges ~n:501 edges in
  let nbrs = Graph.neighbors g 0 in
  Alcotest.(check int) "hub degree" 500 (Array.length nbrs);
  for k = 1 to 499 do
    if nbrs.(k - 1) >= nbrs.(k) then Alcotest.fail "hub slice unsorted"
  done

(* --- of_flat_halves: identical CSR to of_edges ---------------------------- *)

let graphs_equal a b =
  Graph.n a = Graph.n b && Graph.m a = Graph.m b
  && begin
       let ok = ref true in
       for v = 0 to Graph.n a - 1 do
         if Graph.neighbors a v <> Graph.neighbors b v then ok := false
       done;
       !ok
     end

let flat_halves_vs_of_edges_prop =
  (* Random multisets including self-loops and duplicates: both constructors
     must drop them identically and produce the same CSR. *)
  QCheck.Test.make ~count:300 ~name:"of_flat_halves = of_edges"
    QCheck.(pair (int_range 1 12) (small_list (pair (int_range 0 11) (int_range 0 11))))
    (fun (n, edge_list) ->
      let edges =
        Array.of_list (List.filter (fun (u, v) -> u < n && v < n) edge_list)
      in
      let flat = Array.make (max 1 (2 * Array.length edges)) 0 in
      Array.iteri
        (fun i (u, v) ->
          flat.(2 * i) <- u;
          flat.((2 * i) + 1) <- v)
        edges;
      let a = Graph.of_edges ~n edges in
      let b = Graph.of_flat_halves ~n ~len:(2 * Array.length edges) flat in
      graphs_equal a b)

let test_flat_halves_validation () =
  Alcotest.check_raises "odd length"
    (Invalid_argument "Graph.of_flat_halves: odd length") (fun () ->
      ignore (Graph.of_flat_halves ~n:3 ~len:3 [| 0; 1; 2; 0 |]));
  Alcotest.check_raises "bad length"
    (Invalid_argument "Graph.of_flat_halves: bad length") (fun () ->
      ignore (Graph.of_flat_halves ~n:3 ~len:6 [| 0; 1 |]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.of_edges: endpoint out of range") (fun () ->
      ignore (Graph.of_flat_halves ~n:2 ~len:2 [| 0; 2 |]))

let test_flat_halves_ignores_tail () =
  (* Entries beyond [len] must not leak into the graph. *)
  let g = Graph.of_flat_halves ~n:4 ~len:2 [| 0; 1; 2; 3; 1; 2 |] in
  Alcotest.(check int) "m" 1 (Graph.m g);
  Alcotest.(check bool) "edge kept" true (Graph.has_edge g 0 1);
  Alcotest.(check bool) "tail dropped" false (Graph.has_edge g 2 3)

(* --- live mutation overlay ----------------------------------------- *)

let test_overlay_departure () =
  let g0 = Graph.of_edge_list ~n:4 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  let g1 = Graph.apply g0 [ Graph.Remove_vertex 1 ] in
  Alcotest.(check int) "epoch bumped" 1 (Graph.epoch g1);
  Alcotest.(check int) "base epoch unchanged" 0 (Graph.epoch g0);
  Alcotest.(check bool) "departed" false (Graph.live g1 1);
  Alcotest.(check int) "live count" 3 (Graph.live_count g1);
  Alcotest.(check int) "degree of departed" 0 (Graph.degree g1 1);
  Alcotest.(check (array int)) "departed iterates empty" [||] (Graph.neighbors g1 1);
  Alcotest.(check (array int)) "neighbour masked" [| 3 |] (Graph.neighbors g1 0);
  Alcotest.(check int) "m drops incident edges" 2 (Graph.m g1);
  (* The base graph is copy-on-write: untouched. *)
  Alcotest.(check int) "base m" 4 (Graph.m g0);
  Alcotest.(check (array int)) "base adjacency" [| 1; 3 |] (Graph.neighbors g0 0);
  let g2 = Graph.apply g1 [ Graph.Restore_vertex 1 ] in
  Alcotest.(check int) "restored live count" 4 (Graph.live_count g2);
  Alcotest.(check (array int)) "base edges back" [| 0; 2 |] (Graph.neighbors g2 1);
  Alcotest.(check int) "m restored" 4 (Graph.m g2)

let test_overlay_edges () =
  let g0 = Graph.of_edge_list ~n:5 [ (0, 1); (1, 2) ] in
  let g1 = Graph.apply g0 [ Graph.Remove_edge (0, 1); Graph.Add_edge (0, 4) ] in
  Alcotest.(check bool) "dropped" false (Graph.has_edge g1 0 1);
  Alcotest.(check bool) "dropped reverse" false (Graph.has_edge g1 1 0);
  Alcotest.(check bool) "added" true (Graph.has_edge g1 0 4);
  Alcotest.(check bool) "added reverse" true (Graph.has_edge g1 4 0);
  Alcotest.(check int) "m" 2 (Graph.m g1);
  (* Merged iteration stays ascending with overlay adds interleaved. *)
  let g2 = Graph.apply g1 [ Graph.Add_edge (0, 2); Graph.Add_edge (0, 3) ] in
  Alcotest.(check (array int)) "ascending merge" [| 2; 3; 4 |] (Graph.neighbors g2 0);
  (* Un-drop through Add_edge. *)
  let g3 = Graph.apply g2 [ Graph.Add_edge (1, 0) ] in
  Alcotest.(check (array int)) "undropped" [| 1; 2; 3; 4 |] (Graph.neighbors g3 0)

let test_overlay_departure_strips_overlay () =
  (* Overlay edges are lost for good on departure; restore brings back
     only the base edges. *)
  let g0 = Graph.of_edge_list ~n:4 [ (0, 1) ] in
  let g1 = Graph.apply g0 [ Graph.Add_edge (1, 3) ] in
  Alcotest.(check (array int)) "overlay present" [| 0; 3 |] (Graph.neighbors g1 1);
  let g2 = Graph.apply g1 [ Graph.Remove_vertex 1 ] in
  let g3 = Graph.apply g2 [ Graph.Restore_vertex 1 ] in
  Alcotest.(check (array int)) "base only after rejoin" [| 0 |] (Graph.neighbors g3 1)

let test_overlay_validation () =
  let g = Graph.of_edge_list ~n:3 [ (0, 1) ] in
  Alcotest.(check bool) "out of range raises" true
    (match Graph.apply g [ Graph.Remove_vertex 3 ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "self-loop add raises" true
    (match Graph.apply g [ Graph.Add_edge (1, 1) ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let departed = Graph.apply g [ Graph.Remove_vertex 2 ] in
  Alcotest.(check bool) "add to departed raises" true
    (match Graph.apply departed [ Graph.Add_edge (0, 2) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_explicit_epoch_batching () =
  let g0 = Graph.of_edge_list ~n:3 [ (0, 1) ] in
  let g1 = Graph.apply ~epoch:7 g0 [ Graph.Remove_edge (0, 1) ] in
  let g2 = Graph.apply ~epoch:7 g1 [ Graph.Add_edge (1, 2) ] in
  Alcotest.(check int) "same logical version" 7 (Graph.epoch g2)

(* The documented semantics of [Graph.apply], interpreted directly: base
   edges, departed vertices, dropped base edges and added (non-base)
   edges.  The merged view is every base edge that is not dropped and
   has both endpoints live, plus the added edges. *)
module Model = struct
  module S = Set.Make (struct
    type t = int * int

    let compare = compare
  end)

  type t = { base : S.t; gone : int list; dropped : S.t; added : S.t }

  let key u v = (min u v, max u v)
  let live s v = not (List.mem v s.gone)

  (* [None] when [Graph.apply] must raise on this mutation. *)
  let step s = function
    | Graph.Remove_vertex v ->
        if not (live s v) then Some s
        else
          Some
            {
              s with
              gone = v :: s.gone;
              added = S.filter (fun (a, b) -> a <> v && b <> v) s.added;
            }
    | Graph.Restore_vertex v -> Some { s with gone = List.filter (( <> ) v) s.gone }
    | Graph.Remove_edge (u, v) ->
        let e = key u v in
        if u = v || (not (live s u)) || not (live s v) then Some s
        else if S.mem e s.added then Some { s with added = S.remove e s.added }
        else if S.mem e s.base then Some { s with dropped = S.add e s.dropped }
        else Some s
    | Graph.Add_edge (u, v) ->
        let e = key u v in
        if u = v || (not (live s u)) || not (live s v) then None
        else if S.mem e s.dropped then Some { s with dropped = S.remove e s.dropped }
        else if S.mem e s.base then Some s
        else Some { s with added = S.add e s.added }

  let edges s =
    S.union s.added
      (S.filter
         (fun ((u, v) as e) -> live s u && live s v && not (S.mem e s.dropped))
         s.base)

  let neighbors s v =
    S.fold
      (fun (a, b) acc -> if a = v then b :: acc else if b = v then a :: acc else acc)
      (edges s) []
    |> List.sort compare |> Array.of_list
end

(* Batches of 1-8 mutations per [apply], drawn from few vertices so one
   batch often edits a vertex several times, checked after every batch
   against [Model]; [compact] must then be traversal-equivalent. *)
let compact_equivalence_prop =
  QCheck2.Test.make ~name:"compact equals overlay view" ~count:100
    QCheck2.Gen.(
      pair
        (pair (int_range 2 12) (list_size (int_bound 20) (pair (int_bound 11) (int_bound 11))))
        (list_size (int_bound 8)
           (list_size (int_range 1 8) (pair (int_bound 3) (pair (int_bound 11) (int_bound 11))))))
    (fun ((n, raw_edges), raw_batches) ->
      let edges =
        List.filter (fun (u, v) -> u < n && v < n && u <> v) raw_edges |> Array.of_list
      in
      let g0 = Graph.of_edges ~n edges in
      let base = Model.S.of_list (List.map (fun (u, v) -> Model.key u v) (Array.to_list edges)) in
      let s0 = { Model.base; gone = []; dropped = Model.S.empty; added = Model.S.empty } in
      let agrees g s =
        Graph.m g = Model.S.cardinal (Model.edges s)
        && Graph.live_count g = n - List.length s.Model.gone
        && List.for_all
             (fun v ->
               Graph.live g v = Model.live s v && Graph.neighbors g v = Model.neighbors s v)
             (List.init n Fun.id)
      in
      (* Keep the mutations the model accepts, in order, so a batch never
         holds one that [apply] would reject. *)
      let batch s raw =
        List.fold_left
          (fun (s, acc) (kind, (u, v)) ->
            if u >= n || v >= n then (s, acc)
            else
              let mu =
                match kind with
                | 0 -> Graph.Remove_vertex u
                | 1 -> Graph.Restore_vertex u
                | 2 -> Graph.Remove_edge (u, v)
                | _ -> Graph.Add_edge (u, v)
              in
              match Model.step s mu with Some s -> (s, mu :: acc) | None -> (s, acc))
          (s, []) raw
      in
      let ok, g, _ =
        List.fold_left
          (fun (ok, g, s) raw ->
            let s, rev = batch s raw in
            let g = Graph.apply g (List.rev rev) in
            (ok && agrees g s, g, s))
          (true, g0, s0) raw_batches
      in
      let c = Graph.compact g in
      ok
      && Graph.epoch c = Graph.epoch g
      && Graph.m c = Graph.m g
      && List.for_all
           (fun v -> Graph.neighbors c v = Graph.neighbors g v)
           (List.init n Fun.id))

(* An [apply] costs the pages and rows it writes, not the graph: one
   [Remove_edge] on 2^16 vertices, on a fresh graph and on one that
   already carries a delta, allocates under 64 KB. *)
let test_apply_cost () =
  let n = 1 lsl 16 in
  let g0 = Graph.of_edges ~n (Array.init n (fun v -> (v, (v + 1) mod n))) in
  let cost g mu =
    let a0 = Obs.Span.allocated_bytes () in
    let g' = Sys.opaque_identity (Graph.apply g [ mu ]) in
    (g', Obs.Span.allocated_bytes () -. a0)
  in
  let g1, fresh = cost g0 (Graph.Remove_edge (0, 1)) in
  let g2, delta = cost g1 (Graph.Remove_edge (n / 2, (n / 2) + 1)) in
  Alcotest.(check int) "both edges gone" (n - 2) (Graph.m g2);
  if fresh >= 65536. then Alcotest.failf "apply on a fresh graph allocated %.0f bytes" fresh;
  if delta >= 65536. then Alcotest.failf "apply over a delta allocated %.0f bytes" delta

let suite =
  [
    Alcotest.test_case "empty graph" `Quick test_empty;
    Alcotest.test_case "zero vertices" `Quick test_zero_vertices;
    Alcotest.test_case "triangle" `Quick test_triangle;
    Alcotest.test_case "self loops dropped" `Quick test_self_loops_dropped;
    Alcotest.test_case "duplicates dropped" `Quick test_duplicates_dropped;
    Alcotest.test_case "out of range rejected" `Quick test_out_of_range_rejected;
    Alcotest.test_case "has_edge" `Quick test_has_edge;
    Alcotest.test_case "iter_edges each once" `Quick test_iter_edges_each_once;
    Alcotest.test_case "fold/exists neighbors" `Quick test_fold_and_exists;
    Alcotest.test_case "degrees and max" `Quick test_degrees_and_max;
    QCheck_alcotest.to_alcotest csr_vs_matrix_prop;
    QCheck_alcotest.to_alcotest neighbors_sorted_prop;
    Alcotest.test_case "large hub sorting" `Quick test_large_hub_sorting;
    QCheck_alcotest.to_alcotest flat_halves_vs_of_edges_prop;
    Alcotest.test_case "flat halves validation" `Quick test_flat_halves_validation;
    Alcotest.test_case "flat halves ignores tail" `Quick test_flat_halves_ignores_tail;
    Alcotest.test_case "overlay departure and rejoin" `Quick test_overlay_departure;
    Alcotest.test_case "overlay edge drop/add" `Quick test_overlay_edges;
    Alcotest.test_case "departure strips overlay edges" `Quick
      test_overlay_departure_strips_overlay;
    Alcotest.test_case "overlay validation" `Quick test_overlay_validation;
    Alcotest.test_case "explicit epoch batching" `Quick test_explicit_epoch_batching;
    QCheck_alcotest.to_alcotest compact_equivalence_prop;
    Alcotest.test_case "apply cost is the rows it writes" `Quick test_apply_cost;
  ]
