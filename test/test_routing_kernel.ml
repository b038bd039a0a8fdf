(* The specialised phi kernel against the closure reference.

   [Objective.argmax] scans a base CSR slice with phi inlined when the
   objective carries a kernel, and otherwise runs the scorer closure.
   Clearing the [kernel] field forces the closure path, so every case
   here routes twice and demands the same outcome (status, steps,
   visited, walk) and the same event stream, over norms x dims, plain
   and memoised objectives, a base CSR and a graph after [Graph.apply],
   a planted tie and the target as a neighbour.  Hub graphs do the same
   for rows the kernel reads through [Girg.Hub_index]. *)

open Greedy_routing
module G = Sparse_graph.Graph

let closure (o : Objective.t) = { o with Objective.kernel = None }

let protocols =
  [ Protocol.Greedy; Protocol.Patch_dfs; Protocol.Patch_history; Protocol.Gravity_pressure ]

(* One route's events without route ids, sequence numbers and times. *)
let event_line (ev : Obs.Events.event) =
  match ev.Obs.Events.payload with
  | Obs.Events.Route_hop { hop; vertex; objective; _ } ->
      Printf.sprintf "hop %d v=%d phi=%h" hop vertex objective
  | Obs.Events.Dead_end { vertex; _ } -> Printf.sprintf "dead_end v=%d" vertex
  | Obs.Events.Patch_enter { vertex; phi; _ } -> Printf.sprintf "patch_enter v=%d phi=%h" vertex phi
  | Obs.Events.Patch_exit { vertex; phi; _ } -> Printf.sprintf "patch_exit v=%d phi=%h" vertex phi
  | _ -> "other"

let with_recording f =
  let was = Obs.Events.recording () in
  Obs.Events.set_recording true;
  Fun.protect ~finally:(fun () -> Obs.Events.set_recording was) f

let traced protocol ~graph ~objective ~source =
  Obs.Events.clear ();
  let o = Protocol.run protocol ~graph ~objective ~source () in
  (o, List.map event_line (Obs.Events.events ()))

let check_same label protocol ~graph ~objective ~source =
  let a, ea = traced protocol ~graph ~objective ~source in
  let b, eb = traced protocol ~graph ~objective:(closure objective) ~source in
  let label = Printf.sprintf "%s %s s=%d" label (Protocol.name protocol) source in
  Alcotest.(check string)
    (label ^ " status")
    (Outcome.status_to_string b.Outcome.status)
    (Outcome.status_to_string a.Outcome.status);
  Alcotest.(check int) (label ^ " steps") b.Outcome.steps a.Outcome.steps;
  Alcotest.(check int) (label ^ " visited") b.Outcome.visited a.Outcome.visited;
  Alcotest.(check (list int)) (label ^ " walk") b.Outcome.walk a.Outcome.walk;
  Alcotest.(check (list string)) (label ^ " events") eb ea

(* Brute force over the merged adjacency with the scorer. *)
let reference (o : Objective.t) g v ~skip ~lo ~below =
  let phi = Objective.scorer o in
  fst
    (G.fold_neighbors g v ~init:(-1, neg_infinity) ~f:(fun (b, bs) u ->
         let s = phi u in
         let in_range = match below with None -> true | Some x -> s < x in
         if u <> skip && s >= lo && in_range && s > bs then (u, s) else (b, bs)))

let check_argmax label (o : Objective.t) g =
  let phi = Objective.scorer o in
  for v = 0 to G.n g - 1 do
    let nb = G.neighbors g v in
    let skip = if Array.length nb > 0 then nb.(0) else -1 in
    let mid = if Array.length nb > 0 then phi nb.(Array.length nb / 2) else 0.0 in
    List.iter
      (fun (skip, lo, below) ->
        let want = reference o g v ~skip ~lo ~below in
        List.iter
          (fun (path, o) ->
            let got =
              match below with
              | None -> Objective.argmax o g v ~skip ~lo
              | Some below -> Objective.argmax_below o g v ~skip ~lo ~below
            in
            if got <> want then
              Alcotest.failf "%s %s argmax at v=%d skip=%d lo=%h: got %d, want %d" label path v
                skip lo got want)
          [ ("kernel", o); ("closure", closure o) ])
      ([
         (-1, neg_infinity, None);
         (skip, neg_infinity, None);
         (-1, mid, None);
         (skip, neg_infinity, Some mid);
         (-1, mid, Some infinity);
       ]
      (* A range holding one float: the kernel finds [u] only if it
         computes phi(u) to the last bit. *)
      @ List.map (fun u -> (-1, phi u, Some (Float.succ (phi u)))) (Array.to_list nb))
  done

(* A handful of mutations: departures, dropped edges and added edges, so
   the mutated graph reads [Gone] and [Row] vertices beside [Base] ones. *)
let mutate g ~seed =
  let rng = Prng.Rng.create ~seed in
  let n = G.n g in
  let departed = Array.init (n / 20) (fun _ -> Prng.Rng.int rng n) in
  let ms = ref (Array.to_list (Array.map (fun v -> G.Remove_vertex v) departed)) in
  for _ = 1 to n / 10 do
    let u = Prng.Rng.int rng n in
    let nb = G.neighbors g u in
    if Array.length nb > 0 then ms := G.Remove_edge (u, nb.(Prng.Rng.int rng (Array.length nb))) :: !ms
  done;
  let g = G.apply g (List.rev !ms) in
  let adds = ref [] in
  for _ = 1 to n / 10 do
    let u = Prng.Rng.int rng n and v = Prng.Rng.int rng n in
    if u <> v && G.live g u && G.live g v then adds := G.Add_edge (u, v) :: !adds
  done;
  G.apply g (List.rev !adds)

let norms = [ ("linf", Geometry.Torus.Linf); ("l2", Geometry.Torus.L2); ("l1", Geometry.Torus.L1) ]

let test_girg_equivalence () =
  with_recording (fun () ->
      let memo = Objective.Memo.create () in
      List.iter
        (fun (nname, norm) ->
          List.iter
            (fun dim ->
              let params = Girg.Params.make ~dim ~norm ~beta:2.5 ~c:0.3 ~n:500 () in
              let inst = Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:(31 * dim)) params in
              let base = inst.Girg.Instance.graph in
              let mutated = mutate base ~seed:dim in
              let n = G.n base in
              let rng = Prng.Rng.create ~seed:(dim + 100) in
              for i = 1 to 6 do
                let s, t = Prng.Dist.sample_distinct_pair rng ~n in
                let plain = Objective.girg_phi inst ~target:t in
                Alcotest.(check bool) "girg_phi carries a kernel" true (plain.Objective.kernel <> None);
                List.iter
                  (fun (gname, graph) ->
                    let label = Printf.sprintf "%s d=%d %s" nname dim gname in
                    if i = 1 then check_argmax label plain graph;
                    List.iter
                      (fun protocol ->
                        check_same (label ^ " plain") protocol ~graph ~objective:plain ~source:s;
                        check_same (label ^ " memo") protocol ~graph
                          ~objective:(Objective.Memo.wrap memo ~n plain) ~source:s)
                      protocols)
                  [ ("base", base); ("mutated", mutated) ]
              done)
            [ 1; 2; 3 ])
        norms)

(* Six vertices with dyadic coordinates, so distances are exact: 0 is the
   target at the centre; the source 1 sees 2 and 3 at equal distance and
   weight (a tie on phi), and the farther 4; 2 is adjacent to the
   target.  The tie must go to 2, the smaller id. *)
let planted ~dim ~norm =
  let point x0 rest = Array.init dim (fun i -> if i = 0 then x0 else rest) in
  let positions =
    [| point 0.5 0.5; point 0.0625 0.0625; point 0.75 0.625; point 0.25 0.625;
       point 0.875 0.625; point 0.125 0.25 |]
  in
  let params = Girg.Params.make ~dim ~norm ~n:6 () in
  Girg.Instance.make ~params
    ~weights:[| 1.0; 1.0; 2.0; 2.0; 2.0; 1.0 |]
    ~packed:(Geometry.Torus.Packed.of_points ~dim positions)
    ~graph:(G.of_edge_list ~n:6 [ (1, 2); (1, 3); (1, 4); (2, 0); (3, 5) ])

let test_planted_tie_and_target () =
  with_recording (fun () ->
      List.iter
        (fun (nname, norm) ->
          List.iter
            (fun dim ->
              let inst = planted ~dim ~norm in
              let graph = inst.Girg.Instance.graph in
              let obj = Objective.girg_phi inst ~target:0 in
              let phi = Objective.scorer obj in
              let label = Printf.sprintf "%s d=%d" nname dim in
              Alcotest.(check bool) (label ^ " tie is exact") true (phi 2 = phi 3);
              List.iter
                (fun o ->
                  Alcotest.(check int) (label ^ " tie to smaller id") 2
                    (Objective.argmax o graph 1 ~skip:(-1) ~lo:neg_infinity);
                  Alcotest.(check int) (label ^ " target wins") 0
                    (Objective.argmax o graph 2 ~skip:(-1) ~lo:neg_infinity))
                [ obj; closure obj ];
              let r = Greedy.route ~graph ~objective:obj ~source:1 () in
              Alcotest.(check (list int)) (label ^ " greedy walk") [ 1; 2; 0 ] r.Outcome.walk;
              List.iter
                (fun protocol ->
                  check_same label protocol ~graph ~objective:obj ~source:1;
                  check_same label protocol ~graph ~objective:obj ~source:5)
                protocols)
            [ 1; 2; 3 ])
        norms)

(* Hub graphs: vertex 3 is adjacent to 608 = 19 x 32 vertices, so its
   row is indexed in 19 Morton blocks.  Vertex 0 sits at (1/2, ..) and
   is the target of the planted tie: 1 at (3/4, ..) and 2 at (1/4, ..)
   have the same weight and the same dyadic distance to it, and outweigh
   everything else, so the arg-max over the hub is the tie, and the tie
   goes to 1.  The 31 fillers 4..34 are the only other members with every
   coordinate at least 3/4: with 1 they fill the last Morton block, whose
   box then starts exactly at 1's coordinates, so that block's bound
   equals 1's score.  2 lies in an earlier block.  The other members are
   uniform outside that corner cell and at L∞ distance at least 0.05
   from 0.  [with_target] also joins the hub to 0, putting the target in
   the indexed row; a sparse random graph on everything else gives the
   protocols walks that cross the hub. *)
let hub_members = 608
let hub = 3

let hub_instance ~dim ~norm ~seed ~with_target =
  let rng = Prng.Rng.create ~seed in
  let n = hub_members + 4 in
  let corner x = Array.for_all (fun c -> c >= 0.75) x in
  let rec outside () =
    let x = Array.init dim (fun _ -> Prng.Rng.float rng 1.0) in
    if corner x || Array.for_all (fun c -> Geometry.Torus.coord_dist c 0.5 < 0.05) x then outside ()
    else x
  in
  let positions =
    Array.init n (fun v ->
        if v = 0 then Array.make dim 0.5
        else if v = 1 then Array.make dim 0.75
        else if v = 2 then Array.make dim 0.25
        else if v >= 4 && v <= 34 then Array.init dim (fun _ -> 0.75 +. Prng.Rng.float rng 0.25)
        else outside ())
  in
  let weights =
    Array.init n (fun v -> if v = 1 || v = 2 then 1e6 else 1.0 +. Prng.Rng.float rng 2.0)
  in
  let edges = ref [] in
  for v = 1 to n - 1 do
    if v <> hub then edges := (hub, v) :: !edges
  done;
  if with_target then edges := (hub, 0) :: !edges;
  for _ = 1 to 2 * n do
    let u = Prng.Rng.int rng n and v = Prng.Rng.int rng n in
    if u <> v && u <> hub && v <> hub then edges := (u, v) :: !edges
  done;
  let params = Girg.Params.make ~dim ~norm ~poisson_count:false ~n () in
  Girg.Instance.make ~params ~weights
    ~packed:(Geometry.Torus.Packed.of_points ~dim positions)
    ~graph:(G.of_edge_list ~n !edges)

(* The hub's arg-max against [reference] on both paths, over plain and
   memoised objectives: unrestricted; [skip] equal to the true best;
   [lo] at a member's score and above every member; [below] between
   members; and a one-float range around every fifth member.  [indexed]
   says whether the kernel must have read the index. *)
let check_hub label ~indexed (o : Objective.t) g =
  let phi = Objective.scorer o in
  let nb = G.neighbors g hub in
  let scores = Array.map phi nb in
  let top = Array.fold_left Float.max neg_infinity scores in
  let mid = scores.(Array.length nb / 3) in
  let best = reference o g hub ~skip:(-1) ~lo:neg_infinity ~below:None in
  let cases =
    [
      (-1, neg_infinity, None);
      (best, neg_infinity, None);
      (-1, mid, None);
      (-1, Float.succ top, None);
      (-1, neg_infinity, Some mid);
      (nb.(7), mid, Some top);
    ]
    @ List.filteri (fun i _ -> i mod 5 = 0)
        (Array.to_list (Array.map (fun s -> (-1, s, Some (Float.succ s))) scores))
  in
  let memo = Objective.Memo.wrap (Objective.Memo.create ()) ~n:(G.n g) o in
  List.iter
    (fun (skip, lo, below) ->
      let want = reference o g hub ~skip ~lo ~below in
      List.iter
        (fun (path, o) ->
          let got =
            match below with
            | None -> Objective.argmax o g hub ~skip ~lo
            | Some below -> Objective.argmax_below o g hub ~skip ~lo ~below
          in
          if got <> want then
            Alcotest.failf "%s %s hub argmax skip=%d lo=%h: got %d, want %d" label path skip lo got
              want;
          if path <> "closure" && indexed <> (Objective.last_bounds () > 0) then
            Alcotest.failf "%s %s: index read %b, want %b" label path (not indexed) indexed)
        [ ("kernel", o); ("memo", memo); ("closure", closure o) ])
    cases

let hub_targets = [ 0; 1; 2; 5; 40; 100; 300; 611 ]

let test_hub_rows () =
  List.iter
    (fun (nname, norm) ->
      List.iter
        (fun dim ->
          List.iter
            (fun with_target ->
              let inst = hub_instance ~dim ~norm ~seed:(17 * dim) ~with_target in
              let g = inst.Girg.Instance.graph in
              let label = Printf.sprintf "%s d=%d%s" nname dim (if with_target then " +t" else "") in
              let idx = Girg.Instance.hub_index inst in
              Alcotest.(check (array int)) (label ^ " one indexed row") [| hub |] idx.Girg.Hub_index.hubs;
              (* The tie: 1 in a later block than 2, and 1 wins. *)
              let block u =
                let k = ref 0 in
                while idx.Girg.Hub_index.members.(!k) <> u do incr k done;
                !k / Girg.Hub_index.block_size
              in
              Alcotest.(check bool) (label ^ " 1's block after 2's") true (block 1 > block 2);
              let o = Objective.girg_phi inst ~target:0 in
              Alcotest.(check bool) (label ^ " tie is exact") true (Objective.scorer o 1 = Objective.scorer o 2);
              Alcotest.(check int) (label ^ " tie to smaller id")
                (if with_target then 0 else 1)
                (Objective.argmax o g hub ~skip:(-1) ~lo:neg_infinity);
              Alcotest.(check int) (label ^ " skipping the best") (if with_target then 1 else 2)
                (Objective.argmax o g hub
                   ~skip:(if with_target then 0 else 1)
                   ~lo:neg_infinity);
              List.iter
                (fun t ->
                  let o = Objective.girg_phi inst ~target:t in
                  check_hub (Printf.sprintf "%s t=%d base" label t) ~indexed:true o g;
                  (* A changed hub row is scanned; a changed row elsewhere
                     leaves the hub on the index. *)
                  let dropped = G.apply g [ G.Remove_edge (hub, 5) ] in
                  check_hub (Printf.sprintf "%s t=%d hub row changed" label t) ~indexed:false o dropped;
                  let other = Array.find_opt (fun u -> u <> hub) (G.neighbors g 7) in
                  let elsewhere = G.apply g [ G.Remove_edge (7, Option.get other) ] in
                  check_hub (Printf.sprintf "%s t=%d other row changed" label t) ~indexed:true o elsewhere;
                  (* Compacted under the old index: the objective still
                     holds it, but it does not cover the new base. *)
                  let compacted = G.compact dropped in
                  check_hub (Printf.sprintf "%s t=%d compacted" label t) ~indexed:false o compacted;
                  let fresh = Girg.Instance.with_graph inst compacted in
                  check_hub (Printf.sprintf "%s t=%d re-indexed" label t) ~indexed:true
                    (Objective.girg_phi fresh ~target:t) compacted)
                hub_targets;
              with_recording (fun () ->
                  let memo = Objective.Memo.create () in
                  List.iter
                    (fun t ->
                      let plain = Objective.girg_phi inst ~target:t in
                      List.iter
                        (fun protocol ->
                          List.iter
                            (fun s ->
                              if s <> t then begin
                                check_same (label ^ " plain") protocol ~graph:g ~objective:plain ~source:s;
                                check_same (label ^ " memo") protocol ~graph:g
                                  ~objective:(Objective.Memo.wrap memo ~n:(G.n g) plain) ~source:s
                              end)
                            [ hub; 7; 250 ])
                        protocols)
                    [ 0; 40; 300 ]))
            [ false; true ])
        [ 1; 2; 3 ])
    norms

let test_other_objectives_have_no_kernel () =
  let inst = planted ~dim:2 ~norm:Geometry.Torus.Linf in
  let base = Objective.girg_phi inst ~target:0 in
  List.iter
    (fun (name, (o : Objective.t)) ->
      Alcotest.(check bool) (name ^ " has no kernel") true (o.Objective.kernel = None))
    [
      ("of_fun", Objective.of_fun ~name:"f" ~target:0 float_of_int);
      ( "geometric",
        Objective.geometric ~packed:inst.Girg.Instance.packed ~target:0 );
      ("noisy_factor", Objective.noisy_factor ~seed:1 ~spread:0.5 base);
      ("noisy_polynomial", Objective.noisy_polynomial ~seed:1 ~delta:0.5 ~weights:inst.weights base);
    ];
  Alcotest.(check bool) "memo keeps the kernel" true
    ((Objective.Memo.wrap (Objective.Memo.create ()) ~n:6 base).Objective.kernel <> None)

(* A scorer that runs a BFS uses the domain scratch from inside a Phi-DFS
   route that holds it: the inner call must fail, not corrupt the route. *)
let test_nested_route_fails_loudly () =
  let g = Test_greedy.random_graph ~seed:5 ~n:12 ~m:30 in
  let objective =
    Objective.of_fun ~name:"bfs" ~target:11 (fun v ->
        match Sparse_graph.Bfs.distance g ~source:v ~target:11 with
        | Some d -> -.float_of_int d
        | None -> neg_infinity)
  in
  (match Patch_dfs.route ~graph:g ~objective ~source:0 () with
  | _ -> Alcotest.fail "nested use of the domain scratch was accepted"
  | exception Failure _ -> ());
  let r = Patch_dfs.route ~graph:g ~objective:(Objective.of_fun ~name:"f" ~target:11 float_of_int) ~source:0 () in
  Alcotest.(check bool) "scratch released" true (r.Outcome.steps >= 0)

let suite =
  [
    Alcotest.test_case "nested scratch use in a route fails loudly" `Quick
      test_nested_route_fails_loudly;
    Alcotest.test_case "kernel = closure: norms x dims, base and mutated" `Quick
      test_girg_equivalence;
    Alcotest.test_case "kernel = closure: planted tie, target neighbour" `Quick
      test_planted_tie_and_target;
    Alcotest.test_case "indexed hub row = scan = reference: ties, target, skip, lo, below, apply, compact"
      `Quick test_hub_rows;
    Alcotest.test_case "only girg_phi (and its memo) carries a kernel" `Quick
      test_other_objectives_have_no_kernel;
  ]
