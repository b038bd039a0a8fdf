(* Golden-run bit-identity: selected experiment tables and per-hop route
   events at a fixed seed must stay byte-identical across performance
   reworks of the scoring/routing/edge pipeline.  The committed fixtures
   under [golden/] were generated before the flat-hot-paths rework
   (SoA geometry + dense objective scorers + flat CSR construction), so
   any drift in emitted numbers — formulas, operation order, tie-breaks —
   fails here first.

   The allocation budgets in [golden/alloc_quick.txt] ("Allocation
   budget" below) are checked here and by test_registry.ml's smoke runs.

   Regenerate (only when an intentional output change lands) with:
     SMALLWORLD_GOLDEN_REGEN=/abs/path/to/test/golden \
       dune exec test/test_main.exe -- test 'golden|experiments.registry' *)

let regen_dir = Sys.getenv_opt "SMALLWORLD_GOLDEN_REGEN"

let fixture_path name =
  match regen_dir with Some d -> Filename.concat d name | None -> Filename.concat "golden" name

let read_fixture name =
  let path = fixture_path name in
  if Sys.file_exists path then Some (In_channel.with_open_bin path In_channel.input_all)
  else None

let check_or_regen ~name actual =
  match regen_dir with
  | Some _ ->
      Out_channel.with_open_bin (fixture_path name) (fun oc -> output_string oc actual);
      Printf.printf "regenerated %s (%d bytes)\n" name (String.length actual)
  | None -> begin
      match read_fixture name with
      | None -> Alcotest.failf "missing golden fixture %s (run with SMALLWORLD_GOLDEN_REGEN)" name
      | Some expected ->
          if String.equal expected actual then ()
          else begin
            (* Byte-identity failed: show the first differing line to make
               the drift debuggable without a binary diff. *)
            let lines_e = String.split_on_char '\n' expected in
            let lines_a = String.split_on_char '\n' actual in
            let rec first_diff i = function
              | e :: es, a :: as_ ->
                  if String.equal e a then first_diff (i + 1) (es, as_) else Some (i, e, a)
              | e :: _, [] -> Some (i, e, "<missing>")
              | [], a :: _ -> Some (i, "<missing>", a)
              | [], [] -> None
            in
            match first_diff 1 (lines_e, lines_a) with
            | Some (i, e, a) ->
                Alcotest.failf "golden %s: first drift at line %d\n  expected: %s\n  actual:   %s"
                  name i e a
            | None -> Alcotest.failf "golden %s: outputs differ" name
          end
    end

(* ------------------------------------------------------------------ *)
(* Allocation budget: the bytes each Quick-scale experiment, and each
   half of the text/binary snapshot-load pair, allocates, pinned one
   "ID BYTES" line per id in [golden/alloc_quick.txt].  Allocation is
   deterministic at a fixed seed, so a case fails only on a structural
   change (a hot path started boxing): more than twice its budget and
   more than 1 MB over it.  [Obs.Span.allocated_bytes] counts the calling
   domain alone, so the check runs only at jobs = 1.  The same
   SMALLWORLD_GOLDEN_REGEN run rewrites the budgets. *)

let alloc_file = "alloc_quick.txt"
let load_ids = [ "load/text"; "load/binary" ]
let budget_ids = List.map (fun e -> e.Experiments.Registry.id) Experiments.Registry.all @ load_ids
let alloc_gated () = Parallel.Global.jobs () = 1

let read_budgets () =
  match read_fixture alloc_file with
  | None -> []
  | Some contents ->
      String.split_on_char '\n' contents
      |> List.filter_map (fun line ->
             match String.split_on_char ' ' line with
             | [ "" ] -> None
             | [ id; bytes ] when int_of_string_opt bytes <> None -> Some (id, int_of_string bytes)
             | _ -> Alcotest.failf "%s: malformed line %S" alloc_file line)

let allocating f =
  let a0 = Obs.Span.allocated_bytes () in
  let r = f () in
  (r, Float.to_int (Obs.Span.allocated_bytes () -. a0))

let check_alloc id bytes =
  if not (alloc_gated ()) then
    Printf.printf "allocation check of %s skipped: jobs=%d, and only jobs=1 counts every byte\n"
      id (Parallel.Global.jobs ())
  else
    match regen_dir with
    | Some _ ->
        let budgets = (id, bytes) :: List.remove_assoc id (read_budgets ()) in
        List.filter_map
          (fun i -> Option.map (Printf.sprintf "%s %d\n" i) (List.assoc_opt i budgets))
          budget_ids
        |> String.concat ""
        |> check_or_regen ~name:alloc_file
    | None -> (
        match List.assoc_opt id (read_budgets ()) with
        | None ->
            Alcotest.failf "%s has no allocation budget in %s (run with SMALLWORLD_GOLDEN_REGEN)"
              id alloc_file
        | Some budget ->
            if bytes > 2 * budget && bytes - budget > 1_048_576 then
              Alcotest.failf "%s allocated %d bytes, over twice its budget of %d bytes (%s)" id
                bytes budget alloc_file)

(* The experiments are measured where test_registry.ml smoke-runs each
   of them.  One n=30000 instance loaded through the text and the binary
   codec completes the set: the binary loader's budget is a fraction of
   the text parser's, so a binary path that drifted toward parsing fails
   here. *)
let load_alloc_test () =
  if not (alloc_gated ()) then Alcotest.skip ();
  let params = Girg.Params.make ~dim:2 ~beta:2.5 ~c:0.15 ~n:30_000 () in
  let inst = Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:42) params in
  let text_path = Filename.temp_file "alloc-snap" ".girg" in
  let bin_path = Filename.temp_file "alloc-snap" ".girgb" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove text_path;
      Sys.remove bin_path)
    (fun () ->
      Girg.Store.save ~path:text_path inst;
      Girg.Store.save_binary ~path:bin_path inst;
      List.iter2
        (fun id path ->
          match allocating (fun () -> Girg.Store.load ~path) with
          | Ok _, bytes -> check_alloc id bytes
          | Error e, _ -> Alcotest.failf "%s: %s" path e)
        load_ids [ text_path; bin_path ])

(* No experiment can go ungated: the budget file names exactly the
   registry's ids and the two loads, in that order. *)
let alloc_coverage_test () =
  Alcotest.(check (list string))
    (alloc_file ^ " ids") budget_ids
    (List.map fst (read_budgets ()))

(* ------------------------------------------------------------------ *)
(* Experiment tables *)

let golden_experiments = [ "E4"; "E5"; "E6"; "E7"; "E8"; "E11"; "E15"; "E18" ]

let table_test id () =
  match Experiments.Registry.find id with
  | None -> Alcotest.failf "unknown experiment %s" id
  | Some e ->
      let ctx = Experiments.Context.make ~seed:42 ~scale:Experiments.Context.Quick () in
      let rendered = Experiments.Registry.run_and_render e ctx in
      check_or_regen ~name:(Printf.sprintf "tables_%s.txt" id) rendered

(* ------------------------------------------------------------------ *)
(* Route events: per-hop objective values along full routes, printed with
   %h so every bit of every emitted score is pinned. *)

let route_events_test () =
  if not Obs.Events.enabled then ()
  else begin
    let params = Girg.Params.make ~dim:2 ~beta:2.5 ~c:0.3 ~n:900 () in
    let inst = Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:7) params in
    let n = Sparse_graph.Graph.n inst.Girg.Instance.graph in
    let rng = Prng.Rng.create ~seed:8 in
    let buf = Buffer.create 4096 in
    let was_recording = Obs.Events.recording () in
    Obs.Events.set_recording true;
    List.iter
      (fun protocol ->
        for _ = 1 to 8 do
          let s, t = Prng.Dist.sample_distinct_pair rng ~n in
          Obs.Events.clear ();
          let objective = Greedy_routing.Objective.girg_phi inst ~target:t in
          let outcome =
            Greedy_routing.Protocol.run protocol ~graph:inst.Girg.Instance.graph ~objective
              ~source:s ()
          in
          Buffer.add_string buf
            (Printf.sprintf "%s s=%d t=%d status=%s steps=%d visited=%d\n"
               (Greedy_routing.Protocol.name protocol)
               s t
               (Greedy_routing.Outcome.status_to_string outcome.Greedy_routing.Outcome.status)
               outcome.steps outcome.visited);
          List.iter
            (fun (ev : Obs.Events.event) ->
              (* Route ids are process-global; the payload fields below are
                 what must stay bit-identical. *)
              match ev.Obs.Events.payload with
              | Obs.Events.Route_hop { hop; vertex; objective; _ } ->
                  Buffer.add_string buf (Printf.sprintf "  hop %d v=%d phi=%h\n" hop vertex objective)
              | Obs.Events.Dead_end { vertex; _ } ->
                  Buffer.add_string buf (Printf.sprintf "  dead_end v=%d\n" vertex)
              | Obs.Events.Patch_enter { vertex; phi; _ } ->
                  Buffer.add_string buf (Printf.sprintf "  patch_enter v=%d phi=%h\n" vertex phi)
              | Obs.Events.Patch_exit { vertex; phi; _ } ->
                  Buffer.add_string buf (Printf.sprintf "  patch_exit v=%d phi=%h\n" vertex phi)
              | Obs.Events.Phase_switch { vertex; phase; _ } ->
                  Buffer.add_string buf (Printf.sprintf "  phase v=%d %s\n" vertex phase)
              | _ -> ())
            (Obs.Events.events ())
        done)
      [ Greedy_routing.Protocol.Greedy; Greedy_routing.Protocol.Patch_dfs;
        Greedy_routing.Protocol.Gravity_pressure ];
    Obs.Events.clear ();
    Obs.Events.set_recording was_recording;
    check_or_regen ~name:"events_routes.txt" (Buffer.contents buf)
  end

(* Routing results records over a workload batch: counts plus every
   per-route float, printed with %h. *)
let workload_results_test () =
  let params = Girg.Params.make ~dim:2 ~beta:2.6 ~c:0.2 ~n:1200 () in
  let inst = Girg.Instance.generate ~rng:(Prng.Rng.create ~seed:21) params in
  let graph = inst.Girg.Instance.graph in
  let rng = Prng.Rng.create ~seed:22 in
  let pairs = Experiments.Workload.sample_pairs_giant ~rng ~graph ~count:60 in
  let buf = Buffer.create 2048 in
  List.iter
    (fun protocol ->
      let res =
        Experiments.Workload.run ~graph
          ~objective_for:(fun ~target -> Greedy_routing.Objective.girg_phi inst ~target)
          ~protocol ~with_stretch:true ~pairs ()
      in
      Buffer.add_string buf
        (Printf.sprintf "%s attempted=%d delivered=%d dead_end=%d exhausted=%d cutoff=%d\n"
           (Greedy_routing.Protocol.name protocol)
           res.Experiments.Workload.attempted res.delivered res.dead_end res.exhausted res.cutoff);
      let dump label arr =
        Buffer.add_string buf (Printf.sprintf "  %s:" label);
        Array.iter (fun x -> Buffer.add_string buf (Printf.sprintf " %h" x)) arr;
        Buffer.add_char buf '\n'
      in
      dump "steps" res.steps;
      dump "visited" res.visited;
      dump "stretches" res.stretches)
    [ Greedy_routing.Protocol.Greedy; Greedy_routing.Protocol.Patch_dfs;
      Greedy_routing.Protocol.Patch_history; Greedy_routing.Protocol.Gravity_pressure ];
  check_or_regen ~name:"workload_results.txt" (Buffer.contents buf)

let suite =
  List.map
    (fun id -> Alcotest.test_case (Printf.sprintf "tables %s byte-identical" id) `Slow (table_test id))
    golden_experiments
  @ [
      Alcotest.test_case "route events byte-identical" `Slow route_events_test;
      Alcotest.test_case "workload results byte-identical" `Slow workload_results_test;
      Alcotest.test_case "allocation of snapshot loads within budget" `Slow load_alloc_test;
      Alcotest.test_case "allocation budget covers every experiment" `Quick alloc_coverage_test;
    ]
