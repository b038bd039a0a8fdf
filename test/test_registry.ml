open Experiments

let test_ids_unique_and_ordered () =
  let ids = List.map (fun e -> e.Registry.id) Registry.all in
  Alcotest.(check int) "eighteen experiments" 18 (List.length ids);
  Alcotest.(check (list string)) "expected ids"
    [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11"; "E12"; "E13"; "E14"; "E15"; "E16"; "E17"; "E18" ]
    ids

let test_find () =
  Alcotest.(check bool) "finds E3" true (Registry.find "E3" <> None);
  Alcotest.(check bool) "case insensitive" true (Registry.find "e7" <> None);
  Alcotest.(check bool) "unknown" true (Registry.find "E99" = None)

let test_claims_nonempty () =
  List.iter
    (fun e ->
      if String.length e.Registry.claim < 30 then
        Alcotest.failf "%s claim too short" e.Registry.id;
      if String.length e.Registry.title < 10 then
        Alcotest.failf "%s title too short" e.Registry.id)
    Registry.all

(* Smoke-run every experiment at Quick scale: tables must render, have a
   header, and at least one data row.  This doubles as an integration test
   of generators + protocols + workloads end to end, and the run's
   allocation is held to its budget (see test_golden.ml). *)
let smoke_run e () =
  let ctx = Context.make ~seed:7 ~scale:Context.Quick () in
  let tables, bytes = Test_golden.allocating (fun () -> e.Registry.run ctx) in
  Alcotest.(check bool) "at least one table" true (tables <> []);
  List.iter
    (fun t ->
      Alcotest.(check bool) "has columns" true (Stats.Table.columns t <> []);
      Alcotest.(check bool) "has rows" true (Stats.Table.rows t <> []);
      let rendered = Stats.Table.render t in
      Alcotest.(check bool) "renders" true (String.length rendered > 0);
      let csv = Stats.Table.to_csv t in
      Alcotest.(check bool) "csv" true (String.length csv > 0))
    tables;
  Test_golden.check_alloc e.Registry.id bytes

let test_run_and_render () =
  match Registry.find "E4" with
  | None -> Alcotest.fail "E4 missing"
  | Some e ->
      let ctx = Context.make ~seed:7 ~scale:Context.Quick () in
      let s = Registry.run_and_render e ctx in
      Alcotest.(check bool) "mentions id" true
        (String.length s > 0 && String.sub s 0 7 = "---- E4")

let test_context_pick_and_rng () =
  let q = Context.make ~scale:Context.Quick () in
  let s = Context.make ~scale:Context.Standard () in
  Alcotest.(check int) "quick" 1 (Context.pick q ~quick:1 ~standard:2);
  Alcotest.(check int) "standard" 2 (Context.pick s ~quick:1 ~standard:2);
  let a = Context.rng q ~salt:5 and b = Context.rng q ~salt:5 in
  Alcotest.(check int64) "same salt same stream" (Prng.Rng.bits64 a) (Prng.Rng.bits64 b);
  let c = Context.rng q ~salt:6 in
  Alcotest.(check bool) "different salt differs" true
    (Prng.Rng.bits64 (Context.rng q ~salt:5) <> Prng.Rng.bits64 c)

let suite =
  [
    Alcotest.test_case "ids unique and ordered" `Quick test_ids_unique_and_ordered;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "claims nonempty" `Quick test_claims_nonempty;
    Alcotest.test_case "run_and_render" `Quick test_run_and_render;
    Alcotest.test_case "context pick/rng" `Quick test_context_pick_and_rng;
  ]
  @ List.map
      (fun e ->
        Alcotest.test_case (Printf.sprintf "smoke %s" e.Registry.id) `Slow (smoke_run e))
      Registry.all
