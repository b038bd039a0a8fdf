(* A synthetic Milgram letter experiment (Sections 1-2 of the paper).

   A GIRG plays the role of the acquaintance network: positions model
   geography/occupation, weights model how connected a person is.  Every
   participant forwards the letter to the acquaintance most likely to know
   the target (the objective phi) and gives up at a dead end — exactly
   Milgram's protocol, where ~29% of the letters arrived after ~6 hops.

     dune exec examples/milgram.exe                                         *)

let () =
  let rng = Prng.Rng.create ~seed:1967 in
  (* A "society" of 200k people, realistically sparse. *)
  let params = Girg.Params.make ~n:200_000 ~dim:2 ~beta:2.5 ~c:0.1 ~w_min:0.7 () in
  let inst = Girg.Instance.generate ~rng params in
  let graph = inst.graph in
  Printf.printf "society: %d people, %d acquaintance ties (avg %.1f per person)\n\n"
    (Sparse_graph.Graph.n graph) (Sparse_graph.Graph.m graph)
    (Sparse_graph.Graph.avg_degree graph);

  let letters = 500 in
  let n = Sparse_graph.Graph.n graph in
  let chain_lengths = ref [] in
  let delivered = ref 0 in
  for _ = 1 to letters do
    let source, target = Prng.Dist.sample_distinct_pair rng ~n in
    let objective = Greedy_routing.Objective.girg_phi inst ~target in
    let outcome = Greedy_routing.Greedy.route ~graph ~objective ~source () in
    if Greedy_routing.Outcome.delivered outcome then begin
      incr delivered;
      chain_lengths := float_of_int outcome.steps :: !chain_lengths
    end
  done;

  Printf.printf "letters sent:      %d\n" letters;
  Printf.printf "letters delivered: %d (%.0f%%; Milgram saw ~29%%, theory says Omega(1))\n"
    !delivered
    (100.0 *. float_of_int !delivered /. float_of_int letters);
  (match !chain_lengths with
  | [] -> print_endline "no chains completed"
  | lengths ->
      let s = Stats.Summary.of_list lengths in
      Printf.printf "chain length:      mean %.1f, median %.0f, p95 %.0f (six degrees!)\n\n"
        s.Stats.Summary.mean s.Stats.Summary.median s.Stats.Summary.p95;
      (* Slot l-1 counts chains of l hops; longer chains share the last. *)
      let counts = Array.make 12 0 in
      List.iter
        (fun l ->
          let i = min 11 (int_of_float l - 1) in
          counts.(i) <- counts.(i) + 1)
        lengths;
      let widest = Array.fold_left max 1 counts in
      print_endline "chain length distribution:";
      Array.iteri
        (fun i c ->
          if c > 0 then
            Printf.printf "[%10.4g, %10.4g) %7d %s\n"
              (float_of_int i +. 0.5) (float_of_int i +. 1.5) c
              (String.make (c * 40 / widest) '#'))
        counts);

  (* Lost letters are not lost causes: the same local information plus
     backtracking (Theorem 3.4) delivers every letter whose sender and
     addressee are socially connected at all. *)
  let patched = ref 0 and attempts = ref 0 in
  let comps = Sparse_graph.Components.compute graph in
  for _ = 1 to 100 do
    let source, target = Prng.Dist.sample_distinct_pair rng ~n in
    if Sparse_graph.Components.same comps source target then begin
      incr attempts;
      let objective = Greedy_routing.Objective.girg_phi inst ~target in
      let outcome = Greedy_routing.Patch_history.route ~graph ~objective ~source () in
      if Greedy_routing.Outcome.delivered outcome then incr patched
    end
  done;
  Printf.printf "\nwith backtracking (history patching): %d/%d connected pairs delivered\n"
    !patched !attempts
