let err_bad fmt =
  Printf.ksprintf (fun message -> Error { Error.code = Error.Bad_request; message }) fmt

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

(* This is the byte-level contract of the route API: the daemon's
   [text] field and [graphs_cli route]'s stdout are both exactly this
   string.  Any change here is a visible protocol change. *)
let route_text ~protocol ~(outcome : Greedy_routing.Outcome.t) ~shortest =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "%s: %s\n"
       (Greedy_routing.Protocol.name protocol)
       (Greedy_routing.Outcome.to_string outcome));
  if List.length outcome.walk <= 50 then
    Buffer.add_string buf
      (Printf.sprintf "walk: %s\n"
         (String.concat " -> " (List.map string_of_int outcome.walk)))
  else Buffer.add_string buf (Printf.sprintf "walk: (%d hops, omitted)\n" outcome.steps);
  (match shortest with
  | Some d when d > 0 && Greedy_routing.Outcome.delivered outcome ->
      Buffer.add_string buf
        (Printf.sprintf "shortest path: %d hops (stretch %.3f)\n" d
           (float_of_int outcome.steps /. float_of_int d))
  | Some d -> Buffer.add_string buf (Printf.sprintf "shortest path: %d hops\n" d)
  | None -> Buffer.add_string buf "source and target are disconnected\n");
  Buffer.contents buf

let check_vertices ~n pairs =
  let bad =
    Array.exists (fun (s, t) -> s < 0 || s >= n || t < 0 || t >= n) pairs
  in
  if bad then err_bad "vertices must lie in [0, %d)" n else Ok ()

let reply_of_outcome ~protocol ~source ~target ~(outcome : Greedy_routing.Outcome.t)
    ~shortest =
  {
    V1.source;
    target;
    status = outcome.status;
    steps = outcome.steps;
    visited = outcome.visited;
    shortest;
    text = route_text ~protocol ~outcome ~shortest;
  }

let route ~(inst : Girg.Instance.t) ~protocol ?max_steps ~source ~target () =
  let n = Sparse_graph.Graph.n inst.graph in
  if source < 0 || source >= n || target < 0 || target >= n then
    err_bad "vertices must lie in [0, %d)" n
  else
    let objective = Greedy_routing.Objective.girg_phi inst ~target in
    let outcome =
      Greedy_routing.Protocol.run protocol ~graph:inst.graph ~objective ~source ?max_steps ()
    in
    let shortest =
      Obs.Span.with_ ~name:"route.bfs" @@ fun () ->
      Sparse_graph.Bfs.distance inst.graph ~source ~target
    in
    Ok (reply_of_outcome ~protocol ~source ~target ~outcome ~shortest)

let route_batch ?pool ~(inst : Girg.Instance.t) ~protocol ?max_steps ~pairs () =
  let n = Sparse_graph.Graph.n inst.graph in
  match check_vertices ~n pairs with
  | Error e -> Error e
  | Ok () ->
      let pool = match pool with Some p -> p | None -> Parallel.Global.get () in
      let graph = inst.graph in
      let one i =
        let source, target = pairs.(i) in
        let objective =
          Experiments.Workload.memoized ~n (Greedy_routing.Objective.girg_phi inst ~target)
        in
        let outcome =
          Greedy_routing.Protocol.run protocol ~graph ~objective ~source ?max_steps ()
        in
        let shortest = Sparse_graph.Bfs.distance graph ~source ~target in
        reply_of_outcome ~protocol ~source ~target ~outcome ~shortest
      in
      Ok (Array.to_list (Parallel.Pool.map pool ~n:(Array.length pairs) one))

let resolve_pairs ~(inst : Girg.Instance.t) = function
  | V1.Pairs ps ->
      let pairs = Array.of_list ps in
      let* () = check_vertices ~n:(Sparse_graph.Graph.n inst.graph) pairs in
      Ok pairs
  | V1.Drawn { count; pair_seed; pool } ->
      if count < 0 then err_bad "pair count must be non-negative, got %d" count
      else if Sparse_graph.Graph.n inst.graph < 2 then
        err_bad "instance has fewer than two vertices; cannot sample pairs"
      else
        let rng = Prng.Rng.create ~seed:pair_seed in
        Ok
          (match pool with
          | V1.Any ->
              Experiments.Workload.sample_pairs_any ~rng
                ~n:(Sparse_graph.Graph.n inst.graph) ~count
          | V1.Giant ->
              Experiments.Workload.sample_pairs_giant ~rng ~graph:inst.graph ~count)

let instantiate ~model ~seed =
  let rng = Prng.Rng.create ~seed in
  match model with
  | V1.Girg params -> Girg.Instance.generate ~rng params
  | V1.Hrg p ->
      let h = Hyperbolic.Hrg.generate ~rng p in
      (* The GIRG equivalence of Section 11: the stored kernel
         parameters describe the equivalent GIRG, and phi on that
         instance orders vertices like the hyperbolic objective. *)
      let girg_params =
        Girg.Params.make ~dim:1
          ~beta:(Float.min 2.999 (Hyperbolic.Hrg.beta p))
          ~w_min:(exp (-.p.radius_c /. 2.0))
          ~alpha:
            (if p.temperature = 0.0 then Girg.Params.Infinite
             else Girg.Params.Finite (1.0 /. p.temperature))
          ~poisson_count:false ~n:p.n ()
      in
      Girg.Instance.make ~params:girg_params ~weights:h.weights ~packed:h.packed ~graph:h.graph
  | V1.Kleinberg p ->
      let lat = Kleinberg.Lattice.generate ~rng p in
      let side = p.side in
      let n = side * side in
      let centres = Array.make (2 * n) 0.0 in
      for v = 0 to n - 1 do
        let a, b = Kleinberg.Lattice.coords p v in
        centres.(2 * v) <- (float_of_int a +. 0.5) /. float_of_int side;
        centres.((2 * v) + 1) <- (float_of_int b +. 0.5) /. float_of_int side
      done;
      let girg_params =
        Girg.Params.make ~dim:2 ~beta:2.5 ~w_min:1.0 ~alpha:Girg.Params.Infinite
          ~poisson_count:false ~n ()
      in
      Girg.Instance.make ~params:girg_params ~weights:(Array.make n 1.0)
        ~packed:(Geometry.Torus.Packed.of_flat ~dim:2 centres) ~graph:lat.graph

let instance_info ~name (inst : Girg.Instance.t) =
  {
    V1.name;
    params = Girg.Params.to_string inst.params;
    vertices = Sparse_graph.Graph.n inst.graph;
    edges = Sparse_graph.Graph.m inst.graph;
  }

let stats (inst : Girg.Instance.t) =
  let g = inst.graph in
  let comps = Sparse_graph.Components.compute g in
  {
    V1.params = Girg.Params.to_string inst.params;
    vertices = Sparse_graph.Graph.n g;
    edges = Sparse_graph.Graph.m g;
    avg_degree = Sparse_graph.Graph.avg_degree g;
    max_degree = Sparse_graph.Graph.max_degree g;
    components = Sparse_graph.Components.count comps;
    giant = Sparse_graph.Components.giant_size comps;
  }
