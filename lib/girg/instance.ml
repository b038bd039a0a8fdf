type sampler = Auto | Use_naive | Use_cell

type t = {
  params : Params.t;
  weights : float array;
  packed : Geometry.Torus.Packed.t;
  graph : Sparse_graph.Graph.t;
  hubs : Hub_index.t option Atomic.t;
}

let make ~params ~weights ~packed ~graph = { params; weights; packed; graph; hubs = Atomic.make None }

(* The index reads only the base arrays, so a graph over the same base
   keeps it. *)
let with_graph t graph =
  if Sparse_graph.Graph.base_targets graph == Sparse_graph.Graph.base_targets t.graph then
    { t with graph }
  else make ~params:t.params ~weights:t.weights ~packed:t.packed ~graph

(* Built on first use and published with one compare-and-set: a domain
   that loses the race drops its copy and reads the winner's. *)
let hub_index t =
  match Atomic.get t.hubs with
  | Some h -> h
  | None ->
      let h = Hub_index.build ~weights:t.weights ~packed:t.packed t.graph in
      if Atomic.compare_and_set t.hubs None (Some h) then h
      else Option.get (Atomic.get t.hubs)

let threshold_n = 600

let c_instances = Obs.Metrics.counter "girg.instances"
let c_vertices = Obs.Metrics.counter "girg.vertices"
let c_edges = Obs.Metrics.counter "girg.edges_accepted"
let c_type1 = Obs.Metrics.counter "girg.cell.type1_pairs"
let c_type2 = Obs.Metrics.counter "girg.cell.type2_trials"
let c_cells = Obs.Metrics.counter "girg.cell.cells_visited"

let sample_weights ~rng ~params ~count =
  Array.init count (fun _ ->
      Prng.Dist.pareto rng ~x_min:params.Params.w_min ~exponent:params.Params.beta)

let sample_positions ~rng ~params ~count =
  Array.init count (fun _ -> Geometry.Torus.random_point rng ~dim:params.Params.dim)

let vertex_count ~rng ~params =
  if params.Params.poisson_count then
    Prng.Dist.poisson rng ~mean:(float_of_int params.Params.n)
  else params.Params.n

let generate_with ?(sampler = Auto) ?pool ~rng ~params ~weights ~positions () =
  let params = Params.validate_exn params in
  let count = Array.length weights in
  if Array.length positions <> count then invalid_arg "Instance.generate_with: length mismatch";
  let kernel = Kernel.girg params in
  let buf =
    Obs.Span.with_ ~name:"girg.sample_edges" (fun () ->
        let use_cell =
          match sampler with
          | Use_cell -> true
          | Use_naive -> false
          | Auto -> count > threshold_n
        in
        if use_cell then begin
          let buf, stats = Cell.sample_edges_buf_stats ?pool ~rng ~kernel ~weights ~positions () in
          Obs.Metrics.add c_type1 stats.Cell.type1_pairs;
          Obs.Metrics.add c_type2 stats.Cell.type2_trials;
          Obs.Metrics.add c_cells stats.Cell.cells_visited;
          buf
        end
        else Naive.sample_edges_buf ~rng ~kernel ~weights ~positions)
  in
  Obs.Metrics.incr c_instances;
  Obs.Metrics.add c_vertices count;
  Obs.Metrics.add c_edges (Edge_buf.length buf);
  let graph =
    Obs.Span.with_ ~name:"girg.build_graph" (fun () ->
        Sparse_graph.Graph.of_flat_halves ~n:count ~len:(Edge_buf.flat_len buf)
          (Edge_buf.flat buf))
  in
  let packed = Geometry.Torus.Packed.of_points ~dim:params.Params.dim positions in
  make ~params ~weights ~packed ~graph

type vertex_data = {
  count : int;
  v_weights : float array;
  v_positions : Geometry.Torus.point array;
  rng_edges : Prng.Rng.t;
}

(* The deterministic prefix of [generate]: split the caller's rng into the
   per-stage substreams and draw count/weights/positions.  Factored out so a
   shard process can reproduce, from (seed, params) alone, exactly the
   vertex data and edge-rng that single-process generation would use. *)
let derive_vertex_data ~rng params =
  let params = Params.validate_exn params in
  let rng_count = Prng.Rng.split rng in
  let rng_weights = Prng.Rng.split rng in
  let rng_positions = Prng.Rng.split rng in
  let rng_edges = Prng.Rng.split rng in
  let count = vertex_count ~rng:rng_count ~params in
  let v_weights =
    Obs.Span.with_ ~name:"girg.sample_weights" (fun () ->
        sample_weights ~rng:rng_weights ~params ~count)
  in
  let v_positions =
    Obs.Span.with_ ~name:"girg.sample_positions" (fun () ->
        sample_positions ~rng:rng_positions ~params ~count)
  in
  { count; v_weights; v_positions; rng_edges }

let generate ?(sampler = Auto) ?pool ~rng params =
  Obs.Span.with_ ~name:"girg.generate" (fun () ->
      let params = Params.validate_exn params in
      let vd = derive_vertex_data ~rng params in
      generate_with ~sampler ?pool ~rng:vd.rng_edges ~params ~weights:vd.v_weights
        ~positions:vd.v_positions ())

let generate_pinned ?(sampler = Auto) ?pool ~rng ~params ~pinned () =
  let params = Params.validate_exn params in
  List.iter
    (fun ((w : float), x) ->
      if w < params.Params.w_min then
        invalid_arg "Girg.generate_pinned: pinned weight below w_min";
      if Array.length x <> params.Params.dim then
        invalid_arg "Girg.generate_pinned: pinned position has wrong dimension")
    pinned;
  let rng_count = Prng.Rng.split rng in
  let rng_weights = Prng.Rng.split rng in
  let rng_positions = Prng.Rng.split rng in
  let rng_edges = Prng.Rng.split rng in
  let k = List.length pinned in
  let count = max k (vertex_count ~rng:rng_count ~params) in
  let weights = sample_weights ~rng:rng_weights ~params ~count in
  let positions = sample_positions ~rng:rng_positions ~params ~count in
  List.iteri
    (fun i (w, x) ->
      weights.(i) <- w;
      positions.(i) <- Array.copy x)
    pinned;
  generate_with ~sampler ?pool ~rng:rng_edges ~params ~weights ~positions ()

let connection_prob t u v =
  let dist = Geometry.Torus.Packed.dist_between_fn t.packed t.params.Params.norm u v in
  Kernel.girg_prob t.params ~wu:t.weights.(u) ~wv:t.weights.(v) ~dist

let expected_avg_weight (p : Params.t) = p.w_min *. (p.beta -. 1.0) /. (p.beta -. 2.0)
