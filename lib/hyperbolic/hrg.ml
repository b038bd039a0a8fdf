type params = { n : int; alpha_h : float; radius_c : float; temperature : float }

let make ?(alpha_h = 0.75) ?(radius_c = 0.0) ?(temperature = 0.0) ~n () =
  if n < 1 then invalid_arg "Hrg.make: n must be >= 1";
  if not (alpha_h > 0.5 && alpha_h < 1.0) then
    invalid_arg "Hrg.make: alpha_h must lie in (1/2, 1) for beta in (2, 3)";
  if not (temperature >= 0.0 && temperature < 1.0) then
    invalid_arg "Hrg.make: temperature must lie in [0, 1)";
  { n; alpha_h; radius_c; temperature }

let disk_radius p = (2.0 *. log (float_of_int p.n)) +. p.radius_c

type polar = { r : float; angle : float }

let acosh x = log (x +. sqrt ((x -. 1.0) *. (x +. 1.0)))

let sample_polar ~rng p =
  let big_r = disk_radius p in
  let angle = Prng.Rng.float rng (2.0 *. Float.pi) in
  (* Inverse-CDF of the radial density: F(r) = (cosh(a r) - 1)/(cosh(a R) - 1). *)
  let u = Prng.Rng.unit_float_pos rng in
  let r = acosh (1.0 +. (u *. (cosh (p.alpha_h *. big_r) -. 1.0))) /. p.alpha_h in
  { r; angle }

let sample_points ~rng p ~count = Array.init count (fun _ -> sample_polar ~rng p)

let distance a b =
  let dangle =
    let d = abs_float (a.angle -. b.angle) in
    if d > Float.pi then (2.0 *. Float.pi) -. d else d
  in
  let ch = cosh (a.r -. b.r) +. ((1.0 -. cos dangle) *. sinh a.r *. sinh b.r) in
  acosh (Float.max 1.0 ch)

let edge_prob p d_h =
  let big_r = disk_radius p in
  if p.temperature = 0.0 then if d_h <= big_r then 1.0 else 0.0
  else begin
    let x = (d_h -. big_r) /. (2.0 *. p.temperature) in
    (* Guard against overflow of [exp]. *)
    if x > 700.0 then 0.0 else 1.0 /. (1.0 +. exp x)
  end

let beta p = (2.0 *. p.alpha_h) +. 1.0

let girg_weight p ~r = float_of_int p.n *. exp (-.r /. 2.0)

let girg_position (pt : polar) = [| pt.angle /. (2.0 *. Float.pi) |]

let girg_packed coords =
  Geometry.Torus.Packed.of_flat ~dim:1 (Array.map (fun pt -> pt.angle /. (2.0 *. Float.pi)) coords)

let polar_of_girg p ~weight ~position =
  { r = 2.0 *. log (float_of_int p.n /. weight); angle = position.(0) *. 2.0 *. Float.pi }

(* Envelope derivation (valid for radii >= 1, i.e. weights <= n e^{-1/2}):
   with [Q = w_u w_v / (n * dist)],
     e^{d_H - R} >= e^{-C} / Q^2,
   because [cosh d_H >= (1 - cos(2 pi dist)) sinh r_u sinh r_v >= dist^2
   e^{r_u + r_v}]  (using 1 - cos t >= 2 t^2 / pi^2 on [0, pi] and
   sinh r >= 0.432 e^r for r >= 1, whose product of constants exceeds 1).
   Hence  p <= e^{-(d_H - R)/(2T)} <= e^{C/(2T)} Q^{1/T}  for T > 0,
   and in the threshold case an edge requires Q >= e^{-C/2}. *)
let kernel p =
  let nf = float_of_int p.n in
  let prob ~wu ~wv ~dist =
    let a = { r = 2.0 *. log (nf /. wu); angle = 0.0 } in
    let b = { r = 2.0 *. log (nf /. wv); angle = 2.0 *. Float.pi *. dist } in
    edge_prob p (distance a b)
  in
  let upper ~wu_ub ~wv_ub ~min_dist =
    if min_dist <= 0.0 then 1.0
    else begin
      let q = wu_ub *. wv_ub /. (nf *. min_dist) in
      if p.temperature = 0.0 then
        if q >= exp (-.p.radius_c /. 2.0) then 1.0 else 0.0
      else begin
        let bound = exp (p.radius_c /. (2.0 *. p.temperature)) *. (q ** (1.0 /. p.temperature)) in
        Float.min 1.0 bound
      end
    end
  in
  let saturation_volume ~wu_ub ~wv_ub =
    wu_ub *. wv_ub *. Float.max 1.0 (exp (p.radius_c /. 2.0)) /. nf
  in
  {
    Girg.Kernel.name =
      Printf.sprintf "hrg(n=%d, alpha_h=%g, C=%g, T=%g)" p.n p.alpha_h p.radius_c
        p.temperature;
    dim = 1;
    norm = Geometry.Torus.Linf;
    prob;
    prob_packed = None;
    upper;
    saturation_volume;
    weight_cap = nf *. exp (-0.5);
  }

type t = {
  params : params;
  coords : polar array;
  packed_coords : float array;
  weights : float array;
  packed : Geometry.Torus.Packed.t;
  graph : Sparse_graph.Graph.t;
}

let pack_coords coords =
  let n = Array.length coords in
  let packed = Array.make (max 1 (2 * n)) 0.0 in
  for v = 0 to n - 1 do
    packed.(2 * v) <- coords.(v).r;
    packed.((2 * v) + 1) <- coords.(v).angle
  done;
  packed

type sampler = Auto | Use_naive | Use_cell

let generate ?(sampler = Auto) ~rng p =
  let rng_points = Prng.Rng.split rng in
  let rng_edges = Prng.Rng.split rng in
  let coords = sample_points ~rng:rng_points p ~count:p.n in
  let weights = Array.map (fun pt -> girg_weight p ~r:pt.r) coords in
  let use_cell =
    match sampler with Use_cell -> true | Use_naive -> false | Auto -> p.n > 600
  in
  let buf =
    if use_cell then
      fst
        (Girg.Cell.sample_edges_buf_stats ~rng:rng_edges ~kernel:(kernel p) ~weights
           ~positions:(Array.map girg_position coords) ())
    else begin
      (* Native reference: all pairs with the hyperbolic distance directly. *)
      let buf = Girg.Edge_buf.create () in
      for u = 0 to p.n - 1 do
        for v = u + 1 to p.n - 1 do
          let pr = edge_prob p (distance coords.(u) coords.(v)) in
          if pr > 0.0 && (pr >= 1.0 || Prng.Rng.unit_float rng_edges < pr) then
            Girg.Edge_buf.push buf u v
        done
      done;
      buf
    end
  in
  let graph =
    Sparse_graph.Graph.of_flat_halves ~n:p.n ~len:(Girg.Edge_buf.flat_len buf)
      (Girg.Edge_buf.flat buf)
  in
  {
    params = p;
    coords;
    packed_coords = pack_coords coords;
    weights;
    packed = girg_packed coords;
    graph;
  }
