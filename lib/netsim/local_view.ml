type address = { id : int; weight : float; position : Geometry.Torus.point }

type config = { dim : int; norm : Geometry.Torus.norm; denom : float }

type t = { config : config; self : address; neighbors : address array }

let config (inst : Girg.Instance.t) =
  let p = inst.params in
  {
    dim = p.Girg.Params.dim;
    norm = p.Girg.Params.norm;
    denom = p.Girg.Params.w_min *. float_of_int p.Girg.Params.n;
  }

let address (inst : Girg.Instance.t) v =
  { id = v; weight = inst.weights.(v); position = Geometry.Torus.Packed.get inst.packed v }

let view config (inst : Girg.Instance.t) v =
  {
    config;
    self = address inst v;
    neighbors = Array.map (address inst) (Sparse_graph.Graph.neighbors inst.graph v);
  }

(* The operations of Objective.girg_phi in its order: [Torus.dist_fn]
   computes the same floats as the packed kernels, and [dist ** d] is
   spelled out as products for d <= 3. *)
let phi view addr ~target =
  if addr.id = target.id then infinity
  else begin
    let dist = Geometry.Torus.dist_fn view.config.norm addr.position target.position in
    let dist_d =
      match view.config.dim with
      | 1 -> dist
      | 2 -> dist *. dist
      | 3 -> dist *. dist *. dist
      | d -> dist ** float_of_int d
    in
    addr.weight /. (view.config.denom *. dist_d)
  end

let best_neighbor view ~target =
  Array.fold_left
    (fun acc addr ->
      let s = phi view addr ~target in
      match acc with
      | Some (_, best) when best >= s -> acc
      | Some _ | None -> Some (addr, s))
    None view.neighbors
