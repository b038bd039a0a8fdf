type address = { id : int; weight : float; position : Geometry.Torus.point }

type config = { dim : int; denom : float }

type t = { config : config; self : address; neighbors : address array }

let of_instance (inst : Girg.Instance.t) =
  let p = inst.params in
  let config =
    {
      dim = p.Girg.Params.dim;
      denom = p.Girg.Params.w_min *. float_of_int p.Girg.Params.n;
    }
  in
  (* One address per vertex, built once (with its point copied out of the
     packed store) and shared by every view that names it. *)
  let addresses =
    Array.init (Array.length inst.weights) (fun v ->
        { id = v; weight = inst.weights.(v); position = Geometry.Torus.Packed.get inst.packed v })
  in
  Array.map
    (fun self ->
      {
        config;
        self;
        neighbors =
          Array.map (Array.get addresses) (Sparse_graph.Graph.neighbors inst.graph self.id);
      })
    addresses

let phi view addr ~target =
  if addr.id = target.id then infinity
  else begin
    let dist = Geometry.Torus.dist_linf addr.position target.position in
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
