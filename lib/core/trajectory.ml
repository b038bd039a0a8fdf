type point = {
  hop : int;
  vertex : int;
  weight : float;
  objective : float;
  dist_to_target : float;
}

let of_walk ~(inst : Girg.Instance.t) ~target ~walk =
  let objective = Objective.girg_phi inst ~target in
  let phi = Objective.scorer objective in
  let xt = Geometry.Torus.Packed.get inst.packed target in
  let dist_to = Geometry.Torus.Packed.dist_to_fn inst.packed Geometry.Torus.Linf in
  List.mapi
    (fun hop v ->
      {
        hop;
        vertex = v;
        weight = inst.weights.(v);
        objective = phi v;
        dist_to_target = dist_to v xt;
      })
    walk

let peak_weight_hop points =
  let best = ref 0 and best_w = ref neg_infinity in
  List.iter
    (fun p ->
      if p.weight > !best_w then begin
        best_w := p.weight;
        best := p.hop
      end)
    points;
  !best

let weight_doubling_exponents points =
  let peak = peak_weight_hop points in
  (* Only hops whose weight is clearly above the noise floor: the ratio
     log w' / log w is meaningless when log w ~ 0. *)
  let phase1 = List.filter (fun p -> p.hop <= peak && p.weight >= 4.0) points in
  let rec ratios = function
    | a :: (b :: _ as rest) -> (log b.weight /. log a.weight) :: ratios rest
    | [ _ ] | [] -> []
  in
  ratios phase1
