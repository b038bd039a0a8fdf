type point = float array

type norm = Linf | L2 | L1

let[@inline] coord_dist a b =
  let d = abs_float (a -. b) in
  if d > 0.5 then 1.0 -. d else d

let[@inline] interval_dist q ~lo ~hi =
  if q >= lo && q <= hi then 0.0
  else
    let a = coord_dist q lo and b = coord_dist q hi in
    if b < a then b else a

let check_dims x y =
  if Array.length x <> Array.length y then
    invalid_arg "Torus: dimension mismatch"

let dist_linf x y =
  check_dims x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let d = coord_dist x.(i) y.(i) in
    if d > !acc then acc := d
  done;
  !acc

let dist_l2 x y =
  check_dims x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let d = coord_dist x.(i) y.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let dist_l1 x y =
  check_dims x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. coord_dist x.(i) y.(i)
  done;
  !acc

let dist ?(norm = Linf) x y =
  match norm with Linf -> dist_linf x y | L2 -> dist_l2 x y | L1 -> dist_l1 x y

let dist_fn = function Linf -> dist_linf | L2 -> dist_l2 | L1 -> dist_l1

(* ------------------------------------------------------------------ *)
(* Structure-of-arrays position store.

   One contiguous dim-strided [float array] replaces the array-of-points
   layout on the hot paths: a distance evaluation then touches exactly one
   cache line of coordinate data instead of chasing a per-vertex pointer,
   and the [(norm, dim)]-specialised kernels below compile to straight-line
   float code with no per-call dimension check.  Every kernel performs the
   same operations in the same order as the generic loops above, so the
   produced floats are bit-identical — the contract the routing golden
   tests pin. *)

module Packed = struct
  type t = { dim : int; n : int; data : float array }

  let of_points ~dim points =
    if dim < 1 then invalid_arg "Torus.Packed.of_points: dim must be >= 1";
    let n = Array.length points in
    let data = Array.make (max 1 (n * dim)) 0.0 in
    for v = 0 to n - 1 do
      let p = points.(v) in
      if Array.length p <> dim then invalid_arg "Torus.Packed.of_points: dimension mismatch";
      Array.blit p 0 data (v * dim) dim
    done;
    { dim; n; data }

  let of_flat ~dim data =
    if dim < 1 then invalid_arg "Torus.Packed.of_flat: dim must be >= 1";
    if Array.length data mod dim <> 0 then
      invalid_arg "Torus.Packed.of_flat: length is not a multiple of dim";
    { dim; n = Array.length data / dim; data }

  let dim t = t.dim
  let length t = t.n
  let data t = t.data

  let get t v = Array.sub t.data (v * t.dim) t.dim

  let coord t v i = t.data.((v * t.dim) + i)

  (* Strided kernels against a fixed query point.  The generic loops mirror
     [dist_linf]/[dist_l2]/[dist_l1] exactly (same accumulation order); the
     dim <= 3 specialisations unroll them without reassociating. *)

  let linf_to data ~dim ~base (q : point) =
    let acc = ref 0.0 in
    for i = 0 to dim - 1 do
      let d = coord_dist data.(base + i) q.(i) in
      if d > !acc then acc := d
    done;
    !acc

  let l2_to data ~dim ~base (q : point) =
    let acc = ref 0.0 in
    for i = 0 to dim - 1 do
      let d = coord_dist data.(base + i) q.(i) in
      acc := !acc +. (d *. d)
    done;
    sqrt !acc

  let l1_to data ~dim ~base (q : point) =
    let acc = ref 0.0 in
    for i = 0 to dim - 1 do
      acc := !acc +. coord_dist data.(base + i) q.(i)
    done;
    !acc

  let dist_to_fn t norm : int -> point -> float =
    let data = t.data in
    match (norm, t.dim) with
    | Linf, 1 -> fun v q -> coord_dist data.(v) q.(0)
    | Linf, 2 ->
        fun v q ->
          let b = 2 * v in
          let d0 = coord_dist data.(b) q.(0) in
          let d1 = coord_dist data.(b + 1) q.(1) in
          if d1 > d0 then d1 else d0
    | Linf, 3 ->
        fun v q ->
          let b = 3 * v in
          let d0 = coord_dist data.(b) q.(0) in
          let d1 = coord_dist data.(b + 1) q.(1) in
          let d2 = coord_dist data.(b + 2) q.(2) in
          let m = if d1 > d0 then d1 else d0 in
          if d2 > m then d2 else m
    | Linf, dim -> fun v q -> linf_to data ~dim ~base:(v * dim) q
    | L2, 1 -> fun v q -> sqrt (let d = coord_dist data.(v) q.(0) in d *. d)
    | L2, 2 ->
        fun v q ->
          let b = 2 * v in
          let d0 = coord_dist data.(b) q.(0) in
          let d1 = coord_dist data.(b + 1) q.(1) in
          sqrt ((d0 *. d0) +. (d1 *. d1))
    | L2, 3 ->
        fun v q ->
          let b = 3 * v in
          let d0 = coord_dist data.(b) q.(0) in
          let d1 = coord_dist data.(b + 1) q.(1) in
          let d2 = coord_dist data.(b + 2) q.(2) in
          sqrt ((d0 *. d0) +. (d1 *. d1) +. (d2 *. d2))
    | L2, dim -> fun v q -> l2_to data ~dim ~base:(v * dim) q
    | L1, 1 -> fun v q -> coord_dist data.(v) q.(0)
    | L1, 2 ->
        fun v q ->
          let b = 2 * v in
          coord_dist data.(b) q.(0) +. coord_dist data.(b + 1) q.(1)
    | L1, 3 ->
        fun v q ->
          let b = 3 * v in
          coord_dist data.(b) q.(0) +. coord_dist data.(b + 1) q.(1)
          +. coord_dist data.(b + 2) q.(2)
    | L1, dim -> fun v q -> l1_to data ~dim ~base:(v * dim) q

  (* Same specialisation, between two stored vertices — the inner loop of
     the edge samplers. *)
  let dist_between_fn t norm : int -> int -> float =
    let data = t.data in
    match (norm, t.dim) with
    | Linf, 1 -> fun u v -> coord_dist data.(u) data.(v)
    | Linf, 2 ->
        fun u v ->
          let bu = 2 * u and bv = 2 * v in
          let d0 = coord_dist data.(bu) data.(bv) in
          let d1 = coord_dist data.(bu + 1) data.(bv + 1) in
          if d1 > d0 then d1 else d0
    | Linf, 3 ->
        fun u v ->
          let bu = 3 * u and bv = 3 * v in
          let d0 = coord_dist data.(bu) data.(bv) in
          let d1 = coord_dist data.(bu + 1) data.(bv + 1) in
          let d2 = coord_dist data.(bu + 2) data.(bv + 2) in
          let m = if d1 > d0 then d1 else d0 in
          if d2 > m then d2 else m
    | L2, 1 -> fun u v -> sqrt (let d = coord_dist data.(u) data.(v) in d *. d)
    | L2, 2 ->
        fun u v ->
          let bu = 2 * u and bv = 2 * v in
          let d0 = coord_dist data.(bu) data.(bv) in
          let d1 = coord_dist data.(bu + 1) data.(bv + 1) in
          sqrt ((d0 *. d0) +. (d1 *. d1))
    | L2, 3 ->
        fun u v ->
          let bu = 3 * u and bv = 3 * v in
          let d0 = coord_dist data.(bu) data.(bv) in
          let d1 = coord_dist data.(bu + 1) data.(bv + 1) in
          let d2 = coord_dist data.(bu + 2) data.(bv + 2) in
          sqrt ((d0 *. d0) +. (d1 *. d1) +. (d2 *. d2))
    | L1, 1 -> fun u v -> coord_dist data.(u) data.(v)
    | L1, 2 ->
        fun u v ->
          let bu = 2 * u and bv = 2 * v in
          coord_dist data.(bu) data.(bv) +. coord_dist data.(bu + 1) data.(bv + 1)
    | L1, 3 ->
        fun u v ->
          let bu = 3 * u and bv = 3 * v in
          coord_dist data.(bu) data.(bv) +. coord_dist data.(bu + 1) data.(bv + 1)
          +. coord_dist data.(bu + 2) data.(bv + 2)
    | (Linf | L2 | L1), dim ->
        let dst = match norm with Linf -> linf_to | L2 -> l2_to | L1 -> l1_to in
        (* Generic fallback reuses the query-point kernels on a scratch-free
           slice view by passing the second vertex's coordinates directly. *)
        fun u v ->
          let q = Array.sub data (v * dim) dim in
          dst data ~dim ~base:(u * dim) q
end

let random_point rng ~dim = Array.init dim (fun _ -> Prng.Rng.unit_float rng)

let wrap x =
  let f = x -. Float.of_int (int_of_float (floor x)) in
  if f >= 1.0 then f -. 1.0 else if f < 0.0 then f +. 1.0 else f

let add x y =
  check_dims x y;
  Array.init (Array.length x) (fun i -> wrap (x.(i) +. y.(i)))

let ball_volume ~dim ~radius =
  if radius <= 0.0 then 0.0
  else Float.min 1.0 ((2.0 *. radius) ** float_of_int dim)

let ball_radius_of_volume ~dim ~volume =
  if volume <= 0.0 then 0.0
  else (Float.min 1.0 volume ** (1.0 /. float_of_int dim)) /. 2.0

let to_string p =
  let coords = Array.to_list (Array.map (Printf.sprintf "%.4f") p) in
  "(" ^ String.concat ", " coords ^ ")"
