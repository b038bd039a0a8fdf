module Graph = Sparse_graph.Graph

type kernel = {
  weights : float array;
  coords : float array;  (* the packed store: [dim] coordinates per vertex *)
  point : float array;  (* the target's position *)
  denom : float;
  norm : Geometry.Torus.norm;
  dim : int;
  hubs : Girg.Hub_index.t;
}

type t = {
  name : string;
  target : int;
  score : int -> float;
  kernel : kernel option;
}

let scorer t = t.score

let of_fun ~name ~target f =
  { name; target; score = (fun v -> if v = target then infinity else f v); kernel = None }

let girg_phi (inst : Girg.Instance.t) ~target =
  let p = inst.params in
  let denom = p.Girg.Params.w_min *. float_of_int p.Girg.Params.n in
  let dim = p.Girg.Params.dim in
  let weights = inst.weights in
  let xt = Geometry.Torus.Packed.get inst.packed target in
  (* The (norm, dim)-specialised strided kernel reads the instance's flat
     coordinate store; [dist ** d] is spelled out as products for d <= 3. *)
  let dist_to = Geometry.Torus.Packed.dist_to_fn inst.packed p.Girg.Params.norm in
  let score =
    match dim with
    | 1 ->
        fun v ->
          if v = target then infinity else weights.(v) /. (denom *. dist_to v xt)
    | 2 ->
        fun v ->
          if v = target then infinity
          else begin
            let dist = dist_to v xt in
            weights.(v) /. (denom *. (dist *. dist))
          end
    | 3 ->
        fun v ->
          if v = target then infinity
          else begin
            let dist = dist_to v xt in
            weights.(v) /. (denom *. (dist *. dist *. dist))
          end
    | _ ->
        let dimf = float_of_int dim in
        fun v ->
          if v = target then infinity
          else begin
            let dist = dist_to v xt in
            weights.(v) /. (denom *. (dist ** dimf))
          end
  in
  let kernel =
    if dim > 3 then None
    else
      Some
        {
          weights;
          coords = Geometry.Torus.Packed.data inst.packed;
          point = xt;
          denom;
          norm = p.Girg.Params.norm;
          dim;
          hubs = Girg.Instance.hub_index inst;
        }
  in
  { name = "phi"; target; score; kernel }

(* ------------------------------------------------------------------ *)
(* Arg-max over a neighbourhood.

   [combine] turns per-dimension distances into a score; [phi] feeds it
   a vertex's and [bound] a block's.  Each call in [search] passes
   [shape] as a constant, so once [scan] and [scan_hub] are inlined their
   [match]es fold away and every (norm, dim) gets straight-line loops:
   phi inlined, no closure, no boxed float.  [combine] repeats
   [girg_phi]'s score operations in its order (see
   [Geometry.Torus.Packed]), so the scores are bit-identical to the
   closure path's.  (L1 and Linf agree in one dimension, so one branch
   serves both.)

   [bound] is the same expression with each coordinate distance replaced
   by the distance to the block's box ([Torus.interval_dist], never above
   any member's computed distance) and the weight by the block's largest.
   Every operation is correctly rounded and monotone in each argument, so
   the computed bound is never below a member's computed score, and a
   block whose member is the target reads 0 distance and bound infinity.

   [scan] walks a CSR slice in ascending order with a strict [>], which
   breaks ties towards the smaller id.  [scan_hub] walks a heavy row's
   Morton-ordered blocks of [Girg.Hub_index]: it bounds every block, scans
   the block of largest bound first, then every other block whose bound
   is at least the best score so far and at least [lo].  Members arrive
   out of id order, so a tie goes to the smaller id explicitly.  [below]
   cannot prune a block: its bound says nothing of its smallest score. *)

type shape = D1 | Linf2 | Linf3 | L2_1 | L2_2 | L2_3 | L1_2 | L1_3

(* [w / (denom dist^d)] from the per-dimension distances. *)
let[@inline] combine shape w denom d0 d1 d2 =
  match shape with
  | D1 -> w /. (denom *. d0)
  | L2_1 -> w /. (denom *. sqrt (d0 *. d0))
  | Linf2 ->
      let dist = if d1 > d0 then d1 else d0 in
      w /. (denom *. (dist *. dist))
  | L2_2 ->
      let dist = sqrt ((d0 *. d0) +. (d1 *. d1)) in
      w /. (denom *. (dist *. dist))
  | L1_2 ->
      let dist = d0 +. d1 in
      w /. (denom *. (dist *. dist))
  | Linf3 ->
      let m = if d1 > d0 then d1 else d0 in
      let dist = if d2 > m then d2 else m in
      w /. (denom *. (dist *. dist *. dist))
  | L2_3 ->
      let dist = sqrt ((d0 *. d0) +. (d1 *. d1) +. (d2 *. d2)) in
      w /. (denom *. (dist *. dist *. dist))
  | L1_3 ->
      let dist = d0 +. d1 +. d2 in
      w /. (denom *. (dist *. dist *. dist))

let cd = Geometry.Torus.coord_dist

let[@inline] phi shape c w denom q0 q1 q2 u =
  match shape with
  | D1 | L2_1 -> combine shape w.(u) denom (cd c.(u) q0) 0.0 0.0
  | Linf2 | L2_2 | L1_2 ->
      let o = 2 * u in
      combine shape w.(u) denom (cd c.(o) q0) (cd c.(o + 1) q1) 0.0
  | Linf3 | L2_3 | L1_3 ->
      let o = 3 * u in
      combine shape w.(u) denom (cd c.(o) q0) (cd c.(o + 1) q1) (cd c.(o + 2) q2)

(* Block [b]'s box spans [box.(o)] to [box.(o + 1)] in dimension [i],
   [o = 2 (b dim + i)]. *)
let[@inline] iv box q o = Geometry.Torus.interval_dist q ~lo:box.(o) ~hi:box.(o + 1)

let[@inline] bound shape box wm denom q0 q1 q2 b =
  match shape with
  | D1 | L2_1 -> combine shape wm.(b) denom (iv box q0 (2 * b)) 0.0 0.0
  | Linf2 | L2_2 | L1_2 ->
      let o = 4 * b in
      combine shape wm.(b) denom (iv box q0 o) (iv box q1 (o + 2)) 0.0
  | Linf3 | L2_3 | L1_3 ->
      let o = 6 * b in
      combine shape wm.(b) denom (iv box q0 o) (iv box q1 (o + 2)) (iv box q2 (o + 4))

(* What the calling domain's last arg-max did, and the buffer its block
   bounds go in.  Writing it costs no allocation. *)
type cost = { mutable evals : int; mutable bounds : int; mutable buf : float array }

let cost_key = Domain.DLS.new_key (fun () -> { evals = 0; bounds = 0; buf = [||] })
let last_evals () = (Domain.DLS.get cost_key).evals
let last_bounds () = (Domain.DLS.get cost_key).bounds

let[@inline] scan shape k cost (targets : Graph.int_bigarray) first last ~target ~skip ~lo
    ~bounded ~below =
  let c = k.coords and w = k.weights and denom = k.denom and q = k.point in
  let q0 = q.(0) in
  let q1 = if k.dim > 1 then q.(1) else 0.0 in
  let q2 = if k.dim > 2 then q.(2) else 0.0 in
  let best = ref (-1) and best_s = ref neg_infinity and evals = ref 0 in
  for i = first to last - 1 do
    let u = targets.{i} in
    if u <> skip then begin
      incr evals;
      let s = if u = target then infinity else phi shape c w denom q0 q1 q2 u in
      if s >= lo && ((not bounded) || s < below) && s > !best_s then begin
        best := u;
        best_s := s
      end
    end
  done;
  cost.evals <- !evals;
  cost.bounds <- 0;
  !best

let[@inline] scan_hub shape k cost (h : Girg.Hub_index.t) r ~target ~skip ~lo ~bounded ~below =
  let c = k.coords and w = k.weights and denom = k.denom and q = k.point in
  let q0 = q.(0) in
  let q1 = if k.dim > 1 then q.(1) else 0.0 in
  let q2 = if k.dim > 2 then q.(2) else 0.0 in
  let box = h.boxes and wm = h.w_max and members = h.members and starts = h.block_start in
  let b0 = h.row_blocks.(r) in
  let nb = h.row_blocks.(r + 1) - b0 in
  if Array.length cost.buf < nb then cost.buf <- Array.make h.max_blocks 0.0;
  let bounds = cost.buf in
  let top = ref (-1) and top_x = ref neg_infinity in
  for j = 0 to nb - 1 do
    let x = bound shape box wm denom q0 q1 q2 (b0 + j) in
    bounds.(j) <- x;
    if x > !top_x then begin
      top := j;
      top_x := x
    end
  done;
  let best = ref (-1) and best_s = ref neg_infinity and evals = ref 0 in
  (* Step -1 scans the top block; steps 0 .. nb-1 the rest, in row
     order.  A [nan] bound prunes nothing. *)
  for step = -1 to nb - 1 do
    let j = if step < 0 then !top else step in
    if j >= 0 && (step < 0 || j <> !top) && not (bounds.(j) < !best_s || bounds.(j) < lo) then
      for i = starts.(b0 + j) to starts.(b0 + j + 1) - 1 do
        let u = members.(i) in
        if u <> skip then begin
          incr evals;
          let s = if u = target then infinity else phi shape c w denom q0 q1 q2 u in
          if
            s >= lo
            && ((not bounded) || s < below)
            && (s > !best_s || (s = !best_s && u < !best))
          then begin
            best := u;
            best_s := s
          end
        end
      done
  done;
  cost.evals <- !evals;
  cost.bounds <- nb;
  !best

(* A heavy base row goes to the index when the kernel's index covers
   this graph; every other base row is scanned. *)
let[@inline] kernel_search shape k cost graph v ~target ~skip ~lo ~bounded ~below =
  let offsets = Graph.base_offsets graph in
  let a = offsets.{v} and b = offsets.{v + 1} in
  let h = k.hubs in
  let r =
    if b - a > Girg.Hub_index.degree_threshold && Girg.Hub_index.covers h graph then
      Girg.Hub_index.row h v
    else -1
  in
  if r >= 0 then scan_hub shape k cost h r ~target ~skip ~lo ~bounded ~below
  else scan shape k cost (Graph.base_targets graph) a b ~target ~skip ~lo ~bounded ~below

let search t graph v ~skip ~lo ~bounded ~below =
  let cost = Domain.DLS.get cost_key in
  match (t.kernel, Graph.row graph v) with
  | Some k, Graph.Base -> begin
      let target = t.target in
      match (k.norm, k.dim) with
      | (Geometry.Torus.Linf | L1), 1 -> kernel_search D1 k cost graph v ~target ~skip ~lo ~bounded ~below
      | L2, 1 -> kernel_search L2_1 k cost graph v ~target ~skip ~lo ~bounded ~below
      | Linf, 2 -> kernel_search Linf2 k cost graph v ~target ~skip ~lo ~bounded ~below
      | L2, 2 -> kernel_search L2_2 k cost graph v ~target ~skip ~lo ~bounded ~below
      | L1, 2 -> kernel_search L1_2 k cost graph v ~target ~skip ~lo ~bounded ~below
      | Linf, 3 -> kernel_search Linf3 k cost graph v ~target ~skip ~lo ~bounded ~below
      | L2, 3 -> kernel_search L2_3 k cost graph v ~target ~skip ~lo ~bounded ~below
      | L1, 3 -> kernel_search L1_3 k cost graph v ~target ~skip ~lo ~bounded ~below
      | _ -> invalid_arg "Objective.argmax: kernel dimension above 3"
    end
  | _ ->
      (* The reference: the score closure over the merged adjacency.  It
         serves every objective without a kernel and every changed row. *)
      let phi = t.score in
      let best = ref (-1) and best_s = ref neg_infinity and evals = ref 0 in
      Graph.iter_neighbors graph v (fun u ->
          if u <> skip then begin
            incr evals;
            let s = phi u in
            if s >= lo && ((not bounded) || s < below) && s > !best_s then begin
              best := u;
              best_s := s
            end
          end);
      cost.evals <- !evals;
      cost.bounds <- 0;
      !best

let argmax t graph v ~skip ~lo = search t graph v ~skip ~lo ~bounded:false ~below:infinity
let argmax_below t graph v ~skip ~lo ~below = search t graph v ~skip ~lo ~bounded:true ~below

let geometric ~packed ~target =
  let xt = Geometry.Torus.Packed.get packed target in
  let dist_to = Geometry.Torus.Packed.dist_to_fn packed Geometry.Torus.Linf in
  of_fun ~name:"geometric" ~target (fun v -> 1.0 /. dist_to v xt)

let hyperbolic (h : Hyperbolic.Hrg.t) ~target =
  let p = h.params in
  let nf = float_of_int p.Hyperbolic.Hrg.n in
  let w_min = exp (-.p.Hyperbolic.Hrg.radius_c /. 2.0) in
  (* phi_H = n / (w_t w_min sqrt (cosh d_H(v, t))) over the flat [r; angle]
     store.  [sinh r_t] and [w_t *. w_min] are trailing/leading factors of
     left-associated products, so hoisting them keeps every intermediate
     bit pattern. *)
  let pc = h.packed_coords in
  let ct_r = pc.(2 * target) in
  let ct_angle = pc.((2 * target) + 1) in
  let sinh_ct = sinh ct_r in
  let lead = h.weights.(target) *. w_min in
  let score v =
    if v = target then infinity
    else begin
      let ar = pc.(2 * v) in
      let aa = pc.((2 * v) + 1) in
      let dangle =
        let d = abs_float (aa -. ct_angle) in
        if d > Float.pi then (2.0 *. Float.pi) -. d else d
      in
      let cosh_dh = cosh (ar -. ct_r) +. ((1.0 -. cos dangle) *. sinh ar *. sinh_ct) in
      nf /. (lead *. sqrt (Float.max 1.0 cosh_dh))
    end
  in
  { name = "phi_H"; target; score; kernel = None }

(* Deterministic per-vertex uniform in [0, 1): one SplitMix64-style mix of
   (seed, vertex).  Stable across calls, so an objective scores consistently
   during a whole routing run.

   The 64-bit mix runs on (hi32, lo32) native-int halves — no boxed [Int64]
   per evaluation.  Native [( * )] wraps mod 2^63, which keeps the low 32
   bits of any product exact; the low word of a 32x32 multiply is assembled
   from 16-bit limbs so no intermediate exceeds 63 bits.  Output is
   bit-identical to the boxed [Int64] formulation (pinned by tests). *)

let mask32 = 0xFFFFFFFF

let hash_unit ~seed v =
  (* z = seed + (v + 1) * 0x9E3779B97F4A7C15 *)
  let m = v + 1 in
  let ah = (m asr 32) land mask32 in
  let al = m land mask32 in
  let a0 = al land 0xFFFF in
  let a1 = al lsr 16 in
  (* constant limbs of 0x9E3779B97F4A7C15 *)
  let p00 = a0 * 0x7C15 in
  let mid = (p00 lsr 16) + (a1 * 0x7C15) + (a0 * 0x7F4A) in
  let lo = (p00 land 0xFFFF) lor ((mid land 0xFFFF) lsl 16) in
  let hi =
    ((mid lsr 16) + (a1 * 0x7F4A) + ((al * 0x9E3779B9) land mask32)
    + ((ah * 0x7F4A7C15) land mask32))
    land mask32
  in
  let sum = lo + (seed land mask32) in
  let zl = sum land mask32 in
  let zh = (hi + ((seed asr 32) land mask32) + (sum lsr 32)) land mask32 in
  (* z ^= z >>> 30 *)
  let zl = zl lxor ((zl lsr 30) lor ((zh lsl 2) land mask32)) in
  let zh = zh lxor (zh lsr 30) in
  (* z *= 0xBF58476D1CE4E5B9 *)
  let a0 = zl land 0xFFFF in
  let a1 = zl lsr 16 in
  let p00 = a0 * 0xE5B9 in
  let mid = (p00 lsr 16) + (a1 * 0xE5B9) + (a0 * 0x1CE4) in
  let lo = (p00 land 0xFFFF) lor ((mid land 0xFFFF) lsl 16) in
  let hi =
    ((mid lsr 16) + (a1 * 0x1CE4) + ((zl * 0xBF58476D) land mask32)
    + ((zh * 0x1CE4E5B9) land mask32))
    land mask32
  in
  let zl = lo and zh = hi in
  (* z ^= z >>> 27 *)
  let zl = zl lxor ((zl lsr 27) lor ((zh lsl 5) land mask32)) in
  let zh = zh lxor (zh lsr 27) in
  (* z *= 0x94D049BB133111EB *)
  let a0 = zl land 0xFFFF in
  let a1 = zl lsr 16 in
  let p00 = a0 * 0x11EB in
  let mid = (p00 lsr 16) + (a1 * 0x11EB) + (a0 * 0x1331) in
  let lo = (p00 land 0xFFFF) lor ((mid land 0xFFFF) lsl 16) in
  let hi =
    ((mid lsr 16) + (a1 * 0x1331) + ((zl * 0x94D049BB) land mask32)
    + ((zh * 0x133111EB) land mask32))
    land mask32
  in
  let zl = lo and zh = hi in
  (* z ^= z >>> 31 *)
  let zl = zl lxor ((zl lsr 31) lor ((zh lsl 1) land mask32)) in
  let zh = zh lxor (zh lsr 31) in
  (* top 53 bits, scaled to [0, 1) *)
  let bits53 = (zh lsl 21) lor (zl lsr 11) in
  float_of_int bits53 /. 9007199254740992.0

let noisy_factor ~seed ~spread base =
  if spread < 0.0 then invalid_arg "Objective.noisy_factor: negative spread";
  let name = Printf.sprintf "%s~factor(%g)" base.name spread in
  let target = base.target in
  let bs = base.score in
  let score v =
    if v = target then infinity
    else begin
      let u = (2.0 *. hash_unit ~seed v) -. 1.0 in
      bs v *. exp (u *. spread)
    end
  in
  { name; target; score; kernel = None }

let noisy_polynomial ~seed ~delta ~weights base =
  if delta < 0.0 then invalid_arg "Objective.noisy_polynomial: negative delta";
  let name = Printf.sprintf "%s~poly(%g)" base.name delta in
  let target = base.target in
  let bs = base.score in
  let score v =
    if v = target then infinity
    else begin
      let s = bs v in
      if s <= 0.0 then s
      else begin
        let m = Float.min weights.(v) (1.0 /. s) in
        let u = (2.0 *. hash_unit ~seed v) -. 1.0 in
        s *. (Float.max 1.0 m ** (u *. delta))
      end
    end
  in
  { name; target; score; kernel = None }

module Memo = struct
  module Scratch = Sparse_graph.Scratch

  type scratch = Scratch.t

  let create = Scratch.create

  let wrap scratch ~n t =
    if n < 0 then invalid_arg "Objective.Memo.wrap: negative n";
    (* A fresh epoch invalidates every cached entry without clearing. *)
    Scratch.start scratch ~n;
    let epoch = Scratch.epoch scratch in
    let scores = Scratch.floats scratch 0 in
    let base = t.score in
    let memo v =
      if Scratch.epoch scratch <> epoch then base v (* outlived by a later [wrap] *)
      else if Scratch.mem scratch v then scores.(v)
      else begin
        let s = base v in
        scores.(v) <- s;
        ignore (Scratch.add scratch v);
        s
      end
    in
    { t with score = memo }
end
