module G = Sparse_graph.Graph
module Packed = Geometry.Torus.Packed

type t = {
  base : G.int_bigarray;
  hubs : int array;
  row_blocks : int array;
  block_start : int array;
  members : int array;
  w_max : float array;
  boxes : float array;
  max_blocks : int;
}

(* A sweep of five (threshold, block) settings over greedy routes on a
   dense 2^16 GIRG put 256/32 first; 1024/32 routed about half as
   fast. *)
let degree_threshold = 256
let block_size = 32

(* Stable LSD radix sort of [src.(0 .. len - 1)] on bits [lo_bit ..
   lo_bit + bits - 1], a byte per pass, alternating with [dst]; returns
   whichever buffer ends up holding the result.  Library sorts allocate
   several words per element; this allocates nothing. *)
let radix_sort ~count src dst len ~lo_bit ~bits =
  let src = ref src and dst = ref dst in
  let shift = ref lo_bit in
  while !shift < lo_bit + bits do
    let s = !src and d = !dst and sh = !shift in
    Array.fill count 0 257 0;
    for i = 0 to len - 1 do
      let b = ((s.(i) lsr sh) land 255) + 1 in
      count.(b) <- count.(b) + 1
    done;
    for b = 1 to 256 do
      count.(b) <- count.(b) + count.(b - 1)
    done;
    for i = 0 to len - 1 do
      let x = s.(i) in
      let b = (x lsr sh) land 255 in
      d.(count.(b)) <- x;
      count.(b) <- count.(b) + 1
    done;
    src := d;
    dst := s;
    shift := sh + 8
  done;
  !src

let build ~weights ~packed graph =
  let offsets = G.base_offsets graph and targets = G.base_targets graph in
  let n = G.n graph in
  let dim = Packed.dim packed and coords = Packed.data packed in
  (* A row sorts one int key per member: the Morton code above the
     member's slice position.  Codes of [dim * level <= 31] bits leave 31
     for the position; the sort is stable, so equal codes keep slice
     order, which is id order. *)
  let level = 31 / dim and pos_bits = 31 in
  let scale = float_of_int (1 lsl level) and top = (1 lsl level) - 1 in
  let heavy v = offsets.{v + 1} - offsets.{v} > degree_threshold in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if heavy v then incr count
  done;
  let hubs = Array.make !count 0 in
  count := 0;
  for v = 0 to n - 1 do
    if heavy v then begin
      hubs.(!count) <- v;
      incr count
    end
  done;
  let blocks_of deg = (deg + block_size - 1) / block_size in
  let row_blocks = Array.make (Array.length hubs + 1) 0 in
  Array.iteri
    (fun r v -> row_blocks.(r + 1) <- row_blocks.(r) + blocks_of (offsets.{v + 1} - offsets.{v}))
    hubs;
  let nblocks = row_blocks.(Array.length hubs) in
  let block_start = Array.make (nblocks + 1) 0 in
  let members = Array.make (Array.fold_left (fun acc v -> acc + offsets.{v + 1} - offsets.{v}) 0 hubs) 0 in
  let w_max = Array.make nblocks 0.0 and boxes = Array.make (2 * dim * nblocks) 0.0 in
  let cell = Array.make dim 0 in
  let widest = Array.fold_left (fun acc v -> max acc (offsets.{v + 1} - offsets.{v})) 0 hubs in
  let keys = Array.make widest 0 and spare = Array.make widest 0 and counts = Array.make 257 0 in
  let next = ref 0 in
  Array.iteri
    (fun r v ->
      let a = offsets.{v} and deg = offsets.{v + 1} - offsets.{v} in
      for k = 0 to deg - 1 do
        let u = targets.{a + k} in
        for i = 0 to dim - 1 do
          cell.(i) <- min top (int_of_float (coords.((u * dim) + i) *. scale))
        done;
        keys.(k) <- (Geometry.Morton.encode ~dim ~level cell lsl pos_bits) lor k
      done;
      let sorted = radix_sort ~count:counts keys spare deg ~lo_bit:pos_bits ~bits:(dim * level) in
      for k = 0 to deg - 1 do
        members.(!next + k) <- targets.{a + (sorted.(k) land ((1 lsl pos_bits) - 1))}
      done;
      for b = row_blocks.(r) to row_blocks.(r + 1) - 1 do
        let first = !next + ((b - row_blocks.(r)) * block_size) in
        let last = min (!next + deg) (first + block_size) in
        block_start.(b) <- first;
        let w = ref 0.0 in
        for i = 0 to dim - 1 do
          boxes.((2 * ((b * dim) + i))) <- infinity;
          boxes.((2 * ((b * dim) + i)) + 1) <- neg_infinity
        done;
        for k = first to last - 1 do
          let u = members.(k) in
          if weights.(u) > !w then w := weights.(u);
          for i = 0 to dim - 1 do
            let x = coords.((u * dim) + i) and o = 2 * ((b * dim) + i) in
            if x < boxes.(o) then boxes.(o) <- x;
            if x > boxes.(o + 1) then boxes.(o + 1) <- x
          done
        done;
        w_max.(b) <- !w
      done;
      next := !next + deg)
    hubs;
  block_start.(nblocks) <- !next;
  { base = targets; hubs; row_blocks; block_start; members; w_max; boxes; max_blocks = blocks_of widest }

let covers t graph = t.base == G.base_targets graph

(* A loop, not a local recursive function: that would allocate its
   closure on every call. *)
let row t v =
  let hubs = t.hubs in
  let lo = ref 0 and hi = ref (Array.length hubs) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if hubs.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length hubs && hubs.(!lo) = v then !lo else -1
