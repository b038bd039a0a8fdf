module A1 = Bigarray.Array1

type int_bigarray = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

(* CSR arrays live in Bigarrays rather than heap [int array]s: the payload is
   outside the OCaml heap (the GC neither copies nor scans hundreds of
   millions of words), and a snapshot's CSR section can be [Unix.map_file]'d
   and traversed zero-copy through the exact same representation.

   Live graphs keep a row table beside the immutable base CSR: a vertex
   whose adjacency [apply] changed holds its whole sorted row, a departed
   vertex reads as empty, and every other vertex reads its base slice
   (invariant: a [Base] vertex's merged adjacency is exactly its base
   slice).  Readers therefore pick a slice or an array once per vertex and
   never mask or merge per neighbour.  The table is split into
   copy-on-write pages of [page] vertices, so [apply] copies the page
   pointers plus the pages it writes.  The base arrays are never written —
   an mmap'd snapshot stays safely shared. *)
type row =
  | Base  (* the base CSR slice *)
  | Gone  (* departed: no neighbours *)
  | Row of int array  (* the whole merged row, sorted ascending *)

module Keys = Set.Make (Int)

type delta = {
  pages : row array array;  (* vertex v at pages.(v / page).(v mod page) *)
  dropped : Keys.t;  (* base edges removed by [Remove_edge], keyed min*n+max *)
  departed : int;  (* number of [Gone] vertices *)
}

type t = {
  n : int;
  m : int;  (* undirected edge count of the merged view *)
  epoch : int;  (* 0 for a freshly built graph; bumped by [apply] *)
  offsets : int_bigarray; (* length n+1 *)
  targets : int_bigarray; (* length 2m, neighbours of v at offsets.{v}..offsets.{v+1}-1 *)
  delta : delta option;
}


let ba_create len = A1.create Bigarray.int Bigarray.c_layout len

(* Insertion sort of a slice of an int array; adjacency slices are short on
   sparse graphs, so this beats a general comparison sort. *)
let sort_slice arr lo hi =
  if hi - lo > 48 then begin
    (* Heavy hubs (power-law graphs have a few) get a comparison sort. *)
    let tmp = Array.sub arr lo (hi - lo) in
    Array.sort Int.compare tmp;
    Array.blit tmp 0 arr lo (hi - lo)
  end
  else
  for i = lo + 1 to hi - 1 do
    let x = arr.(i) in
    let j = ref (i - 1) in
    while !j >= lo && arr.(!j) > x do
      arr.(!j + 1) <- arr.(!j);
      decr j
    done;
    arr.(!j + 1) <- x
  done

(* Counting-sort CSR construction over an interleaved half-edge array
   [u0; v0; u1; v1; ...] — the native output format of the edge samplers'
   [Edge_buf], so generation feeds the graph build without materialising a
   boxed [(u, v) array].  Bucket raw half-edges per vertex, sort each short
   adjacency slice, compact away self-loops/duplicates in place, then copy
   the survivors into the final Bigarrays.  Scratch stays in heap [int
   array]s — it is transient and the final arrays are what must be
   Bigarray-shaped. *)
let of_flat_halves ~n ~len flat =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  if len < 0 || len > Array.length flat then invalid_arg "Graph.of_flat_halves: bad length";
  if len land 1 <> 0 then invalid_arg "Graph.of_flat_halves: odd length";
  for k = 0 to len - 1 do
    let x = flat.(k) in
    if x < 0 || x >= n then invalid_arg "Graph.of_edges: endpoint out of range"
  done;
  let raw_degree = Array.make (n + 1) 0 in
  let k = ref 0 in
  while !k < len do
    let u = flat.(!k) and v = flat.(!k + 1) in
    if u <> v then begin
      raw_degree.(u) <- raw_degree.(u) + 1;
      raw_degree.(v) <- raw_degree.(v) + 1
    end;
    k := !k + 2
  done;
  let raw_offsets = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    raw_offsets.(v + 1) <- raw_offsets.(v) + raw_degree.(v)
  done;
  let raw_targets = Array.make raw_offsets.(n) 0 in
  let cursor = Array.copy raw_offsets in
  k := 0;
  while !k < len do
    let u = flat.(!k) and v = flat.(!k + 1) in
    if u <> v then begin
      raw_targets.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1;
      raw_targets.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1
    end;
    k := !k + 2
  done;
  let offsets = ba_create (n + 1) in
  let write = ref 0 in
  for v = 0 to n - 1 do
    let lo = raw_offsets.(v) and hi = raw_offsets.(v + 1) in
    sort_slice raw_targets lo hi;
    offsets.{v} <- !write;
    (* In-place compaction is safe: the write cursor never overtakes the
       read cursor ([!write <= lo <= k] throughout). *)
    for k = lo to hi - 1 do
      let w = raw_targets.(k) in
      if k = lo || raw_targets.(k - 1) <> w then begin
        raw_targets.(!write) <- w;
        incr write
      end
    done
  done;
  offsets.{n} <- !write;
  let targets = ba_create !write in
  for k = 0 to !write - 1 do
    targets.{k} <- raw_targets.(k)
  done;
  { n; m = !write / 2; epoch = 0; offsets; targets; delta = None }

let of_edges ~n edges =
  let len = 2 * Array.length edges in
  let flat = Array.make (max 1 len) 0 in
  Array.iteri
    (fun i (u, v) ->
      flat.(2 * i) <- u;
      flat.((2 * i) + 1) <- v)
    edges;
  of_flat_halves ~n ~len flat

let of_edge_list ~n edges = of_edges ~n (Array.of_list edges)

(* Adopt externally produced CSR arrays — typically views into an mmap'd
   snapshot.  One sequential validation pass keeps corrupt files from
   surfacing later as out-of-range vertex ids deep inside BFS or routing;
   for a mapped file it merely pages the data in once, in order. *)
let of_bigarrays ?(validate = true) ~n ~offsets ~targets () =
  if n < 0 then Error "negative n"
  else if A1.dim offsets <> n + 1 then
    Error
      (Printf.sprintf "offsets length %d, expected n+1 = %d" (A1.dim offsets) (n + 1))
  else begin
    let half = A1.dim targets in
    if half land 1 <> 0 then Error (Printf.sprintf "odd half-edge count %d" half)
    else if n = 0 && half > 0 then Error "targets nonempty on empty graph"
    else begin
      let err = ref None in
      if offsets.{0} <> 0 then err := Some "offsets must start at 0";
      (* The content scans fault every page of a mapped snapshot into
         residency, so [~validate:false] keeps only the O(1) endpoint
         checks (see the interface for why that stays memory-safe). *)
      if validate then begin
        let v = ref 0 in
        while !err = None && !v < n do
          if offsets.{!v + 1} < offsets.{!v} then
            err := Some (Printf.sprintf "offsets not monotone at vertex %d" !v);
          incr v
        done
      end;
      if !err = None && offsets.{n} <> half then
        err :=
          Some
            (Printf.sprintf "offsets end at %d, targets length %d" offsets.{n} half);
      if validate then begin
        let k = ref 0 in
        while !err = None && !k < half do
          let w = targets.{!k} in
          if w < 0 || w >= n then
            err := Some (Printf.sprintf "target %d out of range at index %d" w !k);
          incr k
        done
      end;
      match !err with
      | Some e -> Error ("Graph.of_bigarrays: " ^ e)
      | None -> Ok { n; m = half / 2; epoch = 0; offsets; targets; delta = None }
    end
  end

let offsets_ba t =
  if t.delta <> None then
    invalid_arg "Graph.offsets_ba: graph carries a live delta; compact it first";
  t.offsets

let targets_ba t =
  if t.delta <> None then
    invalid_arg "Graph.targets_ba: graph carries a live delta; compact it first";
  t.targets

let base_offsets t = t.offsets
let base_targets t = t.targets

let n t = t.n
let m t = t.m
let epoch t = t.epoch

let page_bits = 8
let page = 1 lsl page_bits

let slot pages v = pages.(v lsr page_bits).(v land (page - 1))
let row t v = match t.delta with None -> Base | Some d -> slot d.pages v

let live t v = match row t v with Gone -> false | Base | Row _ -> true
let live_count t = match t.delta with None -> t.n | Some d -> t.n - d.departed

let degree t v =
  match row t v with
  | Base -> t.offsets.{v + 1} - t.offsets.{v}
  | Gone -> 0
  | Row r -> Array.length r

let iter_neighbors t v f =
  match row t v with
  | Base ->
      for k = t.offsets.{v} to t.offsets.{v + 1} - 1 do
        f t.targets.{k}
      done
  | Gone -> ()
  | Row r -> Array.iter f r

let fold_neighbors t v ~init ~f =
  match row t v with
  | Base ->
      let acc = ref init in
      for k = t.offsets.{v} to t.offsets.{v + 1} - 1 do
        acc := f !acc t.targets.{k}
      done;
      !acc
  | Gone -> init
  | Row r -> Array.fold_left f init r

let exists_neighbor t v pred =
  match row t v with
  | Base ->
      let rec scan k = k < t.offsets.{v + 1} && (pred t.targets.{k} || scan (k + 1)) in
      scan t.offsets.{v}
  | Gone -> false
  | Row r -> Array.exists pred r

let base_neighbors t v =
  let lo = t.offsets.{v} in
  Array.init (t.offsets.{v + 1} - lo) (fun i -> t.targets.{lo + i})

let neighbors t v =
  match row t v with
  | Base -> base_neighbors t v
  | Gone -> [||]
  | Row r -> Array.copy r

let base_has_edge t u v =
  let lo = ref t.offsets.{u} and hi = ref t.offsets.{u + 1} in
  let found = ref false in
  while !lo < !hi && not !found do
    let mid = (!lo + !hi) / 2 in
    let w = t.targets.{mid} in
    if w = v then found := true else if w < v then lo := mid + 1 else hi := mid
  done;
  !found

(* First index in [arr.(0 .. len-1)] (sorted ascending) holding [>= x]. *)
let lower_bound arr len x =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let has_edge t u v =
  match row t u with
  | Base -> base_has_edge t u v
  | Gone -> false
  | Row r ->
      let i = lower_bound r (Array.length r) v in
      i < Array.length r && r.(i) = v

let iter_edges t f =
  for u = 0 to t.n - 1 do
    match row t u with
    | Base ->
        for k = t.offsets.{u} to t.offsets.{u + 1} - 1 do
          let v = t.targets.{k} in
          if u < v then f u v
        done
    | Gone -> ()
    | Row r ->
        for i = 0 to Array.length r - 1 do
          if u < r.(i) then f u r.(i)
        done
  done

let max_degree t =
  let best = ref 0 in
  for v = 0 to t.n - 1 do
    let d = degree t v in
    if d > !best then best := d
  done;
  !best

let avg_degree t = if t.n = 0 then 0.0 else 2.0 *. float_of_int t.m /. float_of_int t.n

(* ------------------------------------------------------------------ *)
(* Mutations: the copy-on-write write path.                            *)

type mutation =
  | Remove_vertex of int
  | Restore_vertex of int
  | Remove_edge of int * int
  | Add_edge of int * int

let edge_key n u v = if u < v then (u * n) + v else (v * n) + u

(* Never written: [apply] copies a page before its first write. *)
let base_page = Array.make page Base

(* A row being edited by one [apply]: copied in once, edited in place,
   frozen into a [Row] at the end, so a batch touching one vertex many
   times (a hub's re-sample) costs its degree once, not per edit. *)
type buf = { mutable len : int; mutable data : int array }

let buf_insert b x =
  let i = lower_bound b.data b.len x in
  if i < b.len && b.data.(i) = x then false
  else begin
    if b.len = Array.length b.data then begin
      let data = Array.make (max 8 (2 * b.len)) 0 in
      Array.blit b.data 0 data 0 b.len;
      b.data <- data
    end;
    Array.blit b.data i b.data (i + 1) (b.len - i);
    b.data.(i) <- x;
    b.len <- b.len + 1;
    true
  end

let buf_remove b x =
  let i = lower_bound b.data b.len x in
  i < b.len && b.data.(i) = x
  && begin
       Array.blit b.data (i + 1) b.data i (b.len - i - 1);
       b.len <- b.len - 1;
       true
     end

let apply ?epoch t mutations =
  let n = t.n in
  let epoch = match epoch with Some e -> e | None -> t.epoch + 1 in
  let src, dropped, departed =
    match t.delta with
    | None -> (Array.make ((n + page - 1) / page) base_page, Keys.empty, 0)
    | Some d -> (d.pages, d.dropped, d.departed)
  in
  let pages = Array.copy src in
  let dropped = ref dropped and departed = ref departed and m = ref t.m in
  let set v r =
    let p = v lsr page_bits in
    if pages.(p) == src.(p) then pages.(p) <- Array.copy src.(p);
    pages.(p).(v land (page - 1)) <- r
  in
  let is_gone v = match slot pages v with Gone -> true | Base | Row _ -> false in
  let work = Hashtbl.create 16 in
  let touch v =
    match Hashtbl.find_opt work v with
    | Some b -> b
    | None ->
        let data =
          match slot pages v with
          | Base -> base_neighbors t v
          | Gone -> [||]
          | Row r -> Array.copy r
        in
        let b = { len = Array.length data; data } in
        Hashtbl.add work v b;
        b
  in
  let check what v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Graph.apply: %s vertex %d out of range [0, %d)" what v n)
  in
  List.iter
    (fun mu ->
      match mu with
      | Remove_vertex v ->
          check "remove" v;
          if not (is_gone v) then begin
            (* Added edges of a departing vertex are lost for good: a later
               [Restore_vertex] rebuilds its row from the base slice. *)
            let b = touch v in
            for i = 0 to b.len - 1 do
              ignore (buf_remove (touch b.data.(i)) v)
            done;
            m := !m - b.len;
            Hashtbl.remove work v;
            set v Gone;
            incr departed
          end
      | Restore_vertex v ->
          check "restore" v;
          if is_gone v then begin
            let b = touch v in
            for k = t.offsets.{v} to t.offsets.{v + 1} - 1 do
              let w = t.targets.{k} in
              if (not (is_gone w)) && not (Keys.mem (edge_key n v w) !dropped) then begin
                ignore (buf_insert b w);
                ignore (buf_insert (touch w) v);
                incr m
              end
            done;
            set v (Row [||]);
            decr departed
          end
      | Remove_edge (u, v) ->
          check "remove-edge" u;
          check "remove-edge" v;
          if u <> v && (not (is_gone u)) && (not (is_gone v)) && buf_remove (touch u) v
          then begin
            ignore (buf_remove (touch v) u);
            decr m;
            if base_has_edge t u v then dropped := Keys.add (edge_key n u v) !dropped
          end
      | Add_edge (u, v) ->
          check "add-edge" u;
          check "add-edge" v;
          if u = v then invalid_arg "Graph.apply: cannot add a self-loop";
          if is_gone u || is_gone v then
            invalid_arg "Graph.apply: cannot add an edge to a departed vertex";
          if buf_insert (touch u) v then begin
            ignore (buf_insert (touch v) u);
            incr m;
            dropped := Keys.remove (edge_key n u v) !dropped
          end)
    mutations;
  Hashtbl.iter (fun v b -> set v (Row (Array.sub b.data 0 b.len))) work;
  { t with m = !m; epoch; delta = Some { pages; dropped = !dropped; departed = !departed } }

(* Rows are already sorted and duplicate-free, so the CSR is written in
   one pass with no sort. *)
let compact t =
  match t.delta with
  | None -> t
  | Some _ ->
      let offsets = ba_create (t.n + 1) and targets = ba_create (2 * t.m) in
      let k = ref 0 in
      let write w =
        targets.{!k} <- w;
        incr k
      in
      for v = 0 to t.n - 1 do
        offsets.{v} <- !k;
        iter_neighbors t v write
      done;
      offsets.{t.n} <- !k;
      { t with offsets; targets; delta = None }
