(* Cost contracts: allocation that the interfaces promise does not grow
   with n.

   Each row names an operation and its claimed cost.  [test_row] runs it
   on the same route at two sizes, n = 2^12 and n = 2^16, once to warm
   up (per-domain scratch grows to n on first use and is kept) and once
   measured with [Obs.Span.allocated_bytes], which counts minor and
   major allocation alike, exactly.  The two measurements must agree
   within [slack] bytes: a row whose cost grew with n — an n-sized array
   per call is 32 KB at 2^12 and 512 KB at 2^16 — fails and names
   itself. *)

open Greedy_routing
module G = Sparse_graph.Graph

let sizes = (1 lsl 12, 1 lsl 16)
let slack = 512.0

(* A ring of n unit-weight vertices at positions v/n on the 1-torus, each
   joined to the vertices one and two places away, plus one isolated
   vertex n.  A route between two ring vertices a fixed number of places
   apart takes the same walk at every n, so only n-dependent cost can
   differ between the sizes. *)
let ring n =
  let edges = Array.init (2 * n) (fun i -> (i / 2, ((i / 2) + 1 + (i mod 2)) mod n)) in
  Girg.Instance.make
    ~params:(Girg.Params.make ~dim:1 ~poisson_count:false ~n ())
    ~weights:(Array.make (n + 1) 1.0)
    ~packed:
      (Geometry.Torus.Packed.of_flat ~dim:1
         (Array.init (n + 1) (fun v ->
              if v < n then float_of_int v /. float_of_int n else 0.5 /. float_of_int n)))
    ~graph:(G.of_edges ~n:(n + 1) edges)

type row = {
  op : string;
  claim : string;
  pair : int -> int * int;  (** source and target at ring size n *)
  run : Girg.Instance.t -> Objective.Memo.scratch -> source:int -> target:int -> unit;
}

let on_ring n = (n / 2, (n / 2) + 9)

let route protocol inst memo ~source ~target =
  let graph = inst.Girg.Instance.graph in
  let objective =
    Objective.Memo.wrap memo ~n:(G.n graph) (Objective.girg_phi inst ~target)
  in
  ignore (Protocol.run protocol ~graph ~objective ~source ())

let bfs_distance inst _ ~source ~target =
  ignore (Sparse_graph.Bfs.distance inst.Girg.Instance.graph ~source ~target)

let rows =
  [
    { op = "greedy route"; claim = "O(path)"; pair = on_ring; run = route Protocol.Greedy };
    {
      op = "phi-dfs route";
      claim = "O(visited + steps)";
      pair = on_ring;
      run = route Protocol.Patch_dfs;
    };
    {
      op = "history route";
      claim = "O(visited degrees + steps)";
      pair = on_ring;
      run = route Protocol.Patch_history;
    };
    {
      op = "gravity-pressure route";
      claim = "O(steps)";
      pair = on_ring;
      run = route Protocol.Gravity_pressure;
    };
    {
      op = "distributed greedy route";
      claim = "O(path degrees)";
      pair = on_ring;
      run =
        (fun inst _ ~source ~target -> ignore (Netsim.Dist_greedy.run ~inst ~source ~target ()));
    };
    {
      op = "distributed phi-dfs route";
      claim = "O(walk degrees)";
      pair = on_ring;
      run = (fun inst _ ~source ~target -> ignore (Netsim.Dist_dfs.run ~inst ~source ~target ()));
    };
    { op = "Bfs.distance"; claim = "O(visited)"; pair = on_ring; run = bfs_distance };
    {
      op = "Bfs.distance, disconnected pair";
      claim = "O(smaller component)";
      pair = (fun n -> (n, n / 2));
      run = bfs_distance;
    };
  ]

let measure row n =
  let inst = ring n in
  let memo = Objective.Memo.create () in
  let source, target = row.pair n in
  let go () = row.run inst memo ~source ~target in
  go ();
  let b0 = Obs.Span.allocated_bytes () in
  go ();
  Obs.Span.allocated_bytes () -. b0

let test_row row () =
  let small, large = sizes in
  let b_small = measure row small and b_large = measure row large in
  if Float.abs (b_large -. b_small) > slack then
    Alcotest.failf "%s claims %s, but allocates %.0f B at n=%d and %.0f B at n=%d (slack %.0f B)"
      row.op row.claim b_small small b_large large slack

(* One arg-max at the centre of a star whose k leaves sit on a
   side x side grid of the 2-torus (L∞, unit weights), cell centres
   ((i + 1/2) h, (j + 1/2) h) with h = 1/side.  The hub index cuts the
   row into k/B Morton blocks of B = 32 leaves, each an aligned 8 x 4
   rectangle of the grid, and bounds each once: exactly k/B bounds.
   The target is off the grid, inside one block's box, a quarter cell
   from its nearest leaf (L∞ distance h/4).  That block has bound
   infinity and is scanned first; the best score is then that of a leaf
   at h/4.  Any other block's box is at least 3h/4 away (boxes span cell
   centres, so a neighbouring box starts a full cell beyond the edge),
   its bound falls below the best, and it is skipped.  So phi
   evaluations number B, and bounds plus evaluations k/B + B: 160 at
   k = 2^12, 2080 at 2^16, against the scan's k.  The band allows up to
   four blocks scanned, which is what a target anywhere in the grid can
   need: at most two boxes per axis lie within h/2 of it.  The call
   allocates nothing once the index and the domain's bound buffer are
   built. *)
let star k =
  let side = int_of_float (Float.sqrt (float_of_int k)) in
  let h = 1.0 /. float_of_int side in
  let target = k + 1 in
  let coords = Array.make (2 * (k + 2)) 0.5 in
  for leaf = 1 to k do
    let i = (leaf - 1) mod side and j = (leaf - 1) / side in
    coords.(2 * leaf) <- (float_of_int i +. 0.5) *. h;
    coords.((2 * leaf) + 1) <- (float_of_int j +. 0.5) *. h
  done;
  (* Grid cell (side/2 + 3, side/2 + 1): inside its 8 x 4 block's box,
     not on the box's edge. *)
  coords.(2 * target) <- (float_of_int ((side / 2) + 3) +. 0.75) *. h;
  coords.((2 * target) + 1) <- (float_of_int ((side / 2) + 1) +. 0.75) *. h;
  let inst =
    Girg.Instance.make
      ~params:(Girg.Params.make ~dim:2 ~poisson_count:false ~n:(k + 2) ())
      ~weights:(Array.make (k + 2) 1.0)
      ~packed:(Geometry.Torus.Packed.of_flat ~dim:2 coords)
      ~graph:(G.of_edges ~n:(k + 2) (Array.init k (fun i -> (0, i + 1))))
  in
  (inst, target)

let test_star_hub () =
  let block = Girg.Hub_index.block_size in
  List.iter
    (fun k ->
      let inst, target = star k in
      let graph = inst.Girg.Instance.graph in
      let o = Objective.girg_phi inst ~target in
      let call () = ignore (Sys.opaque_identity (Objective.argmax o graph 0 ~skip:(-1) ~lo:neg_infinity)) in
      call ();
      let evals = Objective.last_evals () and bounds = Objective.last_bounds () in
      let lo = k / block and hi = (k / block) + (4 * block) in
      if evals + bounds < lo || evals + bounds > hi then
        Alcotest.failf "star hub of degree %d: %d evaluations + %d bounds, band [%d, %d]" k evals
          bounds lo hi;
      (* The counter's own reading allocates; [ignore] measures it. *)
      let measure f =
        let b0 = Obs.Span.allocated_bytes () in
        f ();
        Obs.Span.allocated_bytes () -. b0
      in
      let bytes = measure call -. measure ignore in
      if bytes <> 0.0 then Alcotest.failf "star hub of degree %d: arg-max allocates %.0f B" k bytes)
    [ 1 lsl 12; 1 lsl 16 ]

let suite =
  List.map
    (fun row ->
      Alcotest.test_case (Printf.sprintf "%s allocates %s" row.op row.claim) `Quick (test_row row))
    rows
  @ [
      Alcotest.test_case "argmax at a star hub: k/B bounds + O(B) evaluations, 0 B" `Quick
        test_star_hub;
    ]
