type t = { params : Hrg.params; coords : Hrg.polar array }

(* Numerically safe log of the temperature-T connection probability. *)
let log_p ~big_r ~t d =
  let x = (d -. big_r) /. (2.0 *. t) in
  if x > 0.0 then -.x -. log1p (exp (-.x)) else -.log1p (exp x)

let two_pi = 2.0 *. Float.pi

(* Angular layout skeleton: a BFS spanning forest (components in decreasing
   size, roots of maximum degree) laid out by recursive sector splitting —
   every vertex sits at the centre of an angular sector sized proportionally
   to its subtree.  Tree edges are angularly local by construction, and in
   hyperbolic graphs BFS trees follow the geometry closely, so this is a
   strong initial guess for the true angles. *)
let sector_layout ~graph =
  let n = Sparse_graph.Graph.n graph in
  let comps = Sparse_graph.Components.compute graph in
  let parent = Array.make n (-1) in
  let children = Array.make n [] in
  let roots = ref [] in
  let order = Array.make n 0 in
  let filled = ref 0 in
  let visited = Array.make n false in
  (* Components sorted by decreasing size, each rooted at its max-degree
     vertex. *)
  let comp_ids = List.init (Sparse_graph.Components.count comps) Fun.id in
  let comp_ids =
    List.sort
      (fun a b -> compare (Sparse_graph.Components.size comps b) (Sparse_graph.Components.size comps a))
      comp_ids
  in
  List.iter
    (fun cid ->
      let members = Sparse_graph.Components.members comps cid in
      let root = ref members.(0) in
      Array.iter
        (fun v -> if Sparse_graph.Graph.degree graph v > Sparse_graph.Graph.degree graph !root then root := v)
        members;
      roots := (!root, Array.length members) :: !roots;
      let queue = Queue.create () in
      visited.(!root) <- true;
      Queue.add !root queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        order.(!filled) <- u;
        incr filled;
        Sparse_graph.Graph.iter_neighbors graph u (fun w ->
            if not visited.(w) then begin
              visited.(w) <- true;
              parent.(w) <- u;
              children.(u) <- w :: children.(u);
              Queue.add w queue
            end)
      done)
    comp_ids;
  let roots = List.rev !roots in
  (* Subtree sizes: accumulate in reverse BFS order. *)
  let subtree = Array.make n 1 in
  for k = n - 1 downto 0 do
    let v = order.(k) in
    if parent.(v) >= 0 then subtree.(parent.(v)) <- subtree.(parent.(v)) + subtree.(v)
  done;
  (* Sector assignment, iterative DFS. *)
  let angles = Array.make n 0.0 in
  let assign root lo hi =
    let stack = Stack.create () in
    Stack.push (root, lo, hi) stack;
    while not (Stack.is_empty stack) do
      let v, lo, hi = Stack.pop stack in
      angles.(v) <- Float.rem ((lo +. hi) /. 2.0) two_pi;
      let total = float_of_int (subtree.(v) - 1) in
      if total > 0.0 then begin
        let cursor = ref lo in
        List.iter
          (fun c ->
            let span = (hi -. lo) *. float_of_int subtree.(c) /. total in
            Stack.push (c, !cursor, !cursor +. span) stack;
            cursor := !cursor +. span)
          children.(v)
      end
    done
  in
  let total_size = float_of_int n in
  let cursor = ref 0.0 in
  List.iter
    (fun (root, size) ->
      let span = two_pi *. float_of_int size /. total_size in
      assign root !cursor (!cursor +. span);
      cursor := !cursor +. span)
    roots;
  angles

let infer ~rng ~graph ?(fit_temperature = 0.5) ?(candidates = 32)
    ?(refinement_sweeps = 0) () =
  let n = Sparse_graph.Graph.n graph in
  if n = 0 then invalid_arg "Embed.infer: empty graph";
  let nf = float_of_int n in
  (* Degrees stand in for weights: degrees concentrate around Theta(w), and
     Theorem 3.5 tolerates the constant-factor error.  The floor keeps
     isolated vertices at the rim rather than at infinite radius. *)
  let w_floor = 0.5 in
  let weight v = Float.max w_floor (float_of_int (Sparse_graph.Graph.degree graph v)) in
  let radius v = 2.0 *. log (nf /. Float.min (nf /. 1.001) (weight v)) in
  let radius_c = -2.0 *. log w_floor in
  let params = Hrg.make ~alpha_h:0.75 ~radius_c ~temperature:0.0 ~n () in
  let big_r = Hrg.disk_radius params in
  let radii = Array.init n radius in
  let angles = sector_layout ~graph in
  (* Precomputed hyperbolic terms: cosh d(u,v) = ch_u ch_v - sh_u sh_v cos da. *)
  let ch = Array.map cosh radii and sh = Array.map sinh radii in
  let dist u_ch u_sh u_angle v =
    let x = (u_ch *. ch.(v)) -. (u_sh *. sh.(v) *. cos (u_angle -. angles.(v))) in
    let x = Float.max 1.0 x in
    log (x +. sqrt ((x -. 1.0) *. (x +. 1.0)))
  in
  (* Windowed likelihood refinement: each sweep lets a vertex move within a
     shrinking window around its current angle, towards the angle that best
     explains its edges.  The window is what prevents the attraction-only
     objective from collapsing the circle. *)
  let sweep_order = Array.init n Fun.id in
  let window = ref (Float.pi /. 2.0) in
  for _ = 1 to refinement_sweeps do
    Prng.Dist.shuffle_in_place rng sweep_order;
    Array.iter
      (fun v ->
        if Sparse_graph.Graph.degree graph v > 0 then begin
          let v_ch = ch.(v) and v_sh = sh.(v) in
          let score theta =
            Sparse_graph.Graph.fold_neighbors graph v ~init:0.0 ~f:(fun acc u ->
                acc +. log_p ~big_r ~t:fit_temperature (dist v_ch v_sh theta u))
          in
          let best = ref angles.(v) and best_score = ref (score angles.(v)) in
          for k = 0 to candidates - 1 do
            let frac = (2.0 *. float_of_int k /. float_of_int (candidates - 1)) -. 1.0 in
            let theta = angles.(v) +. (frac *. !window) in
            let s = score theta in
            if s > !best_score then begin
              best_score := s;
              best := theta
            end
          done;
          angles.(v) <- Float.rem (!best +. two_pi) two_pi
        end)
      sweep_order;
    window := !window /. 2.0
  done;
  let coords = Array.init n (fun v -> { Hrg.r = radii.(v); angle = angles.(v) }) in
  { params; coords }

let to_hrg t ~graph =
  let weights = Array.map (fun c -> Hrg.girg_weight t.params ~r:c.Hrg.r) t.coords in
  {
    Hrg.params = t.params;
    coords = t.coords;
    packed_coords = Hrg.pack_coords t.coords;
    weights;
    packed = Hrg.girg_packed t.coords;
    graph;
  }
