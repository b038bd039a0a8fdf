let distances g ~source =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(source) <- 0;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let du = dist.(u) in
    Graph.iter_neighbors g u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- du + 1;
          Queue.add v queue
        end)
  done;
  dist

(* Bidirectional BFS.  Frontiers expand alternately (smaller side first);
   the meet-in-the-middle distance is minimised over all contact edges found
   while expanding the level on which the frontiers first touch.

   State lives on the domain scratch: int columns 0 and 1 hold each side's
   distance (valid at stamped vertices: the first side to reach a vertex
   stamps it and sets both), columns 2 and 3 each side's discovery queue,
   whose last level is the current frontier.  A level is expanded whole
   before any check, so the order within it does not change the result. *)
type side = {
  dist : int array;
  queue : int array;
  mutable lo : int;  (* the frontier is queue.(lo .. hi-1) *)
  mutable hi : int;
  mutable depth : int;
}

let distance g ~source ~target =
  if source = target then Some 0
  else
    Scratch.with_domain ~n:(Graph.n g) @@ fun s ->
    let dist_s = Scratch.ints s 0 and dist_t = Scratch.ints s 1 in
    let dist d v = if Scratch.mem s v then d.(v) else -1 in
    let reach d v depth =
      if Scratch.add s v then begin
        dist_s.(v) <- -1;
        dist_t.(v) <- -1
      end;
      d.(v) <- depth
    in
    let side dist queue start =
      reach dist start 0;
      queue.(0) <- start;
      { dist; queue; lo = 0; hi = 1; depth = 0 }
    in
    let a = side dist_s (Scratch.ints s 2) source in
    let b = side dist_t (Scratch.ints s 3) target in
    let best = ref max_int in
    let expand mine other =
      mine.depth <- mine.depth + 1;
      let top = ref mine.hi in
      for i = mine.lo to mine.hi - 1 do
        Graph.iter_neighbors g mine.queue.(i) (fun v ->
            let dv = dist other.dist v in
            if dv >= 0 then begin
              let through = mine.depth + dv in
              if through < !best then best := through
            end;
            if dist mine.dist v < 0 then begin
              reach mine.dist v mine.depth;
              mine.queue.(!top) <- v;
              incr top
            end)
      done;
      mine.lo <- mine.hi;
      mine.hi <- !top
    in
    let result = ref None in
    let finished = ref false in
    while not !finished do
      let len_a = a.hi - a.lo and len_b = b.hi - b.lo in
      if !best < max_int && !best <= a.depth + b.depth + 1 then begin
        (* No shorter path can appear: any further meeting costs more. *)
        finished := true;
        result := Some !best
      end
      else if len_a = 0 || len_b = 0 then
        (* One side has exhausted its component without a meeting, so the
           pair is disconnected: each endpoint is stamped at depth 0, and
           an exhausted side would have reached the other. *)
        finished := true
      else if len_a <= len_b then expand a b
      else expand b a
    done;
    !result

let eccentricity_lower_bound g ~source =
  Array.fold_left max 0 (distances g ~source)
