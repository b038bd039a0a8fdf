type t = {
  mutable stamps : int array;  (* vertex v is stamped iff stamps.(v) = epoch *)
  mutable epoch : int;
  mutable ints : int array array;
  mutable floats : float array array;
  mutable trail : int array;  (* this epoch's trail is trail.(0 .. trail_len-1) *)
  mutable trail_len : int;
  mutable busy : bool;  (* held by [with_domain] *)
}

let create () =
  { stamps = [||]; epoch = 0; ints = [||]; floats = [||]; trail = [||]; trail_len = 0; busy = false }

let start s ~n =
  if s.busy then failwith "Sparse_graph.Scratch: nested use of the domain scratch";
  if n < 0 then invalid_arg "Sparse_graph.Scratch.start: negative n";
  (* Fresh stamps are 0 and the epoch only ever grows, so a stale epoch
     captured by a caller never matches again. *)
  if Array.length s.stamps < n then s.stamps <- Array.make n 0;
  if Array.length s.trail > n then s.trail <- [||];
  s.trail_len <- 0;
  s.epoch <- s.epoch + 1

let epoch s = s.epoch
let mem s v = s.stamps.(v) = s.epoch

let add s v =
  s.stamps.(v) <> s.epoch
  && begin
       s.stamps.(v) <- s.epoch;
       true
     end

(* Column [i] of [cols], (re)allocated at the current capacity on first
   use after a growth. *)
let column cols i ~cap ~make =
  let cols =
    if i < Array.length cols then cols
    else Array.append cols (Array.make (i + 1 - Array.length cols) [||])
  in
  if Array.length cols.(i) < cap then cols.(i) <- make cap;
  cols

let ints s i =
  s.ints <- column s.ints i ~cap:(Array.length s.stamps) ~make:(fun c -> Array.make c 0);
  s.ints.(i)

let floats s i =
  s.floats <- column s.floats i ~cap:(Array.length s.stamps) ~make:(fun c -> Array.make c 0.0);
  s.floats.(i)

let push s v =
  if s.trail_len = Array.length s.trail then begin
    let grown = Array.make (max 64 (2 * s.trail_len)) 0 in
    Array.blit s.trail 0 grown 0 s.trail_len;
    s.trail <- grown
  end;
  s.trail.(s.trail_len) <- v;
  s.trail_len <- s.trail_len + 1

let trail s =
  let rec build i acc = if i < 0 then acc else build (i - 1) (s.trail.(i) :: acc) in
  build (s.trail_len - 1) []

let key = Domain.DLS.new_key create

let with_domain ~n f =
  let s = Domain.DLS.get key in
  start s ~n;
  s.busy <- true;
  match f s with
  | r ->
      s.busy <- false;
      r
  | exception e ->
      s.busy <- false;
      raise e
