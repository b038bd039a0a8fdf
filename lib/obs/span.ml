(* Nestable timed scopes forming a rolled-up call tree.

   Completed spans merge into their parent's children by name (wall time,
   allocation and invocation counts accumulate; grandchildren merge
   recursively), so loops produce one aggregated node per distinct name
   rather than one node per iteration — the tree is a profile, not a log.
   Spans finishing with no parent on the stack become trace roots
   (collected until [clear_roots]).  The whole machinery is disabled
   together with metrics: with SMALLWORLD_OBS=0, [with_] is just an
   application of its argument.

   Domain safety: the open-frame stack is domain-local (Domain.DLS), so
   spans nest within the domain that opened them — a span opened inside
   a Parallel pool task parents to whatever is open on that worker
   domain, not to the submitter's enclosing span.  The finished-roots
   list is mutex-guarded, so rootless spans from any domain land in
   [roots ()] without racing.  Note the GC counters are per-domain in
   OCaml 5, so a span's [alloc_bytes] covers only allocation done on its
   own domain. *)

type t = {
  name : string;
  mutable count : int;
  mutable wall_s : float;
  mutable alloc_bytes : float;
  mutable children : t list;  (* first-seen order *)
}

let enabled = Metrics.enabled

(* [Gc.allocated_bytes], and the minor term of [Gc.counters], undercount
   minor allocation between minor collections and catch up at each one,
   so a short window reads low or jumps depending on how full the minor
   heap was on entry.  [Gc.minor_words] is exact for the minor heap; the
   major and promoted terms of [Gc.counters] are exact, and their
   difference is what went to the major heap directly. *)
let allocated_bytes () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  (minor +. major -. promoted) *. float_of_int (Sys.word_size / 8)

type frame = { span : t; t0 : float; a0 : float }

let stack_key : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let roots_lock = Mutex.create ()
let finished_roots : t list ref = ref []

let rec absorb dst src =
  dst.count <- dst.count + src.count;
  dst.wall_s <- dst.wall_s +. src.wall_s;
  dst.alloc_bytes <- dst.alloc_bytes +. src.alloc_bytes;
  List.iter (fun c -> dst.children <- fst (merge_into dst.children c)) src.children

(* Merge [span] into [siblings]; returns the new list and the node that
   now carries the data (the existing sibling of the same name, if any). *)
and merge_into siblings span =
  match List.find_opt (fun c -> c.name = span.name) siblings with
  | Some dst ->
      absorb dst span;
      (siblings, dst)
  | None -> (siblings @ [ span ], span)

(* Merge a finalized frame into the enclosing scope (or the root list). *)
let finish stack fr =
  match !stack with
  | parent :: _ ->
      let siblings, dst = merge_into parent.span.children fr.span in
      parent.span.children <- siblings;
      dst
  | [] ->
      Mutex.lock roots_lock;
      let roots, dst = merge_into !finished_roots fr.span in
      finished_roots := roots;
      Mutex.unlock roots_lock;
      dst

let rec copy t = { t with children = List.map copy t.children }

(* Shared driver for [time] and [probe].  [capture] runs on the frame's
   own span after its clocks are finalized but before it merges into a
   same-name sibling — the only moment the tree still belongs to this
   invocation alone. *)
let run_frame ~name ~capture f =
  let stack = Domain.DLS.get stack_key in
  let fr =
    {
      span = { name; count = 1; wall_s = 0.0; alloc_bytes = 0.0; children = [] };
      t0 = Unix.gettimeofday ();
      a0 = allocated_bytes ();
    }
  in
  stack := fr :: !stack;
  let dst = ref fr.span in
  let result =
    Fun.protect
      ~finally:(fun () ->
        (match !stack with [] -> () | _ :: rest -> stack := rest);
        fr.span.wall_s <- Unix.gettimeofday () -. fr.t0;
        fr.span.alloc_bytes <- allocated_bytes () -. fr.a0;
        capture fr.span;
        dst := finish stack fr)
      f
  in
  (result, !dst)

let time ~name f =
  if not enabled then (f (), None)
  else begin
    let result, dst = run_frame ~name ~capture:ignore f in
    (result, Some dst)
  end

let probe ~name f =
  if not enabled then (f (), None)
  else begin
    let captured = ref None in
    let result, _ =
      run_frame ~name ~capture:(fun span -> captured := Some (copy span)) f
    in
    (result, !captured)
  end

let with_ ~name f = fst (time ~name f)

let roots () =
  Mutex.lock roots_lock;
  let r = !finished_roots in
  Mutex.unlock roots_lock;
  r

let clear_roots () =
  Mutex.lock roots_lock;
  finished_roots := [];
  Mutex.unlock roots_lock

let self_s t =
  let child_total = List.fold_left (fun acc c -> acc +. c.wall_s) 0.0 t.children in
  Float.max 0.0 (t.wall_s -. child_total)

let rec depth t = 1 + List.fold_left (fun acc c -> max acc (depth c)) 0 t.children
