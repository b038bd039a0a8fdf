(* Structured JSONL access log (smallworld.access.v1).

   One line per served request, written by the daemon's event loop
   when the request's last reply byte is flushed (or its peer
   vanishes); the buffer is mutex-guarded so any domain may log.  Lines
   are buffered and flushed when the buffer grows past a threshold or
   a couple of seconds have passed since the last flush — plus the
   periodic flushes of the event loop's housekeeping tick — so a
   crashed daemon loses at most the tail, not the whole log.

   Sampling is deterministic: with [sample = n] only requests whose id
   is divisible by n are logged, so a given request id either appears
   in the log or never does, regardless of timing. *)

module J = Obs.Export

let schema_version = "smallworld.access.v1"

type t = {
  oc : Out_channel.t;
  sample : int;
  lock : Mutex.t;
  buf : Buffer.t;
  mutable last_flush : float;
}

type entry = {
  req_id : int;
  client_id : int option;
  op : string;
  instance : string option;
  outcome : string;
  t_unix : float;
  queue_s : float;
  compute_s : float;
  render_s : float;
  write_s : float;
}

let flush_bytes = 32 * 1024
let flush_interval = 2.0

let create ~path ?(sample = 1) () =
  if sample < 1 then invalid_arg "Access_log.create: sample must be >= 1";
  let oc =
    Out_channel.open_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
  in
  { oc; sample; lock = Mutex.create (); buf = Buffer.create 4096;
    last_flush = Unix.gettimeofday () }

let ms s = Float.round (s *. 1e6) /. 1e3

let line_of_entry e =
  J.json_to_string
    (J.Obj
       ([ ("schema", J.Str schema_version); ("req", J.Int e.req_id) ]
       @ (match e.client_id with Some i -> [ ("id", J.Int i) ] | None -> [])
       @ [ ("op", J.Str e.op) ]
       @ (match e.instance with Some i -> [ ("instance", J.Str i) ] | None -> [])
       @ [
           ("outcome", J.Str e.outcome);
           ("t", J.Float e.t_unix);
           ("queue_ms", J.Float (ms e.queue_s));
           ("compute_ms", J.Float (ms e.compute_s));
           ("render_ms", J.Float (ms e.render_s));
           ("write_ms", J.Float (ms e.write_s));
           ( "total_ms",
             J.Float (ms (e.queue_s +. e.compute_s +. e.render_s +. e.write_s)) );
         ]))

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let flush_locked t =
  if Buffer.length t.buf > 0 then begin
    Out_channel.output_string t.oc (Buffer.contents t.buf);
    Buffer.clear t.buf;
    Out_channel.flush t.oc
  end;
  t.last_flush <- Unix.gettimeofday ()

let sampled t e = t.sample = 1 || e.req_id mod t.sample = 0

let log t e =
  if sampled t e then begin
    let line = line_of_entry e in
    locked t @@ fun () ->
    Buffer.add_string t.buf line;
    Buffer.add_char t.buf '\n';
    if
      Buffer.length t.buf >= flush_bytes
      || Unix.gettimeofday () -. t.last_flush >= flush_interval
    then flush_locked t
  end

let flush t = locked t @@ fun () -> flush_locked t

let close t =
  locked t @@ fun () ->
  flush_locked t;
  Out_channel.close t.oc
