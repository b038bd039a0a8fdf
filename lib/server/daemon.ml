module V1 = Api.V1
module Error = Api.Error
module B = Api.Binary

type config = {
  host : string;
  port : int;
  workers : int;
  queue_cap : int;
  registry_cap : int;
  max_batch : int;
  obs_out : string option;
  obs_interval : float;
  admin_port : int option;
  access_log : string option;
  access_sample : int;
  events_out : string option;
      (* flight-recorder ring, dumped once at drain (smallworld.events.v1) *)
  trace_out : string option;
      (* smallworld.trace.v1 sink: one record per traced request *)
  json_only : bool;
      (* refuse binary-framed clients with a JSON caller error *)
  cache_cap : int;
      (* route-cache capacity, 0 disables (see Cache) *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7441;
    workers = 4;
    queue_cap = 16;
    registry_cap = 8;
    max_batch = 4096;
    obs_out = None;
    obs_interval = 60.0;
    admin_port = None;
    access_log = None;
    access_sample = 1;
    events_out = None;
    trace_out = None;
    json_only = false;
    cache_cap = 4096;
  }

type codec = C_unknown | C_json | C_binary

(* Everything needed to finish a request's bookkeeping once its reply
   bytes hit the socket: stage timings, trace context, access-log
   fields.  Produced by the worker, consumed by the event loop when
   the reply chunk finishes flushing. *)
type fin = {
  f_req_id : int;
  f_client_id : int option;
  f_op : string option;
  f_instance : string option;
  f_outcome : string;
  f_t_start : float;
  f_queue_s : float;
  f_compute_s : float;
  f_render_s : float;
  f_traced : (V1.trace_ctx * Obs.Span.t) option;
  mutable f_flush_t0 : float;
}

type wchunk = { w_bytes : Bytes.t; mutable w_off : int; w_fin : fin option }

type conn = {
  c_fd : Unix.file_descr;
  mutable c_codec : codec;
  mutable c_rbuf : Bytes.t;
  mutable c_rlen : int;
  mutable c_scanned : int;  (* newline scan resume point (JSON codec) *)
  c_wq : wchunk Queue.t;
  mutable c_inflight : bool;  (* one dispatched request at a time *)
  mutable c_skip : int;  (* oversized-frame payload bytes left to discard *)
  mutable c_eof : bool;
  mutable c_dead : bool;
  mutable c_close_after_flush : bool;
  c_admin : bool;  (* accepted on the admin listener *)
}

type job = {
  j_conn : conn;
  j_payload : string;  (* JSON line (sans newline) or binary frame payload *)
  j_codec : codec;
  j_req_id : int;
  j_enqueued : float;
}

type completion = { d_conn : conn; d_bytes : Bytes.t; d_fin : fin }

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  admin : (Unix.file_descr * int) option;
  ex : Exec.t;
  ev : Evloop.t;
  (* Pending *requests* (not connections): the event loop refuses with
     [overloaded] past [queue_cap], workers pop. *)
  jobs : job Queue.t;
  qmutex : Mutex.t;
  qcond : Condition.t;
  (* Finished requests travelling back to the event loop for writing. *)
  completions : completion Queue.t;
  cmutex : Mutex.t;
  (* Connection table, main and admin; owned exclusively by the
     event-loop domain. *)
  conns : (Unix.file_descr, conn) Hashtbl.t;
  mutable admin_open : int;  (* admin connections in [conns] *)
  (* Dispatched jobs without a collected completion or refusal: every
     queued job and every uncollected completion is counted, so 0 means
     both queues are empty. *)
  mutable outstanding : int;
  alog : Access_log.t option;
  (* Mutex-guarded JSONL sink for per-request trace records. *)
  trace_log : (Mutex.t * out_channel) option;
  manifest_now : bool Atomic.t;
  mutable last_manifest : float;
  (* Stage clocks cost one gettimeofday each; skip them entirely when
     neither obs nor the access log can consume the result. *)
  timing : bool;
  mutable worker_domains : unit Domain.t list;
}

(* The event loop's tick: the housekeeping timer's resolution and a
   safety net.  The request path never waits on it: completions wake
   the event loop through the self-pipe. *)
let poll_interval = 0.2

(* select(2) rejects any fd >= FD_SETSIZE (1024 on Linux) with EINVAL,
   so the connection table must stay comfortably below it — the slack
   covers the admin connections, the listen fds, the self-pipe, log
   files, and stdio.  At the cap the listen fd is dropped from the
   readiness set (fresh connections wait in the accept backlog) and any
   burst that was already accepted is refused with [overloaded] and
   closed. *)
let max_conns = 960

(* The same bound for admin connections, counted apart so scrapes still
   answer when the main plane is at its cap; also the admin backlog. *)
let admin_cap = 16

(* A request line larger than this is hostile; drop the connection
   rather than buffer without bound. *)
let max_line_bytes = 16 * 1024 * 1024

(* Read-buffer ceiling: one maximal frame or line plus header slack. *)
let buf_cap_limit = max_line_bytes + 64

let overloaded_error cap =
  Error.make Error.Overloaded "request queue full (%d pending requests); retry later"
    cap

let conn_limit_error cap =
  Error.make Error.Overloaded
    "connection limit reached (%d concurrent connections); retry later" cap

let draining_error =
  Error.make Error.Draining "server is draining and no longer accepts work"

let json_only_error =
  Error.make Error.Bad_request
    "binary framing is disabled on this server; send newline-delimited JSON"

let oversized_frame_error declared =
  Error.make Error.Bad_request
    "frame payload of %d bytes exceeds the %d-byte limit; split the request"
    declared B.max_frame_bytes

let render_reply codec reply =
  match codec with
  | C_json -> V1.reply_line reply ^ "\n"
  | C_binary | C_unknown -> B.reply_frame reply

let wake_all t =
  Mutex.lock t.qmutex;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qmutex

let outcome_of = function
  | V1.Failed e -> Error.code_string e.Error.code
  | _ -> "ok"

(* A synthesized span for a stage the span machinery did not itself
   time (queue wait, render, write): the trace record shows them as
   leaf children of the request root. *)
let stage_span name wall_s =
  { Obs.Span.name; count = 1; wall_s; alloc_bytes = 0.0; children = [] }

(* One smallworld.trace.v1 record for a traced request.  The server's
   span id is the negated request id: request ids are positive and
   clients declare positive span ids, so the two namespaces can never
   collide inside one merged trace file. *)
let write_trace_record t ~ctx ~req_id ~compute_tree ~queue_s ~compute_s ~render_s
    ~write_s ~t_start =
  Option.iter
    (fun (mu, oc) ->
      let root =
        {
          Obs.Span.name = "server.request";
          count = 1;
          wall_s = queue_s +. compute_s +. render_s +. write_s;
          alloc_bytes = compute_tree.Obs.Span.alloc_bytes;
          children =
            [
              stage_span "stage.queue_wait" queue_s;
              compute_tree;
              stage_span "stage.render" render_s;
              stage_span "stage.write" write_s;
            ];
        }
      in
      let record =
        {
          Obs.Export.tr_trace = ctx.V1.trace_id;
          tr_span = -req_id;
          tr_parent = Some ctx.V1.parent_span;
          tr_origin = "server";
          tr_t0 = t_start;
          tr_root = root;
        }
      in
      Mutex.lock mu;
      output_string oc (Obs.Export.trace_line record);
      output_char oc '\n';
      flush oc;
      Mutex.unlock mu)
    t.trace_log

(* ------------------------------------------------------------------ *)
(* Event-loop side: connection I/O, framing, dispatch.  Everything in
   this section runs on the single event-loop domain unless noted. *)

let finalize t fin ~write_s =
  if t.timing then
    Exec.observe_stages t.ex ?op:fin.f_op ~compute:fin.f_compute_s
      ~render:fin.f_render_s ~write:write_s ();
  Option.iter
    (fun (ctx, compute_tree) ->
      write_trace_record t ~ctx ~req_id:fin.f_req_id ~compute_tree
        ~queue_s:fin.f_queue_s ~compute_s:fin.f_compute_s ~render_s:fin.f_render_s
        ~write_s ~t_start:fin.f_t_start)
    fin.f_traced;
  Option.iter
    (fun alog ->
      Access_log.log alog
        {
          Access_log.req_id = fin.f_req_id;
          client_id = fin.f_client_id;
          op = Option.value fin.f_op ~default:"invalid";
          instance = fin.f_instance;
          outcome = fin.f_outcome;
          t_unix = fin.f_t_start;
          queue_s = fin.f_queue_s;
          compute_s = fin.f_compute_s;
          render_s = fin.f_render_s;
          write_s;
        })
    t.alog;
  Exec.end_request t.ex

(* Killing a connection must still retire its unflushed requests, or
   the inflight gauge (begin/end_request) never balances. *)
let mark_dead t conn =
  if not conn.c_dead then begin
    conn.c_dead <- true;
    Queue.iter
      (fun ch -> Option.iter (fun fin -> finalize t fin ~write_s:0.0) ch.w_fin)
      conn.c_wq;
    Queue.clear conn.c_wq
  end

(* Per-connection blast shield for the event loop: nothing above the
   loop catches, so an unexpected exception while parsing or flushing
   one connection must cost that connection, not the daemon. *)
let conn_protect t conn f =
  try f ()
  with _ -> mark_dead t conn

let rec try_flush t conn =
  if not conn.c_dead then
    match Queue.peek_opt conn.c_wq with
    | None -> ()
    | Some ch -> (
        let remaining = Bytes.length ch.w_bytes - ch.w_off in
        match Unix.write conn.c_fd ch.w_bytes ch.w_off remaining with
        | n ->
            ch.w_off <- ch.w_off + n;
            if ch.w_off = Bytes.length ch.w_bytes then begin
              ignore (Queue.pop conn.c_wq);
              Option.iter
                (fun fin ->
                  let write_s =
                    if t.timing then
                      Float.max 0.0 (Unix.gettimeofday () -. fin.f_flush_t0)
                    else 0.0
                  in
                  finalize t fin ~write_s)
                ch.w_fin;
              try_flush t conn
            end
            (* partial write: the socket buffer is full; select tells us
               when to resume *)
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error (EINTR, _, _) -> try_flush t conn
        | exception Unix.Unix_error _ -> mark_dead t conn)

let enqueue t conn s =
  if not conn.c_dead then begin
    Queue.push { w_bytes = Bytes.of_string s; w_off = 0; w_fin = None } conn.c_wq;
    try_flush t conn
  end

let enqueue_reply t conn ~codec reply = enqueue t conn (render_reply codec reply)

let close_conn t conn =
  mark_dead t conn;
  Hashtbl.remove t.conns conn.c_fd;
  if conn.c_admin then t.admin_open <- t.admin_open - 1;
  try Unix.close conn.c_fd with Unix.Unix_error _ -> ()

(* Backpressure: stop reading while a request is dispatched or a reply
   is still flushing — a client cannot pump unbounded pipelined work
   into the daemon.  Oversized-frame discards keep reading regardless
   (the bytes are thrown away, not buffered). *)
let want_read conn =
  (not conn.c_dead) && (not conn.c_eof)
  && (not conn.c_close_after_flush)
  && (conn.c_skip > 0 || ((not conn.c_inflight) && Queue.is_empty conn.c_wq))

let should_close t conn =
  conn.c_dead
  || ((not conn.c_inflight)
     && Queue.is_empty conn.c_wq
     && (conn.c_eof || conn.c_close_after_flush || Exec.draining t.ex))

(* Worker -> event loop.  Wake only on the empty->non-empty
   transition: a non-empty queue already has an unconsumed wakeup byte
   in flight, so back-to-back completions cost one pipe write. *)
let push_completion t c =
  Mutex.lock t.cmutex;
  let was_empty = Queue.is_empty t.completions in
  Queue.push c t.completions;
  Mutex.unlock t.cmutex;
  if was_empty then Evloop.wakeup t.ev

(* Event loop -> workers.  Request ids are assigned here, on the one
   domain that reads sockets, so ids are ordered by arrival. *)
let dispatch t conn ~payload ~codec =
  Mutex.lock t.qmutex;
  if Queue.length t.jobs >= t.config.queue_cap then begin
    Mutex.unlock t.qmutex;
    (* Answer right here on the event loop — an overload can never
       wedge the daemon, and the connection survives to retry. *)
    Exec.note_rejected t.ex;
    enqueue_reply t conn ~codec
      { V1.reply_id = None; response = V1.Failed (overloaded_error t.config.queue_cap) }
  end
  else begin
    let job =
      {
        j_conn = conn;
        j_payload = payload;
        j_codec = codec;
        j_req_id = Exec.next_request_id t.ex;
        j_enqueued = Unix.gettimeofday ();
      }
    in
    Queue.push job t.jobs;
    Condition.signal t.qcond;
    Mutex.unlock t.qmutex;
    conn.c_inflight <- true;
    t.outstanding <- t.outstanding + 1
  end

let consume conn n =
  Bytes.blit conn.c_rbuf n conn.c_rbuf 0 (conn.c_rlen - n);
  conn.c_rlen <- conn.c_rlen - n;
  conn.c_scanned <- 0

(* The first byte of a connection selects the codec: 0xB1 is binary
   framing, anything else (in particular '{') stays on the JSON line
   codec, so old clients keep working unchanged. *)
let negotiate t conn =
  if conn.c_codec = C_unknown && conn.c_rlen > 0 then begin
    if Bytes.get conn.c_rbuf 0 = B.magic then
      if t.config.json_only then begin
        enqueue_reply t conn ~codec:C_json
          { V1.reply_id = None; response = V1.Failed json_only_error };
        conn.c_close_after_flush <- true
      end
      else conn.c_codec <- C_binary
    else conn.c_codec <- C_json
  end

(* The admin plane: connections accepted on the admin listener are
   answered inline here, off the worker queue and the compute mutex, so
   telemetry answers while every worker is busy.  Requests here are
   out-of-band — they do not move the server.* counters. *)

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

let stats_reply t =
  { V1.reply_id = None; response = V1.Server_stats_reply (Exec.server_stats t.ex) }

let admin_restricted =
  Error.make Error.Bad_request
    "the admin port answers stats-server and health only; send compute requests \
     to the main port"

let admin_json t line =
  match V1.envelope_of_line line with
  | Error e -> { V1.reply_id = None; response = V1.Failed e }
  | Ok env -> (
      match env.V1.request with
      | V1.Server_stats -> { (stats_reply t) with V1.reply_id = env.id }
      | V1.Health -> { V1.reply_id = env.id; response = V1.Health_reply (Exec.health t.ex) }
      | _ -> { V1.reply_id = env.id; response = V1.Failed admin_restricted })

let admin_http t line =
  let path = match String.split_on_char ' ' line with _ :: p :: _ -> p | _ -> "/" in
  match path with
  | "/metrics" ->
      http_response ~status:"200 OK" ~content_type:"text/plain; version=0.0.4"
        (Exec.prometheus t.ex)
  | "/" | "/stats" | "/stats-server" ->
      http_response ~status:"200 OK" ~content_type:"application/json"
        (V1.reply_line (stats_reply t) ^ "\n")
  | _ ->
      http_response ~status:"404 Not Found" ~content_type:"text/plain"
        "not found (try /metrics or /stats)\n"

(* The next complete line in the read buffer, newline stripped; a
   partial line longer than [max_line_bytes] is hostile and kills the
   connection. *)
let take_line t conn =
  let rec find_nl i =
    if i >= conn.c_rlen then None
    else if Bytes.get conn.c_rbuf i = '\n' then Some i
    else find_nl (i + 1)
  in
  match find_nl conn.c_scanned with
  | Some i ->
      let line = Bytes.sub_string conn.c_rbuf 0 i in
      consume conn (i + 1);
      Some line
  | None ->
      conn.c_scanned <- conn.c_rlen;
      if conn.c_rlen > max_line_bytes then mark_dead t conn;
      None

(* Admin connections are answered inline, one line per flushed reply:
   a first line starting with "GET " gets an HTTP reply and the
   connection closes after it; any other line is a JSON request. *)
let rec pump_admin t conn =
  if
    (not (conn.c_dead || conn.c_close_after_flush || Exec.draining t.ex))
    && Queue.is_empty conn.c_wq
  then
    match take_line t conn with
    | None -> ()
    | Some line when conn.c_codec = C_unknown && String.starts_with ~prefix:"GET " line ->
        enqueue t conn (admin_http t line);
        conn.c_close_after_flush <- true
    | Some line ->
        conn.c_codec <- C_json;
        enqueue_reply t conn ~codec:C_json (admin_json t line);
        pump_admin t conn

(* Extract at most one request from the connection's read buffer and
   dispatch it.  At most one, because a dispatch flips [c_inflight]
   and the next request waits for the reply (FIFO per connection);
   oversized binary frames are refused inline and parsing continues. *)
let rec pump t conn =
  if conn.c_admin then pump_admin t conn
  else if not (conn.c_dead || conn.c_close_after_flush || Exec.draining t.ex) then begin
    if conn.c_skip > 0 && conn.c_rlen > 0 then begin
      let d = min conn.c_skip conn.c_rlen in
      consume conn d;
      conn.c_skip <- conn.c_skip - d
    end;
    if
      conn.c_skip = 0
      && (not conn.c_inflight)
      && Queue.is_empty conn.c_wq
      && conn.c_rlen > 0
    then begin
      negotiate t conn;
      match conn.c_codec with
      | C_unknown -> ()  (* json-only refusal queued above *)
      | C_json ->
          Option.iter
            (fun line -> dispatch t conn ~payload:line ~codec:C_json)
            (take_line t conn)
      | C_binary -> (
          (* unsafe_to_string: [parse] only reads, and only within
             [0, c_rlen) while we hold the buffer. *)
          match
            B.parse (Bytes.unsafe_to_string conn.c_rbuf) ~pos:0 ~len:conn.c_rlen
          with
          | B.Need -> ()
          | B.Frame { payload; consumed } ->
              consume conn consumed;
              dispatch t conn ~payload ~codec:C_binary
          | B.Oversized { declared; consumed } ->
              consume conn consumed;
              conn.c_skip <- declared;
              enqueue_reply t conn ~codec:C_binary
                {
                  V1.reply_id = None;
                  response = V1.Failed (oversized_frame_error declared);
                };
              (* discard whatever payload bytes already arrived *)
              pump t conn
          | B.Bad_version v ->
              (* Structured refusal naming the supported range, framed
                 in the one version this server speaks, then close. *)
              enqueue_reply t conn ~codec:C_binary
                {
                  V1.reply_id = None;
                  response =
                    V1.Failed
                      (Error.make Error.Unsupported_version
                         "unsupported binary protocol version %d (this server \
                          speaks v%d only)"
                         v B.version);
                };
              conn.c_close_after_flush <- true
          | B.Bad msg ->
              enqueue_reply t conn ~codec:C_binary
                {
                  V1.reply_id = None;
                  response = V1.Failed (Error.make Error.Bad_request "bad frame: %s" msg);
                };
              conn.c_close_after_flush <- true)
    end
  end

let conn_cap ~admin = if admin then admin_cap else max_conns

let at_cap t ~admin =
  (if admin then t.admin_open else Hashtbl.length t.conns - t.admin_open)
  >= conn_cap ~admin

let accept_new t lfd ~admin =
  let rec go () =
    match Unix.accept ~cloexec:true lfd with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
    | fd, _ when at_cap t ~admin ->
        (* The listen fd leaves the readiness set at the cap, but a
           burst accepted in this very loop can still overshoot: refuse
           (best-effort JSON — the codec was never negotiated) and
           close, keeping every selected fd below FD_SETSIZE. *)
        if not admin then Exec.note_rejected t.ex;
        let line =
          V1.reply_line
            { V1.reply_id = None; response = V1.Failed (conn_limit_error (conn_cap ~admin)) }
          ^ "\n"
        in
        (try ignore (Unix.single_write_substring fd line 0 (String.length line))
         with Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())
    | fd, _ ->
        if admin then t.admin_open <- t.admin_open + 1;
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        Hashtbl.replace t.conns fd
          {
            c_fd = fd;
            c_codec = C_unknown;
            c_rbuf = Bytes.create 8192;
            c_rlen = 0;
            c_scanned = 0;
            c_wq = Queue.create ();
            c_inflight = false;
            c_skip = 0;
            c_eof = false;
            c_dead = false;
            c_close_after_flush = false;
            c_admin = admin;
          };
        go ()
  in
  go ()

let ensure_space conn =
  let cap = Bytes.length conn.c_rbuf in
  if cap - conn.c_rlen < 8192 && cap < buf_cap_limit then begin
    let ncap = min buf_cap_limit (max (cap * 2) (conn.c_rlen + 65536)) in
    let nb = Bytes.create ncap in
    Bytes.blit conn.c_rbuf 0 nb 0 conn.c_rlen;
    conn.c_rbuf <- nb
  end

let read_conn t conn =
  ensure_space conn;
  let free = Bytes.length conn.c_rbuf - conn.c_rlen in
  if free = 0 then
    (* only reachable past the buffer ceiling: hostile input *)
    mark_dead t conn
  else
    match Unix.read conn.c_fd conn.c_rbuf conn.c_rlen free with
    | 0 -> conn.c_eof <- true
    | n -> conn.c_rlen <- conn.c_rlen + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> mark_dead t conn

let process_completions t =
  let batch = Queue.create () in
  Mutex.lock t.cmutex;
  Queue.transfer t.completions batch;
  Mutex.unlock t.cmutex;
  if not (Queue.is_empty batch) then begin
    let now = if t.timing then Unix.gettimeofday () else 0.0 in
    Queue.iter
      (fun c ->
        t.outstanding <- t.outstanding - 1;
        let conn = c.d_conn in
        conn.c_inflight <- false;
        if conn.c_dead then
          (* the peer vanished mid-request; retire the bookkeeping *)
          finalize t c.d_fin ~write_s:0.0
        else begin
          c.d_fin.f_flush_t0 <- now;
          Queue.push { w_bytes = c.d_bytes; w_off = 0; w_fin = Some c.d_fin } conn.c_wq;
          conn_protect t conn (fun () -> try_flush t conn)
        end)
      batch
  end

(* The one drain refusal: at drain the workers exit without popping,
   so every job still queued is refused from here and nothing is
   stranded. *)
let refuse_leftover_jobs t =
  let leftovers = ref [] in
  Mutex.lock t.qmutex;
  Queue.iter (fun j -> leftovers := j :: !leftovers) t.jobs;
  Queue.clear t.jobs;
  Mutex.unlock t.qmutex;
  List.iter
    (fun job ->
      t.outstanding <- t.outstanding - 1;
      job.j_conn.c_inflight <- false;
      Exec.note_rejected t.ex;
      enqueue_reply t job.j_conn ~codec:job.j_codec
        { V1.reply_id = None; response = V1.Failed draining_error })
    (List.rev !leftovers)

(* Write-then-rename, so a reader or a SIGKILL never sees a truncated
   manifest. *)
let write_manifest t =
  Option.iter
    (fun path ->
      let extra =
        List.map (fun (k, v) -> (k, Obs.Export.value_to_json v)) (Exec.snapshot t.ex)
      in
      let tmp = path ^ ".tmp" in
      Out_channel.with_open_text tmp (fun oc ->
          output_string oc
            (Obs.Export.manifest_line ~extra ~experiment:"serve" ~seed:0 ~scale:"serve"
               ~registry:Obs.Metrics.default ~span:None ());
          output_char oc '\n');
      Sys.rename tmp path)
    t.config.obs_out

(* Periodic telemetry flush, checked on every loop tick: rewrite the
   manifest every [obs_interval] seconds (and on {!request_manifest},
   wired to SIGHUP by bin/serve) and flush the access log, so a crashed
   or SIGKILLed daemon still leaves telemetry behind.  A failed write
   must not take the serving plane down; the drain-time write reports
   it. *)
let housekeep t =
  if t.config.obs_out <> None || t.alog <> None then begin
    let forced = Atomic.exchange t.manifest_now false in
    let due =
      t.config.obs_interval > 0.0
      && Unix.gettimeofday () -. t.last_manifest >= t.config.obs_interval
    in
    if forced || due then begin
      (try
         write_manifest t;
         Option.iter Access_log.flush t.alog
       with Sys_error _ -> ());
      t.last_manifest <- Unix.gettimeofday ()
    end
  end

(* The daemon's one I/O and timer domain, readiness-driven: main and
   admin sockets plus the housekeeping timer.  Never blocks on a
   socket — reads and writes are non-blocking, replies produced by
   worker domains arrive through [completions] plus a self-pipe
   wakeup. *)
let event_loop t =
  let finished = ref false in
  while not !finished do
    process_completions t;
    housekeep t;
    let draining = Exec.draining t.ex in
    if draining then begin
      refuse_leftover_jobs t;
      (* parked workers must observe the flag and exit *)
      wake_all t
    end;
    Hashtbl.iter (fun _ conn -> conn_protect t conn (fun () -> pump t conn)) t.conns;
    let doomed =
      Hashtbl.fold (fun _ c acc -> if should_close t c then c :: acc else acc) t.conns []
    in
    List.iter (close_conn t) doomed;
    if draining && t.outstanding = 0 && Hashtbl.length t.conns = 0 then finished := true
    else begin
      let read = ref [] in
      if not draining then begin
        if not (at_cap t ~admin:false) then read := [ t.listen_fd ];
        Option.iter
          (fun (fd, _) -> if not (at_cap t ~admin:true) then read := fd :: !read)
          t.admin
      end;
      let write = ref [] in
      Hashtbl.iter
        (fun fd conn ->
          if want_read conn then read := fd :: !read;
          if (not conn.c_dead) && not (Queue.is_empty conn.c_wq) then
            write := fd :: !write)
        t.conns;
      let readable, writable =
        Evloop.wait t.ev ~read:!read ~write:!write ~timeout:poll_interval
      in
      List.iter
        (fun fd ->
          match Hashtbl.find_opt t.conns fd with
          | Some conn -> conn_protect t conn (fun () -> try_flush t conn)
          | None -> ())
        writable;
      List.iter
        (fun fd ->
          if fd == t.listen_fd then accept_new t fd ~admin:false
          else
            match Hashtbl.find_opt t.conns fd with
            | Some conn ->
                conn_protect t conn (fun () ->
                    read_conn t conn;
                    pump t conn)
            | None -> accept_new t fd ~admin:true  (* the admin listener *))
        readable
    end
  done

(* ------------------------------------------------------------------ *)
(* Worker side: parse, execute, render.  Runs on the worker domains. *)

let process t (job : job) =
  let conn = job.j_conn in
  let queue_wait =
    if t.timing then Float.max 0.0 (Unix.gettimeofday () -. job.j_enqueued) else 0.0
  in
  if t.timing then Exec.note_queue_wait t.ex queue_wait;
  Exec.begin_request t.ex;
  Exec.note_accepted t.ex;
  let clock () = if t.timing then Unix.gettimeofday () else 0.0 in
  let t_start = clock () in
  let parsed =
    match job.j_codec with
    | C_json -> V1.envelope_of_line job.j_payload
    | C_binary | C_unknown -> B.envelope_of_payload job.j_payload
  in
  let client_id, op, instance, reply, traced =
    match parsed with
    | Error e -> (None, None, None, { V1.reply_id = None; response = V1.Failed e }, None)
    | Ok env ->
        let deadline =
          Option.map
            (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.0))
            env.V1.deadline_ms
        in
        (* Allocation and GC deltas around the compute stage, read on
           this worker domain; the reads only happen with obs on,
           preserving the zero-GC-read contract of SMALLWORLD_OBS=0. *)
        let gc0 =
          if Obs.Metrics.enabled then begin
            let g0 = Gc.quick_stat () in
            Some (g0, Obs.Span.allocated_bytes ())
          end
          else None
        in
        let handle () = Exec.handle t.ex ?deadline env.request in
        let response, traced =
          match env.trace with
          | Some ctx when t.trace_log <> None ->
              (* The probe snapshots this request's span tree (Exec's
                 server.<op> span plus the algorithm spans beneath it)
                 before it merges into the rolled-up profile. *)
              let response, tree = Obs.Span.probe ~name:"stage.compute" handle in
              (response, Option.map (fun tree -> (ctx, tree)) tree)
          | Some _ | None -> (handle (), None)
        in
        Option.iter
          (fun ((g0 : Gc.stat), a0) ->
            let a1 = Obs.Span.allocated_bytes () in
            let g1 = Gc.quick_stat () in
            Exec.observe_gc t.ex ~alloc_bytes:(a1 -. a0)
              ~collections:
                (g1.minor_collections - g0.minor_collections
                + (g1.major_collections - g0.major_collections)))
          gc0;
        ( env.id,
          Some (V1.op_of_request env.request),
          V1.instance_of_request env.request,
          { V1.reply_id = env.id; response },
          traced )
  in
  let t_computed = clock () in
  let out = render_reply job.j_codec reply in
  let t_rendered = clock () in
  let fin =
    {
      f_req_id = job.j_req_id;
      f_client_id = client_id;
      f_op = op;
      f_instance = instance;
      f_outcome = outcome_of reply.V1.response;
      f_t_start = t_start;
      f_queue_s = queue_wait;
      f_compute_s = t_computed -. t_start;
      f_render_s = t_rendered -. t_computed;
      f_traced = traced;
      f_flush_t0 = 0.0;
    }
  in
  push_completion t { d_conn = conn; d_bytes = Bytes.of_string out; d_fin = fin };
  (* A drain ack must wake parked workers so they can observe the flag
     and exit. *)
  if reply.V1.response = V1.Drain_ack then wake_all t

(* At drain a worker exits without popping: jobs still queued are
   refused by the event loop ({!refuse_leftover_jobs}). *)
let worker_loop t =
  let rec next () =
    Mutex.lock t.qmutex;
    while Queue.is_empty t.jobs && not (Exec.draining t.ex) do
      Condition.wait t.qcond t.qmutex
    done;
    if Exec.draining t.ex then Mutex.unlock t.qmutex
    else begin
      let job = Queue.pop t.jobs in
      Mutex.unlock t.qmutex;
      process t job;
      next ()
    end
  in
  next ()

let listen_on ~host ~port ~backlog =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (try Unix.bind fd addr
   with e ->
     Unix.close fd;
     raise e);
  Unix.listen fd backlog;
  Unix.set_nonblock fd;
  let bound =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  (fd, bound)

let create config =
  if config.workers < 1 then invalid_arg "Daemon.create: workers must be >= 1";
  if config.queue_cap < 1 then invalid_arg "Daemon.create: queue_cap must be >= 1";
  if config.access_sample < 1 then
    invalid_arg "Daemon.create: access_sample must be >= 1";
  if config.cache_cap < 0 then invalid_arg "Daemon.create: cache_cap must be >= 0";
  let listen_fd, bound_port =
    listen_on ~host:config.host ~port:config.port
      ~backlog:(config.queue_cap + config.workers)
  in
  let admin =
    match config.admin_port with
    | None -> None
    | Some p -> (
        match listen_on ~host:config.host ~port:p ~backlog:admin_cap with
        | fd_port -> Some fd_port
        | exception e ->
            (try Unix.close listen_fd with Unix.Unix_error _ -> ());
            raise e)
  in
  let alog =
    Option.map
      (fun path -> Access_log.create ~path ~sample:config.access_sample ())
      config.access_log
  in
  let trace_log =
    Option.map (fun path -> (Mutex.create (), Out_channel.open_text path)) config.trace_out
  in
  let t =
    {
      config;
      listen_fd;
      bound_port;
      admin;
      ex =
        Exec.create ~registry_cap:config.registry_cap ~max_batch:config.max_batch
          ~cache_cap:config.cache_cap ();
      ev = Evloop.create ();
      jobs = Queue.create ();
      qmutex = Mutex.create ();
      qcond = Condition.create ();
      completions = Queue.create ();
      cmutex = Mutex.create ();
      conns = Hashtbl.create 64;
      admin_open = 0;
      outstanding = 0;
      alog;
      trace_log;
      manifest_now = Atomic.make false;
      last_manifest = Unix.gettimeofday ();
      timing = Obs.Metrics.enabled || config.access_log <> None;
      worker_domains = [];
    }
  in
  Exec.set_queue_depth_source t.ex (fun () ->
      Mutex.lock t.qmutex;
      let n = Queue.length t.jobs in
      Mutex.unlock t.qmutex;
      n);
  t.worker_domains <-
    List.init config.workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let port t = t.bound_port
let admin_port t = Option.map snd t.admin
let exec t = t.ex

(* Safe from a signal handler: one atomic store and one self-pipe
   write; the event loop acts on it on its next iteration. *)
let request_manifest t =
  Atomic.set t.manifest_now true;
  Evloop.wakeup t.ev

(* Signal-safe like {!request_manifest}; the event loop broadcasts to
   the workers on its next iteration. *)
let stop t =
  Exec.start_drain t.ex;
  Evloop.wakeup t.ev

let serve t =
  Obs.Span.with_ ~name:"server.serve" (fun () ->
      event_loop t;
      wake_all t;
      List.iter Domain.join t.worker_domains;
      t.worker_domains <- [];
      Evloop.close t.ev;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        (t.listen_fd :: Option.to_list (Option.map fst t.admin)));
  write_manifest t;
  (* Drain-time finalization: the event ring (whatever survived the
     ring's overwrite window) lands alongside the access log. *)
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Obs.Export.write_events oc (Obs.Events.events ())))
    t.config.events_out;
  Option.iter (fun (_, oc) -> Out_channel.close oc) t.trace_log;
  Option.iter Access_log.close t.alog
