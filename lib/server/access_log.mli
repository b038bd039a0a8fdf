(** Structured JSONL access log.

    Each served request becomes one [smallworld.access.v1] line:

    {v
    {"schema":"smallworld.access.v1","req":7,"id":3,"op":"route",
     "instance":"net","outcome":"ok","t":1754650000.123,
     "queue_ms":0.2,"compute_ms":1.7,"render_ms":0.1,"write_ms":0.05,
     "total_ms":2.05}
    v}

    [req] is the server-assigned request id, [id] the client's
    envelope id (when sent), [outcome] is ["ok"] or the error-taxonomy
    code of the failure.  Stage timings are milliseconds (3 decimal
    places).  Lines are buffered and flushed on size/time thresholds
    and from the daemon's housekeeping tick, not only at drain. *)

val schema_version : string
(** ["smallworld.access.v1"]. *)

type t

type entry = {
  req_id : int;
  client_id : int option;
  op : string;  (** wire op name, or ["invalid"] for unparseable lines *)
  instance : string option;
  outcome : string;  (** ["ok"] or an {!Api.Error} code string *)
  t_unix : float;  (** request start, epoch seconds *)
  queue_s : float;
  compute_s : float;
  render_s : float;
  write_s : float;
}

val create : path:string -> ?sample:int -> unit -> t
(** Open [path] for appending.  [sample = n] keeps one request in [n]
    (by [req_id mod n = 0]; default 1 = everything).
    @raise Invalid_argument when [sample < 1]. *)

val log : t -> entry -> unit
(** Thread-safe; a no-op for requests the sampler drops. *)

val line_of_entry : entry -> string
(** The exact line [log] writes (no trailing newline) — exposed for
    tests. *)

val flush : t -> unit
val close : t -> unit
