(** A minimal discrete-event message-passing simulator.

    Nodes are integers; behaviour is a handler invoked once per delivered
    message.  Handlers interact with the world exclusively through the
    {!api} they receive — sending messages (delivered after the link
    latency) and halting the simulation.  Exactly one handler runs at a
    time, which makes the paper's "only one node needs to be awake at a
    time" observation directly visible: the trace of a greedy route is a
    single chain of events. *)

type 'msg api = {
  self : int;  (** the node running the handler *)
  now : float;  (** current simulation time *)
  send : dst:int -> 'msg -> unit;  (** schedule delivery at [now + latency] *)
  halt : unit -> unit;  (** stop the simulation after this handler returns *)
}

type 'msg t

val create :
  n:int ->
  ?latency:(src:int -> dst:int -> float) ->
  ?msg_label:('msg -> string) ->
  handler:('msg api -> src:int -> 'msg -> unit) ->
  unit ->
  'msg t
(** [latency] defaults to a constant 1.0 per link.  [msg_label] (default
    [fun _ -> "msg"]) names message kinds in flight-recorder events.
    @raise Invalid_argument if [n < 0]. *)

val trace_id : 'msg t -> int
(** The causal-trace id of this simulation instance.  Every message
    carries [(trace_id, msg_id, parent_id)] lineage; when the flight
    recorder is on, sends and deliveries appear as
    {!Obs.Events.Msg_send} / {!Obs.Events.Msg_recv} events carrying it,
    so the message tree can be read off the event list: each send's
    [parent] is the message whose handler sent it. *)

val inject : 'msg t -> ?time:float -> dst:int -> 'msg -> unit
(** Enqueue an initial message, delivered at [time] (default 0.0) with
    source [dst] itself. *)

type stats = {
  deliveries : int;  (** handler invocations *)
  sends : int;  (** messages sent by handlers *)
  final_time : float;  (** delivery time of the last processed event *)
  halted : bool;  (** whether a handler called [halt] *)
  truncated : bool;
      (** the run stopped at [max_deliveries] with events still queued —
          distinct from a normal queue drain *)
}

val run : ?max_deliveries:int -> 'msg t -> stats
(** Process events until the queue drains, a handler halts, or
    [max_deliveries] (default 10^7) is reached.  The simulator feeds the
    [netsim.*] metrics (deliveries, sends, per-message latency, queue
    high-water mark, truncated runs). *)
