(** Hot-pair route cache with single-flight coalescing.

    Keys embed the instance's registry {e generation}, so a [load] or
    [sample] over an existing name can never serve a stale route: the
    new epoch's requests key differently and the old epoch's entries
    age out of the LRU (an {!invalidate_name} sweep drops them
    eagerly).  Concurrent requests for the same key are coalesced:
    one leader computes while followers block on a condition variable
    and share the result — a thundering herd on a hot pair computes
    once.  Only successful [Routed] replies are cached; failures
    (deadline, unknown instance, …) are per-request verdicts and are
    recomputed.

    The [server.cache.hits] / [.misses] / [.coalesced] / [.evictions]
    counters are stored once, in the {!Obs.Metrics.registry} given to
    {!create} (the owning server's own registry, live under
    [SMALLWORLD_OBS=0]); the accessors below read that registry. *)

type t

val create : metrics:Obs.Metrics.registry -> cap:int -> t
(** Registers the cache counters in [metrics].  [cap] is the LRU
    capacity in entries; [cap = 0] disables caching entirely
    ({!find_or_compute} always computes, counters stay 0). *)

val cap : t -> int

val route_key :
  name:string ->
  generation:int ->
  protocol:Greedy_routing.Protocol.t ->
  max_steps:int option ->
  source:int ->
  target:int ->
  string
(** The canonical cache key for a single-route request. *)

val find_or_compute :
  t ->
  ?cache_if:(Api.V1.response -> bool) ->
  key:string ->
  (unit -> Api.V1.response) ->
  Api.V1.response
(** Return the cached response for [key], or run the computation
    exactly once across all concurrent callers of the same key.  A
    leader whose result is not cacheable (anything but [Routed])
    releases its followers, and the first of them retries as the new
    leader (a failure is never shared).  [cache_if] (default: always)
    is consulted on the leader's result after the computation: when it
    returns [false] the result is returned but not stored — used by
    the executor to drop results whose instance generation no longer
    matches the generation baked into [key] (a replace raced the
    lookup), which would otherwise survive {!invalidate_name}. *)

val invalidate_name : t -> name:string -> unit
(** Eagerly drop every cached route for the named instance (all
    generations).  Called on registry insert-over. *)

val hits : t -> int
val misses : t -> int
val coalesced : t -> int
val evictions : t -> int

val size : t -> int
(** Cached (completed) entries currently held. *)
