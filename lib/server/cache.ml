module V1 = Api.V1

type slot =
  | Computing  (** a leader is computing; followers wait on [cond] *)
  | Value of { v : V1.response; mutable stamp : int }

type t = {
  cache_cap : int;
  mutex : Mutex.t;
  cond : Condition.t;
  table : (string, slot) Hashtbl.t;
  mutable clock : int;
  hits : Obs.Metrics.counter;
  misses : Obs.Metrics.counter;
  coalesced : Obs.Metrics.counter;
  evictions : Obs.Metrics.counter;
}

let create ~metrics ~cap =
  if cap < 0 then invalid_arg "Cache.create: cap must be >= 0";
  {
    cache_cap = cap;
    mutex = Mutex.create ();
    cond = Condition.create ();
    table = Hashtbl.create (max 16 (min cap 4096));
    clock = 0;
    hits = Obs.Metrics.counter ~registry:metrics "server.cache.hits";
    misses = Obs.Metrics.counter ~registry:metrics "server.cache.misses";
    coalesced = Obs.Metrics.counter ~registry:metrics "server.cache.coalesced";
    evictions = Obs.Metrics.counter ~registry:metrics "server.cache.evictions";
  }

let cap t = t.cache_cap
let hits t = Obs.Metrics.counter_value t.hits
let misses t = Obs.Metrics.counter_value t.misses
let coalesced t = Obs.Metrics.counter_value t.coalesced
let evictions t = Obs.Metrics.counter_value t.evictions

(* '|'-joined fields; the name goes last (names may themselves contain
   '|', but nothing after the name is parsed back, so the key stays
   unambiguous for equality). *)
let route_key ~name ~generation ~protocol ~max_steps ~source ~target =
  Printf.sprintf "route|%s|%s|%d|%d|%s#%d"
    (Greedy_routing.Protocol.name protocol)
    (match max_steps with None -> "-" | Some n -> string_of_int n)
    source target name generation

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Completed entries only (Computing slots are pinned by their leader
   and never evicted).  Under the mutex. *)
let value_count t =
  Hashtbl.fold (fun _ s n -> match s with Value _ -> n + 1 | Computing -> n) t.table 0

let size t = locked t (fun () -> value_count t)

(* Under the mutex. *)
let touch t = function
  | Value v ->
      t.clock <- t.clock + 1;
      v.stamp <- t.clock
  | Computing -> ()

let evict_over_cap t =
  while value_count t > t.cache_cap do
    let victim =
      Hashtbl.fold
        (fun key s best ->
          match (s, best) with
          | Computing, _ -> best
          | Value v, Some (_, bs) when bs <= v.stamp -> best
          | Value v, _ -> Some (key, v.stamp))
        t.table None
    in
    match victim with
    | Some (key, _) ->
        Hashtbl.remove t.table key;
        Obs.Metrics.incr t.evictions
    | None -> ()
  done

let cacheable = function V1.Routed _ -> true | _ -> false

let find_or_compute t ?(cache_if = fun _ -> true) ~key f =
  if t.cache_cap = 0 then f ()
  else begin
    Mutex.lock t.mutex;
    let rec claim ~waited =
      match Hashtbl.find_opt t.table key with
      | Some (Value v as s) ->
          touch t s;
          (* A follower woken into a completed entry is already counted
             as coalesced; only first-lookup hits count as hits. *)
          if not waited then Obs.Metrics.incr t.hits;
          Mutex.unlock t.mutex;
          `Done v.v
      | Some Computing ->
          if not waited then Obs.Metrics.incr t.coalesced;
          Condition.wait t.cond t.mutex;
          claim ~waited:true
      | None ->
          (* First caller — or first follower after a failed leader —
             becomes the (new) leader. *)
          Obs.Metrics.incr t.misses;
          Hashtbl.replace t.table key Computing;
          Mutex.unlock t.mutex;
          `Lead
    in
    match claim ~waited:false with
    | `Done v -> v
    | `Lead ->
        let result = try Ok (f ()) with exn -> Error exn in
        Mutex.lock t.mutex;
        (match result with
        | Ok r when cacheable r && cache_if r ->
            let s = Value { v = r; stamp = 0 } in
            Hashtbl.replace t.table key s;
            touch t s;
            evict_over_cap t
        | Ok _ | Error _ -> Hashtbl.remove t.table key);
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex;
        (match result with Ok r -> r | Error exn -> raise exn)
  end

let invalidate_name t ~name =
  if t.cache_cap > 0 then
    locked t @@ fun () ->
    (* Keys end with "|<name>#<gen>"; the last '#' separates the
       (digits-only) generation, so matching "|<name>" right before it
       is exact even for names containing '|' or '#'. *)
    let want = "|" ^ name in
    let wl = String.length want in
    let matches key =
      match String.rindex_opt key '#' with
      | Some j -> j >= wl && String.sub key (j - wl) wl = want
      | None -> false
    in
    let doomed =
      Hashtbl.fold
        (fun key s acc ->
          match s with Computing -> acc | Value _ -> if matches key then key :: acc else acc)
        t.table []
    in
    List.iter (Hashtbl.remove t.table) doomed
