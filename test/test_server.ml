(* The serving layer: registry LRU/refcount invariants, Exec semantics
   (deadlines, batch limits, counters), and the TCP daemon end to end
   over a loopback socket — byte-identity of served routes with the
   local Render output, concurrent clients, backpressure, drain. *)

module V1 = Api.V1
module E = Api.Error

let ok ?(what = "result") = function
  | Ok v -> v
  | Error (e : E.t) -> Alcotest.failf "%s: unexpected error: %s" what (E.to_string e)

let failed_code = function
  | V1.Failed e -> Some e.E.code
  | _ -> None

let check_code what expected response =
  match failed_code response with
  | Some c when c = expected -> ()
  | Some c -> Alcotest.failf "%s: expected %s, got %s" what (E.code_string expected) (E.code_string c)
  | None -> Alcotest.failf "%s: expected the %s error, got a success" what (E.code_string expected)

(* A tiny deterministic instance (exact vertex count, so test pairs are
   always in range). *)
let tiny_model =
  V1.Girg (Girg.Params.make ~poisson_count:false ~n:400 ())

let tiny_instance seed = Api.Render.instantiate ~model:tiny_model ~seed

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let test_registry_lru () =
  let reg = Server.Registry.create ~cap:2 in
  let i1 = tiny_instance 1 and i2 = tiny_instance 2 and i3 = tiny_instance 3 in
  ignore (ok (Server.Registry.insert reg ~name:"a" i1));
  ignore (ok (Server.Registry.insert reg ~name:"b" i2));
  Alcotest.(check (list string)) "MRU order" [ "b"; "a" ] (Server.Registry.names reg);
  ignore (ok (Server.Registry.insert reg ~name:"c" i3));
  Alcotest.(check int) "capped" 2 (Server.Registry.size reg);
  (match Server.Registry.acquire reg "a" with
  | Error e -> Alcotest.(check bool) "a evicted" true (e.E.code = E.Unknown_instance)
  | Ok _ -> Alcotest.fail "oldest entry survived past capacity");
  let hb = ok (Server.Registry.acquire reg "b") in
  Server.Registry.release reg hb;
  (* b was just touched, so the next eviction must pick c. *)
  ignore (ok (Server.Registry.insert reg ~name:"d" i1));
  (match Server.Registry.acquire reg "c" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "LRU evicted the recently used entry instead");
  Alcotest.(check (list string)) "d, b live" [ "d"; "b" ] (Server.Registry.names reg)

let test_registry_pinning () =
  let reg = Server.Registry.create ~cap:2 in
  ignore (ok (Server.Registry.insert reg ~name:"a" (tiny_instance 1)));
  ignore (ok (Server.Registry.insert reg ~name:"b" (tiny_instance 2)));
  let ha = ok (Server.Registry.acquire reg "a") in
  (* a is pinned and older than b, yet eviction must take b. *)
  ignore (ok (Server.Registry.insert reg ~name:"c" (tiny_instance 3)));
  (match Server.Registry.acquire reg "b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unpinned entry survived while a pinned one was due");
  let hc = ok (Server.Registry.acquire reg "c") in
  (* Both entries pinned at capacity: insertion must refuse, not grow. *)
  (match Server.Registry.insert reg ~name:"d" (tiny_instance 4) with
  | Error e -> Alcotest.(check bool) "overloaded" true (e.E.code = E.Overloaded)
  | Ok _ -> Alcotest.fail "insert grew past capacity with every entry pinned");
  Server.Registry.release reg ha;
  Server.Registry.release reg hc;
  ignore (ok (Server.Registry.insert reg ~name:"d" (tiny_instance 4)))

let test_registry_replace_keeps_old_alive () =
  let reg = Server.Registry.create ~cap:2 in
  let old_inst = tiny_instance 1 and new_inst = tiny_instance 2 in
  ignore (ok (Server.Registry.insert reg ~name:"a" old_inst));
  let h = ok (Server.Registry.acquire reg "a") in
  ignore (ok (Server.Registry.insert reg ~name:"a" new_inst));
  Alcotest.(check bool) "holder keeps the old instance" true
    (Server.Registry.instance h == old_inst);
  let h' = ok (Server.Registry.acquire reg "a") in
  Alcotest.(check bool) "new lookups see the new instance" true
    (Server.Registry.instance h' == new_inst);
  Alcotest.(check int) "one name" 1 (Server.Registry.size reg);
  Server.Registry.release reg h;
  Server.Registry.release reg h'

(* Generations are monotone per name: bumped by every insert (replace
   included), never reset by eviction, and carried on handles so a
   holder can tell which epoch it pinned. *)
let test_registry_generation () =
  let reg = Server.Registry.create ~cap:2 in
  Alcotest.(check int) "unknown name is gen 0" 0 (Server.Registry.generation reg "a");
  ignore (ok (Server.Registry.insert reg ~name:"a" (tiny_instance 1)));
  Alcotest.(check int) "first insert" 1 (Server.Registry.generation reg "a");
  let h1 = ok (Server.Registry.acquire reg "a") in
  ignore (ok (Server.Registry.insert reg ~name:"a" (tiny_instance 2)));
  let h2 = ok (Server.Registry.acquire reg "a") in
  Alcotest.(check int) "replace bumps" 2 (Server.Registry.generation reg "a");
  Alcotest.(check int) "old holder's epoch" 1 (Server.Registry.handle_generation h1);
  Alcotest.(check int) "new holder's epoch" 2 (Server.Registry.handle_generation h2);
  Server.Registry.release reg h1;
  Server.Registry.release reg h2;
  (* Evict a (cap 2: inserting b and c pushes the oldest out), then
     reinsert it: the generation keeps counting from where it left off. *)
  ignore (ok (Server.Registry.insert reg ~name:"b" (tiny_instance 3)));
  ignore (ok (Server.Registry.insert reg ~name:"c" (tiny_instance 4)));
  Alcotest.(check bool) "a evicted" true
    (Result.is_error (Server.Registry.acquire reg "a"));
  ignore (ok (Server.Registry.insert reg ~name:"a" (tiny_instance 5)));
  Alcotest.(check int) "monotone across evict/reinsert" 3
    (Server.Registry.generation reg "a");
  Alcotest.(check (list (pair string int))) "generations listing"
    [ ("a", 3); ("c", 1) ]
    (Server.Registry.generations reg)

(* Replaced-but-pinned entries are orphans: live heaps no new request
   can reach.  The gauge counts them; releasing the last pin drops
   them out. *)
let test_registry_orphaned () =
  let reg = Server.Registry.create ~cap:4 in
  ignore (ok (Server.Registry.insert reg ~name:"a" (tiny_instance 1)));
  Alcotest.(check int) "empty registry" 0 (Server.Registry.orphaned reg);
  let h = ok (Server.Registry.acquire reg "a") in
  ignore (ok (Server.Registry.insert reg ~name:"a" (tiny_instance 2)));
  Alcotest.(check int) "pinned old entry is orphaned" 1 (Server.Registry.orphaned reg);
  (* A second replace while the first orphan is still pinned: the new
     old entry is unpinned, so it is garbage, not an orphan. *)
  ignore (ok (Server.Registry.insert reg ~name:"a" (tiny_instance 3)));
  Alcotest.(check int) "unpinned victims are not orphans" 1
    (Server.Registry.orphaned reg);
  Server.Registry.release reg h;
  Alcotest.(check int) "released orphan is swept" 0 (Server.Registry.orphaned reg);
  (* Eviction (refs = 0) never creates an orphan. *)
  let reg2 = Server.Registry.create ~cap:1 in
  ignore (ok (Server.Registry.insert reg2 ~name:"x" (tiny_instance 1)));
  ignore (ok (Server.Registry.insert reg2 ~name:"y" (tiny_instance 2)));
  Alcotest.(check int) "eviction is not orphaning" 0 (Server.Registry.orphaned reg2)

(* ------------------------------------------------------------------ *)
(* Exec                                                                *)

let sample_req name seed = V1.Sample { name; model = tiny_model; seed }

let test_exec_deadline_and_limits () =
  let ex = Server.Exec.create ~registry_cap:2 ~max_batch:2 () in
  (match Server.Exec.handle ex (sample_req "net" 1) with
  | V1.Sampled info -> Alcotest.(check int) "exact n" 400 info.V1.vertices
  | _ -> Alcotest.fail "sample failed");
  (* An already-expired deadline refuses deterministically (the deadline
     instant itself counts as expired). *)
  check_code "expired deadline" E.Deadline
    (Server.Exec.handle ex ~deadline:(Unix.gettimeofday ())
       (V1.Route { instance = "net"; source = 0; target = 1;
                   protocol = Greedy_routing.Protocol.Greedy; max_steps = None }));
  Alcotest.(check int) "deadline counted" 1 (Server.Exec.deadline_missed ex);
  check_code "oversized batch" E.Overloaded
    (Server.Exec.handle ex
       (V1.Route_batch { instance = "net"; pairs = V1.Pairs [ (0, 1); (2, 3); (4, 5) ];
                         protocol = Greedy_routing.Protocol.Greedy; max_steps = None }));
  Alcotest.(check int) "overload counted as rejected" 1 (Server.Exec.rejected ex);
  check_code "unknown instance" E.Unknown_instance
    (Server.Exec.handle ex (V1.Stats { instance = "ghost" }));
  check_code "out-of-range vertex" E.Bad_request
    (Server.Exec.handle ex
       (V1.Route { instance = "net"; source = 0; target = 400;
                   protocol = Greedy_routing.Protocol.Greedy; max_steps = None }));
  (* In-limit batch still serves. *)
  (match Server.Exec.handle ex
           (V1.Route_batch { instance = "net"; pairs = V1.Pairs [ (0, 1); (2, 3) ];
                             protocol = Greedy_routing.Protocol.Greedy; max_steps = None })
  with
  | V1.Routed_batch replies -> Alcotest.(check int) "batch size" 2 (List.length replies)
  | _ -> Alcotest.fail "in-limit batch failed");
  (match Server.Exec.handle ex V1.Health with
  | V1.Health_reply h ->
      Alcotest.(check bool) "not draining" false h.V1.draining;
      Alcotest.(check (list string)) "registry contents" [ "net" ] h.V1.instances
  | _ -> Alcotest.fail "health failed");
  (match Server.Exec.handle ex V1.Drain with
  | V1.Drain_ack -> ()
  | _ -> Alcotest.fail "drain failed");
  Alcotest.(check bool) "draining flag set" true (Server.Exec.draining ex)

(* The out-of-core ops: spill shards, merge them into the registry,
   snapshot a registered instance, and reject broken inputs with the
   right error codes. *)
let test_exec_out_of_core () =
  let dir = Filename.temp_file "smallworld-exec-ooc" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let ex = Server.Exec.create ~registry_cap:2 () in
  let params = Girg.Params.make ~poisson_count:false ~n:400 () in
  let spill shard =
    let out = Filename.concat dir (Printf.sprintf "s%d.spill" shard) in
    (match
       Server.Exec.handle ex (V1.Gen_shard { params; seed = 3; shards = 2; shard; out })
     with
    | V1.Spilled info ->
        Alcotest.(check int) "spill shard" shard info.V1.sp_shard;
        Alcotest.(check int) "spill vertices" 400 info.V1.sp_vertices
    | r -> Alcotest.failf "gen_shard %d failed: %s" shard (V1.op_of_response r));
    out
  in
  let s0 = spill 0 and s1 = spill 1 in
  (match Server.Exec.handle ex (V1.Merge_shards { name = "ooc"; spills = [ s0; s1 ] }) with
  | V1.Merged info ->
      Alcotest.(check string) "merged name" "ooc" info.V1.name;
      Alcotest.(check int) "merged vertices" 400 info.V1.vertices
  | r -> Alcotest.failf "merge_shards failed: %s" (V1.op_of_response r));
  (* The registered instance serves like any other. *)
  (match Server.Exec.handle ex (V1.Stats { instance = "ooc" }) with
  | V1.Stats_reply s ->
      Alcotest.(check int) "stats vertices" 400 s.V1.vertices;
      Alcotest.(check bool) "stats edges" true (s.V1.edges > 0)
  | _ -> Alcotest.fail "stats on merged instance failed");
  (* Snapshot, then mmap-load the file and compare shapes. *)
  let snap = Filename.concat dir "ooc.bin" in
  (match Server.Exec.handle ex (V1.Snapshot { instance = "ooc"; out = snap }) with
  | V1.Snapshotted info ->
      Alcotest.(check int) "snapshot bytes" (Unix.stat snap).Unix.st_size info.V1.sn_bytes;
      Alcotest.(check int) "snapshot vertices" 400 info.V1.sn_vertices
  | r -> Alcotest.failf "snapshot failed: %s" (V1.op_of_response r));
  (match Girg.Store.load_mmap ~path:snap with
  | Error e -> Alcotest.failf "mmap of served snapshot failed: %s" e
  | Ok inst ->
      Alcotest.(check int) "mmap vertices" 400 (Sparse_graph.Graph.n inst.Girg.Instance.graph));
  (* Error paths: incomplete spill set, unknown instance, bad shard range. *)
  check_code "incomplete spill set" E.Io
    (Server.Exec.handle ex (V1.Merge_shards { name = "bad"; spills = [ s0 ] }));
  check_code "snapshot of unknown instance" E.Unknown_instance
    (Server.Exec.handle ex (V1.Snapshot { instance = "ghost"; out = snap ^ ".x" }));
  check_code "shard out of range" E.Bad_request
    (Server.Exec.handle ex
       (V1.Gen_shard
          { params; seed = 3; shards = 2; shard = 7; out = Filename.concat dir "x.spill" }))

(* ------------------------------------------------------------------ *)
(* Daemon over loopback                                                *)

let send_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* Byte-at-a-time line read: test-only, replies are small. *)
let recv_line_opt fd =
  let buf = Buffer.create 256 in
  let one = Bytes.create 1 in
  let rec go () =
    match Unix.read fd one 0 1 with
    | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
    | _ -> if Bytes.get one 0 = '\n' then Some (Buffer.contents buf) else begin
        Buffer.add_char buf (Bytes.get one 0);
        go ()
      end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let recv_line fd =
  match recv_line_opt fd with
  | Some l -> l
  | None -> Alcotest.fail "connection closed before a reply line arrived"

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let rpc fd env =
  send_all fd (V1.request_line env ^ "\n");
  let line = recv_line fd in
  (ok ~what:line (V1.reply_of_line line)).V1.response

let with_daemon ?(workers = 2) ?(queue_cap = 8) ?(registry_cap = 4) ?(max_batch = 256)
    ?admin_port ?access_log ?(access_sample = 1) ?obs_out ?(obs_interval = 60.0)
    ?events_out ?trace_out ?(json_only = false) f =
  let config =
    { Server.Daemon.default_config with port = 0; workers; queue_cap; registry_cap;
      max_batch; admin_port; access_log; access_sample; obs_out; obs_interval;
      events_out; trace_out; json_only }
  in
  let t = Server.Daemon.create config in
  let server = Domain.spawn (fun () -> Server.Daemon.serve t) in
  Fun.protect
    ~finally:(fun () ->
      Server.Daemon.stop t;
      Domain.join server)
    (fun () -> f t (Server.Daemon.port t))

let route_req ?(protocol = Greedy_routing.Protocol.Patch_dfs) instance (source, target) =
  V1.Route { instance; source; target; protocol; max_steps = None }

let test_daemon_route_byte_identity () =
  with_daemon (fun _t port ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          (match rpc fd (V1.envelope (sample_req "net" 5)) with
          | V1.Sampled info -> Alcotest.(check int) "sampled n" 400 info.V1.vertices
          | r -> check_code "sample" E.Internal r);
          (* The daemon and this process run the same Render code on the
             same deterministic instance, so served routes must carry
             the exact bytes graphs_cli would print. *)
          let local = tiny_instance 5 in
          List.iter
            (fun pair ->
              match rpc fd (V1.envelope (route_req "net" pair)) with
              | V1.Routed served ->
                  let expected =
                    ok (Api.Render.route ~inst:local
                          ~protocol:Greedy_routing.Protocol.Patch_dfs
                          ~source:(fst pair) ~target:(snd pair) ())
                  in
                  Alcotest.(check string) "route text" expected.V1.text served.V1.text;
                  Alcotest.(check bool) "full reply" true (served = expected)
              | r -> check_code "route" E.Internal r)
            [ (0, 399); (17, 42); (100, 101) ]))

let test_daemon_batch_jobs_invariance () =
  with_daemon (fun _t port ->
      let fd = connect port in
      let prev_jobs = Parallel.Global.jobs () in
      Fun.protect
        ~finally:(fun () ->
          Unix.close fd;
          Parallel.Global.set_jobs prev_jobs)
        (fun () ->
          (match rpc fd (V1.envelope (sample_req "net" 6)) with
          | V1.Sampled _ -> ()
          | r -> check_code "sample" E.Internal r);
          let batch =
            V1.Route_batch
              {
                instance = "net";
                pairs = V1.Drawn { count = 32; pair_seed = 9; pool = V1.Giant };
                protocol = Greedy_routing.Protocol.Patch_history;
                max_steps = None;
              }
          in
          let texts_at jobs =
            (* The daemon shares this process's global pool, so resizing
               it here resizes the serving pool. *)
            Parallel.Global.set_jobs jobs;
            match rpc fd (V1.envelope batch) with
            | V1.Routed_batch replies -> List.map (fun r -> r.V1.text) replies
            | r ->
                check_code "batch" E.Internal r;
                []
          in
          let t1 = texts_at 1 in
          Alcotest.(check int) "batch size" 32 (List.length t1);
          Alcotest.(check (list string)) "jobs=2 identical" t1 (texts_at 2);
          Alcotest.(check (list string)) "jobs=4 identical" t1 (texts_at 4)))

let test_daemon_concurrent_clients () =
  with_daemon ~workers:4 (fun _t port ->
      let fd = connect port in
      let pairs = List.init 8 (fun i -> (i * 13 mod 400, (i * 29 + 200) mod 400)) in
      let sequential =
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
            (match rpc fd (V1.envelope (sample_req "net" 7)) with
            | V1.Sampled _ -> ()
            | r -> check_code "sample" E.Internal r);
            List.map
              (fun p ->
                match rpc fd (V1.envelope (route_req "net" p)) with
                | V1.Routed reply -> reply.V1.text
                | r ->
                    check_code "route" E.Internal r;
                    "")
              pairs)
      in
      let clients =
        List.map
          (fun p ->
            Domain.spawn (fun () ->
                let fd = connect port in
                Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
                    match rpc fd (V1.envelope (route_req "net" p)) with
                    | V1.Routed reply -> reply.V1.text
                    | _ -> "")))
          pairs
      in
      let concurrent = List.map Domain.join clients in
      Alcotest.(check (list string)) "8 concurrent clients match sequential"
        sequential concurrent)

let test_daemon_deadline_and_batch_limit () =
  with_daemon ~max_batch:4 (fun _t port ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          (match rpc fd (V1.envelope (sample_req "net" 8)) with
          | V1.Sampled _ -> ()
          | r -> check_code "sample" E.Internal r);
          check_code "deadline_ms=0" E.Deadline
            (rpc fd (V1.envelope ~deadline_ms:0 (route_req "net" (0, 1))));
          check_code "oversized batch" E.Overloaded
            (rpc fd
               (V1.envelope
                  (V1.Route_batch
                     {
                       instance = "net";
                       pairs = V1.Pairs [ (0, 1); (2, 3); (4, 5); (6, 7); (8, 9) ];
                       protocol = Greedy_routing.Protocol.Greedy;
                       max_steps = None;
                     })));
          (* The connection survives both refusals. *)
          match rpc fd (V1.envelope (route_req "net" (0, 1))) with
          | V1.Routed _ -> ()
          | r -> check_code "route after refusals" E.Internal r))

let test_daemon_burst_overload () =
  with_daemon ~workers:1 ~queue_cap:1 (fun _t port ->
      (* One worker, job queue of one: client A's slow sample owns the
         worker, B's request fills the queue, so C's request must be
         refused with 'overloaded' — answered by the event loop itself,
         and the connection survives to retry once the burst passes. *)
      let slow_model = V1.Girg (Girg.Params.make ~poisson_count:false ~n:100_000 ()) in
      let a = connect port and b = connect port and c = connect port in
      send_all a
        (V1.request_line (V1.envelope (V1.Sample { name = "big"; model = slow_model; seed = 1 }))
        ^ "\n");
      Unix.sleepf 0.25 (* the worker pops A's sample and is computing *);
      send_all b (V1.request_line (V1.envelope V1.Health) ^ "\n");
      Unix.sleepf 0.25 (* B's request reaches the job queue (depth 1 = cap) *);
      (match rpc c (V1.envelope V1.Health) with
      | V1.Failed e ->
          Alcotest.(check bool) "C refused" true (e.E.code = E.Overloaded)
      | _ -> Alcotest.fail "burst request got a success reply");
      (* Refusal happens per request now: the connection stays open, and
         once A's sample releases the worker C serves normally. *)
      (match (ok (V1.reply_of_line (recv_line a))).V1.response with
      | V1.Sampled _ -> ()
      | r -> check_code "A sample" E.Internal r);
      (match (ok (V1.reply_of_line (recv_line b))).V1.response with
      | V1.Health_reply _ -> ()
      | r -> check_code "B health after burst" E.Internal r);
      (match rpc c (V1.envelope V1.Health) with
      | V1.Health_reply _ -> ()
      | r -> check_code "C health after burst" E.Internal r);
      Unix.close a;
      Unix.close b;
      Unix.close c)

let test_daemon_drain_completes_in_flight () =
  with_daemon (fun t port ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          (match rpc fd (V1.envelope (sample_req "net" 9)) with
          | V1.Sampled _ -> ()
          | r -> check_code "sample" E.Internal r);
          (* Pipeline a batch and a drain on one connection: the batch
             (in flight when drain arrives) must still answer, in order,
             before the ack. *)
          let batch =
            V1.envelope
              (V1.Route_batch
                 {
                   instance = "net";
                   pairs = V1.Drawn { count = 16; pair_seed = 1; pool = V1.Any };
                   protocol = Greedy_routing.Protocol.Greedy;
                   max_steps = None;
                 })
          in
          send_all fd (V1.request_line batch ^ "\n");
          send_all fd (V1.request_line (V1.envelope V1.Drain) ^ "\n");
          (match (ok (V1.reply_of_line (recv_line fd))).V1.response with
          | V1.Routed_batch replies -> Alcotest.(check int) "in-flight batch" 16 (List.length replies)
          | r -> check_code "batch before drain" E.Internal r);
          (match (ok (V1.reply_of_line (recv_line fd))).V1.response with
          | V1.Drain_ack -> ()
          | r -> check_code "drain ack" E.Internal r));
      (* serve must now return on its own (stop in the harness finally
         would mask a hang here, so observe the counters first). *)
      Alcotest.(check bool) "drain flag" true (Server.Exec.draining (Server.Daemon.exec t)))

(* ------------------------------------------------------------------ *)
(* Binary wire codec against the live daemon                           *)

module B = Api.Binary

(* One request frame out, one reply frame back.  Returns the decoded
   reply record (not just the response) so callers can compare its
   re-rendered JSON line byte-for-byte with the JSON codec's output. *)
let brpc_reply fd env =
  send_all fd (B.request_frame env);
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match B.parse (Buffer.contents buf) ~pos:0 ~len:(Buffer.length buf) with
    | B.Frame { payload; _ } -> ok ~what:"reply frame" (B.reply_of_payload payload)
    | B.Need -> (
        match Unix.read fd chunk 0 4096 with
        | 0 -> Alcotest.fail "connection closed before a binary reply arrived"
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
    | B.Oversized _ | B.Bad _ | B.Bad_version _ ->
        Alcotest.fail "daemon sent a malformed reply frame"
  in
  go ()

let brpc fd env = (brpc_reply fd env).V1.response

let rpc_raw_line fd env =
  send_all fd (V1.request_line env ^ "\n");
  recv_line fd

(* A JSON client and a binary client on the same daemon: codecs are
   negotiated per connection, replies are byte-equivalent — the binary
   reply re-renders to exactly the line the JSON codec served. *)
let test_daemon_binary_codec () =
  with_daemon (fun _t port ->
      let fdj = connect port and fdb = connect port in
      Fun.protect
        ~finally:(fun () ->
          Unix.close fdj;
          Unix.close fdb)
        (fun () ->
          (match brpc fdb (V1.envelope (sample_req "net" 5)) with
          | V1.Sampled info -> Alcotest.(check int) "binary sample n" 400 info.V1.vertices
          | r -> check_code "binary sample" E.Internal r);
          List.iter
            (fun pair ->
              let env = V1.envelope ~id:7 (route_req "net" pair) in
              let json_line = rpc_raw_line fdj env in
              let breply = brpc_reply fdb env in
              Alcotest.(check string) "binary reply re-renders to the JSON line"
                json_line (V1.reply_line breply);
              match breply.V1.response with
              | V1.Routed _ -> ()
              | r -> check_code "binary route" E.Internal r)
            [ (0, 399); (17, 42); (100, 101) ]))

(* A frame delivered in tiny pieces across many TCP segments must
   parse exactly once the last byte lands. *)
let test_daemon_binary_partial_frames () =
  with_daemon (fun _t port ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          (match brpc fd (V1.envelope (sample_req "net" 5)) with
          | V1.Sampled _ -> ()
          | r -> check_code "sample" E.Internal r);
          let frame = B.request_frame (V1.envelope (route_req "net" (3, 300))) in
          let n = String.length frame in
          let third = max 1 (n / 3) in
          let rec drip off =
            if off < n then begin
              let len = min third (n - off) in
              send_all fd (String.sub frame off len);
              Unix.sleepf 0.05;
              drip (off + len)
            end
          in
          drip 0;
          let buf = Buffer.create 512 in
          let chunk = Bytes.create 4096 in
          let rec await () =
            match B.parse (Buffer.contents buf) ~pos:0 ~len:(Buffer.length buf) with
            | B.Frame { payload; _ } ->
                (ok ~what:"reply" (B.reply_of_payload payload)).V1.response
            | B.Need -> (
                match Unix.read fd chunk 0 4096 with
                | 0 -> Alcotest.fail "connection closed mid-drip"
                | n ->
                    Buffer.add_subbytes buf chunk 0 n;
                    await ())
            | B.Oversized _ | B.Bad _ | B.Bad_version _ -> Alcotest.fail "malformed reply frame"
          in
          (match await () with
          | V1.Routed _ -> ()
          | r -> check_code "dripped route" E.Internal r)))

(* A frame declaring a payload past the 16 MiB bound is a caller
   error: the daemon answers bad-request, discards the declared bytes
   as they arrive, and the connection keeps serving. *)
let test_daemon_binary_oversized () =
  with_daemon (fun _t port ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          (match brpc fd (V1.envelope (sample_req "net" 5)) with
          | V1.Sampled _ -> ()
          | r -> check_code "sample" E.Internal r);
          let declared = B.max_frame_bytes + 1 in
          send_all fd (B.frame (String.make declared 'x'));
          (match brpc fd (V1.envelope V1.Health) with
          | V1.Failed e ->
              Alcotest.(check bool) "oversized is a caller error" true
                (e.E.code = E.Bad_request)
          | _ -> Alcotest.fail "oversized frame was not refused");
          (* ^ that reply answered the oversized frame; the pipelined
             health now serves on the same connection. *)
          (match brpc fd (V1.envelope V1.Health) with
          | V1.Health_reply _ -> ()
          | r -> check_code "health after oversized" E.Internal r)))

(* A frame whose 9-byte length varint sets bit 62 decodes to a
   negative OCaml int.  The daemon must answer bad-frame and drop the
   connection — and, crucially, survive: this exact frame used to
   raise Invalid_argument inside the event-loop domain and kill the
   whole server. *)
let test_daemon_binary_negative_length () =
  with_daemon (fun _t port ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          send_all fd
            (Printf.sprintf "%c%c%s" B.magic (Char.chr B.version)
               (String.make 8 '\x80' ^ "\x40"));
          let buf = Buffer.create 256 in
          let chunk = Bytes.create 4096 in
          let rec await () =
            match B.parse (Buffer.contents buf) ~pos:0 ~len:(Buffer.length buf) with
            | B.Frame { payload; _ } ->
                (ok ~what:"reply" (B.reply_of_payload payload)).V1.response
            | B.Need -> (
                match Unix.read fd chunk 0 4096 with
                | 0 -> Alcotest.fail "daemon closed before refusing the bad frame"
                | n ->
                    Buffer.add_subbytes buf chunk 0 n;
                    await ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ())
            | B.Oversized _ | B.Bad _ | B.Bad_version _ -> Alcotest.fail "malformed reply frame"
          in
          (match await () with
          | V1.Failed e ->
              Alcotest.(check bool) "negative length is a caller error" true
                (e.E.code = E.Bad_request)
          | _ -> Alcotest.fail "negative frame length was not refused");
          (* The connection is unsynchronisable and closes after the
             refusal flushes. *)
          let rec drain () =
            match Unix.read fd chunk 0 4096 with
            | 0 -> ()
            | _ -> drain ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
          in
          drain ());
      (* The daemon survived and serves fresh connections. *)
      let fd2 = connect port in
      Fun.protect ~finally:(fun () -> Unix.close fd2) (fun () ->
          match rpc fd2 (V1.envelope V1.Health) with
          | V1.Health_reply _ -> ()
          | r -> check_code "health after bad frame" E.Internal r))

(* --json-only refuses the binary magic with a JSON caller error and
   closes after flushing it. *)
let test_daemon_json_only () =
  with_daemon ~json_only:true (fun _t port ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          send_all fd (B.request_frame (V1.envelope V1.Health));
          (match (ok (V1.reply_of_line (recv_line fd))).V1.response with
          | V1.Failed e ->
              Alcotest.(check bool) "refused as caller error" true
                (e.E.code = E.Bad_request)
          | _ -> Alcotest.fail "json-only daemon accepted a binary frame");
          Alcotest.(check bool) "connection closed after refusal" true
            (recv_line_opt fd = None));
      (* JSON clients are unaffected. *)
      let fdj = connect port in
      Fun.protect ~finally:(fun () -> Unix.close fdj) (fun () ->
          match rpc fdj (V1.envelope V1.Health) with
          | V1.Health_reply _ -> ()
          | r -> check_code "json client" E.Internal r))

(* A frame carrying the right magic but a version byte we do not
   speak gets a structured unsupported-version error naming the
   supported range — in v1 framing, the only one the daemon can emit —
   and then the connection closes. *)
let test_daemon_binary_bad_version () =
  with_daemon (fun _t port ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let good = B.request_frame (V1.envelope V1.Health) in
          let bad = Bytes.of_string good in
          Bytes.set bad 1 (Char.chr 9);
          send_all fd (Bytes.to_string bad);
          let buf = Buffer.create 256 in
          let chunk = Bytes.create 4096 in
          let rec await () =
            match B.parse (Buffer.contents buf) ~pos:0 ~len:(Buffer.length buf) with
            | B.Frame { payload; _ } ->
                (ok ~what:"reply" (B.reply_of_payload payload)).V1.response
            | B.Need -> (
                match Unix.read fd chunk 0 4096 with
                | 0 -> Alcotest.fail "daemon closed before refusing the version"
                | n ->
                    Buffer.add_subbytes buf chunk 0 n;
                    await ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ())
            | B.Oversized _ | B.Bad _ | B.Bad_version _ -> Alcotest.fail "malformed reply frame"
          in
          (match await () with
          | V1.Failed e ->
              Alcotest.(check bool) "unsupported-version code" true
                (e.E.code = E.Unsupported_version);
              Alcotest.(check string) "message names the range"
                "unsupported binary protocol version 9 (this server speaks v1 only)"
                e.E.message
          | _ -> Alcotest.fail "wrong version byte was not refused");
          (* The refusal flushes, then the connection closes. *)
          let rec drain () =
            match Unix.read fd chunk 0 4096 with
            | 0 -> ()
            | _ -> drain ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
          in
          drain ());
      (* The daemon survived and still speaks v1. *)
      let fd2 = connect port in
      Fun.protect ~finally:(fun () -> Unix.close fd2) (fun () ->
          match brpc fd2 (V1.envelope V1.Health) with
          | V1.Health_reply _ -> ()
          | r -> check_code "health after bad version" E.Internal r))

(* The JSON half of envelope versioning over a real socket: a request
   line carrying "v": 2 gets the structured unsupported-version error
   naming the supported range, and the daemon keeps serving v1. *)
let test_daemon_json_bad_version () =
  with_daemon (fun _t port ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          send_all fd "{\"v\":2,\"op\":\"health\"}\n";
          let line = recv_line fd in
          (match (ok ~what:line (V1.reply_of_line line)).V1.response with
          | V1.Failed e ->
              Alcotest.(check bool) "unsupported-version code" true
                (e.E.code = E.Unsupported_version);
              Alcotest.(check string) "message names the range"
                "unsupported API version 2 (this server speaks v1 only)" e.E.message
          | _ -> Alcotest.fail "JSON v2 request was not refused");
          match rpc fd (V1.envelope V1.Health) with
          | V1.Health_reply _ -> ()
          | r -> check_code "health after bad version" E.Internal r))

(* Live-graph ops end to end over the wire: mutate through one codec,
   observe the bumped generation through the other, and run a churn
   scenario whose rows match a local replay byte for byte. *)
let test_daemon_mutate_churn () =
  with_daemon (fun t port ->
      let fdj = connect port and fdb = connect port in
      Fun.protect
        ~finally:(fun () ->
          Unix.close fdj;
          Unix.close fdb)
        (fun () ->
          (match rpc fdj (V1.envelope (sample_req "net" 1)) with
          | V1.Sampled _ -> ()
          | r -> check_code "sample" E.Internal r);
          let ops = [ Girg.Mutate.Leave 7; Girg.Mutate.Resample 3 ] in
          (match
             brpc fdb (V1.envelope (V1.Mutate { instance = "net"; ops; seed = 4 }))
           with
          | V1.Mutated m ->
              Alcotest.(check int) "binary mutate epoch" 1 m.V1.mu_epoch;
              Alcotest.(check int) "binary mutate generation" 2 m.V1.mu_generation
          | r -> check_code "binary mutate" E.Internal r);
          (* The JSON connection routes on the mutated graph: byte
             identity with a local replay of the same script. *)
          let mutated = Girg.Mutate.apply ~seed:4 (tiny_instance 1) ops in
          let expected =
            (ok
               (Api.Render.route ~inst:mutated
                  ~protocol:Greedy_routing.Protocol.Patch_dfs ~source:0 ~target:399 ()))
              .V1.text
          in
          let json_line = rpc_raw_line fdj (V1.envelope (route_req "net" (0, 399))) in
          (match (ok (V1.reply_of_line json_line)).V1.response with
          | V1.Routed r ->
              Alcotest.(check string) "served = local replay" expected r.V1.text
          | r -> check_code "route after mutate" E.Internal r);
          (* The binary codec gets the same reply, from the cache both
             codecs share. *)
          let cache = Server.Exec.cache (Server.Daemon.exec t) in
          let hits = Server.Cache.hits cache in
          Alcotest.(check string) "binary reply = JSON reply" json_line
            (V1.reply_line (brpc_reply fdb (V1.envelope (route_req "net" (0, 399)))));
          Alcotest.(check int) "binary route hit the shared cache" (hits + 1)
            (Server.Cache.hits cache);
          let config =
            {
              Experiments.Churn.scenario = Experiments.Churn.Uniform;
              epochs = 2;
              events = 10;
              quit = 0.0;
              seed = 21;
              count = 15;
              pair_seed = 2;
              protocol = Greedy_routing.Protocol.Greedy;
              max_steps = None;
            }
          in
          let local_rows = snd (Experiments.Churn.run_local config mutated) in
          let float_eq a b = (Float.is_nan a && Float.is_nan b) || a = b in
          let rows_eq (a : Experiments.Churn.epoch_row)
              (b : Experiments.Churn.epoch_row) =
            a.epoch = b.epoch && a.live = b.live && a.edges = b.edges
            && a.attempted = b.attempted
            && a.delivered = b.delivered
            && float_eq a.mean_steps b.mean_steps
            && float_eq a.mean_stretch b.mean_stretch
          in
          match rpc fdj (V1.envelope (V1.Churn { instance = "net"; config })) with
          | V1.Churned c ->
              Alcotest.(check bool) "scenario echoed" true
                (c.V1.ch_scenario = Experiments.Churn.Uniform);
              Alcotest.(check int) "baseline + one row per epoch" 3
                (List.length c.V1.ch_rows);
              Alcotest.(check bool) "rows match a local replay" true
                (List.for_all2 rows_eq c.V1.ch_rows local_rows);
              (* Two mutation epochs on top of generation 2. *)
              Alcotest.(check int) "churn bumped the generation twice" 4
                c.V1.ch_generation
          | r -> check_code "churn" E.Internal r))

(* ------------------------------------------------------------------ *)
(* Route cache                                                         *)

let local_route_text seed (source, target) =
  (ok
     (Api.Render.route ~inst:(tiny_instance seed)
        ~protocol:Greedy_routing.Protocol.Patch_dfs ~source ~target ()))
    .V1.text

let routed_text what = function
  | V1.Routed r -> r.V1.text
  | r ->
      check_code what E.Internal r;
      ""

let test_exec_route_cache () =
  let ex = Server.Exec.create ~registry_cap:2 ~cache_cap:8 () in
  let cache = Server.Exec.cache ex in
  (match Server.Exec.handle ex (sample_req "net" 1) with
  | V1.Sampled _ -> ()
  | r -> check_code "sample" E.Internal r);
  (* Find a pair whose route differs between the two epochs, so a
     stale cache hit after replace cannot pass by coincidence. *)
  let pair =
    List.find
      (fun p -> local_route_text 1 p <> local_route_text 2 p)
      [ (0, 399); (17, 42); (100, 101); (3, 300); (50, 250); (9, 99) ]
  in
  let t1 = routed_text "first route" (Server.Exec.handle ex (route_req "net" pair)) in
  Alcotest.(check string) "served = local" (local_route_text 1 pair) t1;
  Alcotest.(check int) "one miss" 1 (Server.Cache.misses cache);
  Alcotest.(check int) "no hits yet" 0 (Server.Cache.hits cache);
  let t2 = routed_text "second route" (Server.Exec.handle ex (route_req "net" pair)) in
  Alcotest.(check string) "hit equals miss" t1 t2;
  Alcotest.(check int) "one hit" 1 (Server.Cache.hits cache);
  Alcotest.(check int) "still one miss" 1 (Server.Cache.misses cache);
  (* Replace the instance: the sweep empties the name's entries and the
     generation bump re-keys new requests — never a stale route. *)
  (match Server.Exec.handle ex (sample_req "net" 2) with
  | V1.Sampled _ -> ()
  | r -> check_code "replace" E.Internal r);
  Alcotest.(check int) "invalidated on replace" 0 (Server.Cache.size cache);
  let t3 = routed_text "route after replace" (Server.Exec.handle ex (route_req "net" pair)) in
  Alcotest.(check string) "post-replace route is the new epoch's"
    (local_route_text 2 pair) t3;
  Alcotest.(check bool) "no stale bytes" true (t3 <> t1);
  Alcotest.(check int) "replace recomputes" 2 (Server.Cache.misses cache);
  (* Counters ride the health/stats channels; generations land in the
     stats gauges. *)
  let counters = Server.Exec.counter_pairs ex in
  Alcotest.(check (option int)) "cache hits in counter_pairs" (Some 1)
    (List.assoc_opt "server.cache.hits" counters);
  let stats = Server.Exec.server_stats ex in
  (match List.assoc_opt "server.registry.gen.net" stats.V1.gauges with
  | Some g -> Alcotest.(check (float 0.0)) "generation gauge" 2.0 g
  | None -> Alcotest.fail "stats-server gauges are missing server.registry.gen.net");
  (match List.assoc_opt "server.cache.size" stats.V1.gauges with
  | Some g -> Alcotest.(check (float 0.0)) "cache size gauge" 1.0 g
  | None -> Alcotest.fail "stats-server gauges are missing server.cache.size");
  (* cache_cap = 0 disables caching entirely. *)
  let ex0 = Server.Exec.create ~cache_cap:0 () in
  (match Server.Exec.handle ex0 (sample_req "net" 1) with
  | V1.Sampled _ -> ()
  | r -> check_code "sample (nocache)" E.Internal r);
  ignore (Server.Exec.handle ex0 (route_req "net" pair));
  ignore (Server.Exec.handle ex0 (route_req "net" pair));
  Alcotest.(check int) "disabled cache counts nothing" 0
    (Server.Cache.misses (Server.Exec.cache ex0) + Server.Cache.hits (Server.Exec.cache ex0))

(* N concurrent identical requests compute once: one leader (miss),
   everyone else coalesces onto its result. *)
let test_cache_single_flight () =
  let routed =
    match
      Api.Render.route ~inst:(tiny_instance 1)
        ~protocol:Greedy_routing.Protocol.Greedy ~source:0 ~target:1 ()
    with
    | Ok r -> V1.Routed r
    | Error e -> Alcotest.failf "local route failed: %s" (E.to_string e)
  in
  let cache = Server.Cache.create ~metrics:(Obs.Metrics.create ()) ~cap:4 in
  let computes = Atomic.make 0 in
  let compute () =
    Atomic.incr computes;
    Unix.sleepf 0.3;
    routed
  in
  let n = 8 in
  let domains =
    List.init n (fun _ ->
        Domain.spawn (fun () -> Server.Cache.find_or_compute cache ~key:"k" compute))
  in
  let results = List.map Domain.join domains in
  List.iter
    (fun r -> Alcotest.(check bool) "shared result" true (r == routed))
    results;
  Alcotest.(check int) "computed once" 1 (Atomic.get computes);
  Alcotest.(check int) "one miss" 1 (Server.Cache.misses cache);
  Alcotest.(check int) "everyone else hit or coalesced" (n - 1)
    (Server.Cache.hits cache + Server.Cache.coalesced cache);
  (* A failed leader releases its followers and the first retries as
     the new leader — failures are never shared or cached. *)
  let cache2 = Server.Cache.create ~metrics:(Obs.Metrics.create ()) ~cap:4 in
  let calls = Atomic.make 0 in
  let flaky () =
    if Atomic.fetch_and_add calls 1 = 0 then begin
      Unix.sleepf 0.2;
      V1.Failed (E.make E.Internal "transient")
    end
    else routed
  in
  let domains2 =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> Server.Cache.find_or_compute cache2 ~key:"k" flaky))
  in
  let results2 = List.map Domain.join domains2 in
  let failures =
    List.length (List.filter (function V1.Failed _ -> true | _ -> false) results2)
  in
  Alcotest.(check int) "only the first leader sees the failure" 1 failures;
  Alcotest.(check int) "failure triggered exactly one recompute" 2
    (Server.Cache.misses cache2)

(* [cache_if] gates the store, not the reply: a leader whose result
   fails the predicate still returns it, but the next lookup misses
   again.  The executor uses this to drop results computed on an
   instance whose generation no longer matches the key (a replace
   raced the generation read), which would otherwise survive the
   replace's invalidation sweep. *)
let test_cache_if_gates_store () =
  let routed =
    match
      Api.Render.route ~inst:(tiny_instance 1)
        ~protocol:Greedy_routing.Protocol.Greedy ~source:0 ~target:1 ()
    with
    | Ok r -> V1.Routed r
    | Error e -> Alcotest.failf "local route failed: %s" (E.to_string e)
  in
  let cache = Server.Cache.create ~metrics:(Obs.Metrics.create ()) ~cap:4 in
  let computes = ref 0 in
  let compute () = incr computes; routed in
  let stale = Server.Cache.find_or_compute cache ~cache_if:(fun _ -> false) ~key:"k" compute in
  Alcotest.(check bool) "stale result still returned" true (stale == routed);
  Alcotest.(check int) "stale result not stored" 0 (Server.Cache.size cache);
  ignore (Server.Cache.find_or_compute cache ~cache_if:(fun _ -> true) ~key:"k" compute);
  Alcotest.(check int) "second lookup recomputed" 2 !computes;
  Alcotest.(check int) "fresh result stored" 1 (Server.Cache.size cache);
  ignore (Server.Cache.find_or_compute cache ~key:"k" compute);
  Alcotest.(check int) "third lookup hit" 2 !computes;
  Alcotest.(check int) "two misses, one hit" 2 (Server.Cache.misses cache);
  Alcotest.(check int) "one hit" 1 (Server.Cache.hits cache)

(* Mutate is a registry replace in disguise: the generation bump
   re-keys every future route and the invalidation sweep empties the
   name's cached entries, so a (gen, s, t) route cached before the
   mutation is never served after it. *)
let test_exec_mutate_invalidates_cache () =
  let ex = Server.Exec.create ~registry_cap:2 ~cache_cap:8 () in
  let cache = Server.Exec.cache ex in
  (match Server.Exec.handle ex (sample_req "net" 1) with
  | V1.Sampled _ -> ()
  | r -> check_code "sample" E.Internal r);
  let pair = (17, 42) in
  let before =
    routed_text "pre-mutation route" (Server.Exec.handle ex (route_req "net" pair))
  in
  ignore (routed_text "warm hit" (Server.Exec.handle ex (route_req "net" pair)));
  Alcotest.(check int) "warm" 1 (Server.Cache.hits cache);
  (* Pin the pre-mutation instance: the mutation must replace, not
     destroy, what a concurrent request may still be routing on. *)
  let h = ok (Server.Registry.acquire (Server.Exec.registry ex) "net") in
  let ops = [ Girg.Mutate.Leave 5; Girg.Mutate.Resample 17 ] in
  (match Server.Exec.handle ex (V1.Mutate { instance = "net"; ops; seed = 9 }) with
  | V1.Mutated m ->
      Alcotest.(check string) "name" "net" m.V1.mu_name;
      Alcotest.(check int) "epoch advanced" 1 m.V1.mu_epoch;
      Alcotest.(check int) "generation bumped" 2 m.V1.mu_generation;
      Alcotest.(check int) "one departure" 399 m.V1.mu_live;
      Alcotest.(check int) "n unchanged" 400 m.V1.mu_vertices;
      Alcotest.(check int) "both ops applied" 2 m.V1.mu_applied
  | r -> check_code "mutate" E.Internal r);
  Alcotest.(check int) "cache swept by mutation" 0 (Server.Cache.size cache);
  Alcotest.(check int) "pinned pre-mutation holder is orphaned" 1
    (Server.Registry.orphaned (Server.Exec.registry ex));
  (* The post-mutation route must be byte-identical to a local replay
     of the same mutation script — and a recompute, not a stale hit.
     The replay routes the same on the compacted graph, which is what
     `graphs_cli mutate` writes to disk. *)
  let mutated = Girg.Mutate.apply ~seed:9 (tiny_instance 1) ops in
  let local_route (inst : Girg.Instance.t) =
    (ok
       (Api.Render.route ~inst ~protocol:Greedy_routing.Protocol.Patch_dfs
          ~source:(fst pair) ~target:(snd pair) ()))
      .V1.text
  in
  let expected = local_route mutated in
  let after =
    routed_text "post-mutation route" (Server.Exec.handle ex (route_req "net" pair))
  in
  Alcotest.(check string) "served = local replay of the mutation" expected after;
  Alcotest.(check string) "served = compacted replay" after
    (local_route
       (Girg.Instance.with_graph mutated (Sparse_graph.Graph.compact mutated.Girg.Instance.graph)));
  Alcotest.(check bool) "route actually changed" true (after <> before);
  Alcotest.(check int) "recomputed, not served stale" 2 (Server.Cache.misses cache);
  Alcotest.(check int) "no new hits" 1 (Server.Cache.hits cache);
  (* The orphan shows up in the stats-server gauges and clears on
     release. *)
  let stats = Server.Exec.server_stats ex in
  (match List.assoc_opt "server.registry.orphaned" stats.V1.gauges with
  | Some g -> Alcotest.(check (float 0.0)) "orphaned gauge" 1.0 g
  | None -> Alcotest.fail "gauges are missing server.registry.orphaned");
  Server.Registry.release (Server.Exec.registry ex) h;
  Alcotest.(check int) "release sweeps the orphan" 0
    (Server.Registry.orphaned (Server.Exec.registry ex));
  (* Mutations validate before touching anything. *)
  check_code "out-of-range vertex" E.Bad_request
    (Server.Exec.handle ex
       (V1.Mutate { instance = "net"; ops = [ Girg.Mutate.Leave 400 ]; seed = 1 }));
  check_code "unknown instance" E.Unknown_instance
    (Server.Exec.handle ex
       (V1.Mutate { instance = "ghost"; ops = [ Girg.Mutate.Leave 1 ]; seed = 1 }))

(* An expired (gen, s, t) entry must not be servable even through the
   single-flight path: a follower that coalesced onto a leader keyed
   at the old generation gets the leader's result, but the store is
   gated, so nothing keyed stale survives for later requests. *)
let test_mutate_single_flight_race () =
  let ex = Server.Exec.create ~registry_cap:2 ~cache_cap:8 () in
  (match Server.Exec.handle ex (sample_req "net" 1) with
  | V1.Sampled _ -> ()
  | r -> check_code "sample" E.Internal r);
  let pair = (17, 42) in
  (* Race N routers against one mutator.  Whatever the interleaving,
     the cache must end up empty of pre-mutation keys: a final route
     must serve the mutated instance's bytes. *)
  let routers =
    List.init 6 (fun _ ->
        Domain.spawn (fun () -> Server.Exec.handle ex (route_req "net" pair)))
  in
  let mutator =
    Domain.spawn (fun () ->
        Server.Exec.handle ex
          (V1.Mutate { instance = "net"; ops = [ Girg.Mutate.Resample 17 ]; seed = 3 }))
  in
  List.iter (fun d -> ignore (Domain.join d)) routers;
  (match Domain.join mutator with
  | V1.Mutated _ -> ()
  | r -> check_code "racing mutate" E.Internal r);
  let expected =
    let mutated =
      Girg.Mutate.apply ~seed:3 (tiny_instance 1) [ Girg.Mutate.Resample 17 ]
    in
    (ok
       (Api.Render.route ~inst:mutated ~protocol:Greedy_routing.Protocol.Patch_dfs
          ~source:(fst pair) ~target:(snd pair) ()))
      .V1.text
  in
  let served =
    routed_text "route after the race" (Server.Exec.handle ex (route_req "net" pair))
  in
  Alcotest.(check string) "no stale entry survived the race" expected served

(* Two mutates of one name, issued while a merge blocked on opening a
   FIFO holds the compute mutex: both wait on the mutex together, the
   interleaving under which reading the instance before taking the
   mutex lets the second insert discard the first's departure.  Each
   must instead build on the version the other registered. *)
let test_concurrent_mutates_compose () =
  let fifo = Filename.temp_file "smallworld_spill" ".fifo" in
  Sys.remove fifo;
  Unix.mkfifo fifo 0o600;
  Fun.protect ~finally:(fun () -> Sys.remove fifo) @@ fun () ->
  let ex = Server.Exec.create () in
  (match Server.Exec.handle ex (sample_req "net" 1) with
  | V1.Sampled _ -> ()
  | r -> check_code "sample" E.Internal r);
  let reg = Server.Exec.registry ex in
  let gen0 = Server.Registry.generation reg "net" in
  let blocker =
    Domain.spawn (fun () ->
        Server.Exec.handle ex (V1.Merge_shards { name = "blocker"; spills = [ fifo ] }))
  in
  (* A non-blocking open for writing succeeds once the merge's open for
     reading is under way, that is, once the merge holds the mutex. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec writer () =
    match Unix.openfile fifo [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0 with
    | fd -> fd
    | exception Unix.Unix_error (Unix.ENXIO, _, _) ->
        if Unix.gettimeofday () > deadline then Alcotest.fail "merge never opened the FIFO";
        Unix.sleepf 0.01;
        writer ()
  in
  let w = writer () in
  let mutators =
    List.map
      (fun v ->
        Domain.spawn (fun () ->
            Server.Exec.handle ex
              (V1.Mutate { instance = "net"; ops = [ Girg.Mutate.Leave v ]; seed = 1 })))
      [ 5; 9 ]
  in
  Unix.sleepf 0.3 (* both mutates reach the mutex *);
  Unix.close w;
  ignore (Domain.join blocker);
  let epochs =
    List.map
      (fun d ->
        match Domain.join d with
        | V1.Mutated m -> m.V1.mu_epoch
        | r ->
            check_code "racing mutate" E.Internal r;
            0)
      mutators
  in
  Alcotest.(check (list int)) "one epoch each" [ 1; 2 ] (List.sort compare epochs);
  Alcotest.(check int) "generation rose by 2" (gen0 + 2) (Server.Registry.generation reg "net");
  let h = ok (Server.Registry.acquire reg "net") in
  let g = (Server.Registry.instance h).Girg.Instance.graph in
  Server.Registry.release reg h;
  Alcotest.(check (list bool)) "both departures visible" [ false; false ]
    [ Sparse_graph.Graph.live g 5; Sparse_graph.Graph.live g 9 ];
  Alcotest.(check int) "two vertices departed" 398 (Sparse_graph.Graph.live_count g)

(* ------------------------------------------------------------------ *)
(* Telemetry: stats-server, admin port, access log, manifest timer     *)

let get_stats response =
  match response with
  | V1.Server_stats_reply s -> s
  | r ->
      check_code "stats-server" E.Internal r;
      Alcotest.fail "stats-server did not reply with Server_stats_reply"

let counter_of (s : V1.server_stats_reply) name =
  match List.assoc_opt name s.V1.s_counters with
  | Some v -> v
  | None -> Alcotest.failf "stats-server reply is missing counter %s" name

let gauge_of (s : V1.server_stats_reply) name =
  match List.assoc_opt name s.V1.gauges with
  | Some v -> v
  | None -> Alcotest.failf "stats-server reply is missing gauge %s" name

let test_server_stats_over_tcp () =
  (* The obs registry is process-global; clear what earlier daemon
     tests recorded so stage counts here are exact. *)
  Obs.Metrics.reset Obs.Metrics.default;
  with_daemon (fun _t port ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          (match rpc fd (V1.envelope (sample_req "net" 11)) with
          | V1.Sampled _ -> ()
          | r -> check_code "sample" E.Internal r);
          List.iter
            (fun p ->
              match rpc fd (V1.envelope (route_req "net" p)) with
              | V1.Routed _ -> ()
              | r -> check_code "route" E.Internal r)
            [ (0, 1); (2, 3); (4, 5) ];
          let s = get_stats (rpc fd (V1.envelope ~id:5 V1.Server_stats)) in
          Alcotest.(check bool) "uptime non-negative" true (s.V1.uptime_s >= 0.0);
          Alcotest.(check bool) "not draining" false s.V1.s_draining;
          Alcotest.(check bool) "obs_live reports the env" (Obs.Metrics.enabled)
            s.V1.obs_live;
          (* 1 sample + 3 routes + this stats-server request. *)
          Alcotest.(check int) "accepted" 5 (counter_of s "server.accepted");
          Alcotest.(check int) "served so far" 4 (counter_of s "server.served");
          Alcotest.(check int) "three route misses" 3 (counter_of s "server.cache.misses");
          Alcotest.(check int) "no route hits" 0 (counter_of s "server.cache.hits");
          Alcotest.(check (float 0.0)) "registry size gauge" 1.0
            (gauge_of s "server.registry.size");
          Alcotest.(check (float 0.0)) "inflight is this request" 1.0
            (gauge_of s "server.inflight");
          List.iter
            (fun g -> ignore (gauge_of s g))
            [ "server.queue_depth"; "server.registry.cap"; "server.registry.pinned";
              "server.cache.size"; "server.cache.cap" ];
          if Obs.Metrics.enabled then begin
            let stage name =
              match List.find_opt (fun st -> st.V1.stage = name) s.V1.stages with
              | Some st -> st
              | None -> Alcotest.failf "no %s stage in stats-server reply" name
            in
            (* Sample + 3 routes were fully traced before this request. *)
            List.iter
              (fun name ->
                let st = stage name in
                Alcotest.(check bool) (name ^ " count >= 4") true (st.V1.s_count >= 4);
                Alcotest.(check bool) (name ^ " quantiles ordered") true
                  (st.V1.p50 <= st.V1.p90 && st.V1.p90 <= st.V1.p99
                 && st.V1.p99 <= st.V1.p999))
              [ "stage.compute"; "stage.render"; "stage.write" ];
            let lat = stage "latency.route" in
            Alcotest.(check int) "route latency count" 3 lat.V1.s_count;
            Alcotest.(check bool) "prometheus dump mentions the counters" true
              (let substr hay needle =
                 let nl = String.length needle and hl = String.length hay in
                 let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
                 at 0
               in
               substr s.V1.prometheus "smallworld_server_accepted")
          end))

(* Two concurrent samples each take the compute mutex once, and each
   take is timed into compute.mutex_wait — only with obs on. *)
let test_compute_mutex_wait () =
  Obs.Metrics.reset Obs.Metrics.default;
  with_daemon ~workers:2 (fun _t port ->
      let a = connect port and b = connect port in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close [ a; b ])
        (fun () ->
          send_all a (V1.request_line (V1.envelope (sample_req "a" 1)) ^ "\n");
          send_all b (V1.request_line (V1.envelope (sample_req "b" 2)) ^ "\n");
          List.iter
            (fun fd ->
              match (ok (V1.reply_of_line (recv_line fd))).V1.response with
              | V1.Sampled _ -> ()
              | r -> check_code "sample" E.Internal r)
            [ a; b ];
          let s = get_stats (rpc a (V1.envelope V1.Server_stats)) in
          match List.find_opt (fun st -> st.V1.stage = "compute.mutex_wait") s.V1.stages with
          | None -> Alcotest.fail "no compute.mutex_wait in stats-server"
          | Some st ->
              if Obs.Metrics.enabled then
                Alcotest.(check bool) "two waits recorded" true (st.V1.s_count >= 2)
              else Alcotest.(check int) "no clock reads under OBS=0" 0 st.V1.s_count))

(* Nearest-rank [q]-quantile of a non-empty sample. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(max 0 (int_of_float (Float.ceil (q *. float_of_int (Array.length a))) - 1))

(* The wall time of [f ()] in milliseconds, beside its result. *)
let timed_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

let test_server_stats_under_load () =
  with_daemon ~workers:4 (fun _t port ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          (match rpc fd (V1.envelope (sample_req "net" 12)) with
          | V1.Sampled _ -> ()
          | r -> check_code "sample" E.Internal r));
      (* Closed-loop route traffic on three connections, the first over
         the binary codec, while a fourth polls stats-server: every
         scrape must answer, the counters must be monotone across
         scrapes, no route may be refused, and each client's p99 must
         stay within 100 ms. *)
      let stop_flag = Atomic.make false in
      let clients =
        List.init 3 (fun i ->
            Domain.spawn (fun () ->
                let fd = connect port in
                let call = if i = 0 then brpc else rpc in
                Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
                    let n = ref 0 and lat = ref [] in
                    while not (Atomic.get stop_flag) do
                      let r, ms =
                        timed_ms (fun () ->
                            call fd (V1.envelope (route_req "net" (i, 100 + i))))
                      in
                      lat := ms :: !lat;
                      match r with
                      | V1.Routed _ -> incr n
                      | r -> check_code "route under load" E.Internal r
                    done;
                    (!n, !lat))))
      in
      let fd = connect port in
      let served =
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
            List.init 10 (fun _ ->
                let s = get_stats (rpc fd (V1.envelope V1.Server_stats)) in
                counter_of s "server.served"))
      in
      Atomic.set stop_flag true;
      let results = List.map Domain.join clients in
      let routed = List.fold_left (fun acc (n, _) -> acc + n) 0 results in
      Alcotest.(check bool) "clients routed" true (routed > 0);
      List.iteri
        (fun i (_, lat) ->
          if lat <> [] && quantile 0.99 lat > 100.0 then
            Alcotest.failf "client %d (%s codec): p99 %.1f ms over %d routes exceeds 100 ms" i
              (if i = 0 then "binary" else "json")
              (quantile 0.99 lat) (List.length lat))
        results;
      Alcotest.(check int) "10 scrapes all answered" 10 (List.length served);
      Alcotest.(check bool) "served counter is monotone" true
        (fst
           (List.fold_left (fun (mono, prev) v -> (mono && v >= prev, v)) (true, 0) served));
      (* A paced single connection sees a mostly idle daemon: readiness
         dispatch has no polling tick, so p50 must stay within 20 ms. *)
      let fd = connect port in
      let paced =
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
            List.init 20 (fun k ->
                Unix.sleepf 0.025;
                let r, ms =
                  timed_ms (fun () -> rpc fd (V1.envelope (route_req "net" (k, 200 + k))))
                in
                (match r with
                | V1.Routed _ -> ()
                | r -> check_code "paced route" E.Internal r);
                ms))
      in
      let p50 = quantile 0.5 paced in
      if p50 > 20.0 then Alcotest.failf "paced p50 %.1f ms exceeds 20 ms" p50)

let recv_all fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let substr hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

(* The value of one unlabelled sample line ("smallworld_<name> <v>")
   in a Prometheus text dump. *)
let prom_value text name =
  let pname =
    "smallworld_"
    ^ String.map (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_') name
  in
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = pname -> float_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' text)

let test_admin_port () =
  with_daemon ~admin_port:0 (fun t port ->
      let admin =
        match Server.Daemon.admin_port t with
        | Some p -> p
        | None -> Alcotest.fail "admin_port configured but not bound"
      in
      Alcotest.(check bool) "admin port is its own listener" true (admin <> port);
      (* Load an instance over the main port first, and route one pair
         three times: one cache miss, two hits. *)
      let fd = connect port in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          (match rpc fd (V1.envelope (sample_req "net" 13)) with
          | V1.Sampled _ -> ()
          | r -> check_code "sample" E.Internal r);
          for _ = 1 to 3 do
            ignore (routed_text "route" (rpc fd (V1.envelope (route_req "net" (0, 1)))))
          done);
      (* HTTP: GET /stats returns the stats-server reply as JSON. *)
      let fd = connect admin in
      send_all fd "GET /stats HTTP/1.0\r\n\r\n";
      let body = recv_all fd in
      Unix.close fd;
      Alcotest.(check bool) "/stats is 200" true (substr body "HTTP/1.0 200 OK");
      let stats_line =
        match String.index_opt body '{' with
        | Some i -> String.trim (String.sub body i (String.length body - i))
        | None -> Alcotest.failf "/stats has no JSON body: %s" body
      in
      let s = get_stats (ok ~what:stats_line (V1.reply_of_line stats_line)).V1.response in
      Alcotest.(check int) "/stats counters" 4 (counter_of s "server.accepted");
      Alcotest.(check int) "/stats sees the cache hits" 2 (counter_of s "server.cache.hits");
      (* HTTP: GET /metrics returns the Prometheus text dump. *)
      let fd = connect admin in
      send_all fd "GET /metrics HTTP/1.0\r\n\r\n";
      let dump = recv_all fd in
      Unix.close fd;
      Alcotest.(check bool) "/metrics is 200" true (substr dump "HTTP/1.0 200 OK");
      Alcotest.(check bool) "/metrics has the accepted counter" true
        (substr dump "smallworld_server_accepted");
      (* Server counters and gauges are live in both obs modes and need
         no stats-server call before the scrape. *)
      Alcotest.(check (option (float 0.0))) "/metrics accepted" (Some 4.0)
        (prom_value dump "server.accepted");
      Alcotest.(check (option (float 0.0))) "/metrics cache hits" (Some 2.0)
        (prom_value dump "server.cache.hits");
      Alcotest.(check (option (float 0.0))) "/metrics registry size" (Some 1.0)
        (prom_value dump "server.registry.size");
      if Obs.Metrics.enabled then
        Alcotest.(check bool) "/metrics has cumulative buckets" true
          (substr dump "_bucket{le=");
      (* HTTP: unknown path is a 404. *)
      let fd = connect admin in
      send_all fd "GET /nope HTTP/1.0\r\n\r\n";
      let nf = recv_all fd in
      Unix.close fd;
      Alcotest.(check bool) "404 on unknown path" true (substr nf "404");
      (* JSON: stats-server and health answer; compute ops are refused. *)
      let fd = connect admin in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let s = get_stats (rpc fd (V1.envelope ~id:9 V1.Server_stats)) in
          Alcotest.(check bool) "json stats over admin" true (s.V1.uptime_s >= 0.0);
          (match rpc fd (V1.envelope V1.Health) with
          | V1.Health_reply h ->
              Alcotest.(check (list string)) "health over admin" [ "net" ] h.V1.instances
          | r -> check_code "admin health" E.Internal r);
          check_code "compute refused on admin" E.Bad_request
            (rpc fd (V1.envelope (route_req "net" (0, 1)))));
      (* Admin traffic must not move the serving counters: only the
         sample and the three routes above were accepted. *)
      let ex = Server.Daemon.exec t in
      Alcotest.(check int) "admin requests uncounted" 4 (Server.Exec.accepted ex))

(* The admin plane shares the event loop: a silent admin connection is
   one idle table entry, so a scrape behind it answers at once rather
   than after an idle timeout. *)
let test_admin_idle_does_not_stall () =
  with_daemon ~admin_port:0 (fun t _port ->
      let admin = Option.get (Server.Daemon.admin_port t) in
      let idle = connect admin in
      Fun.protect ~finally:(fun () -> Unix.close idle) (fun () ->
          Unix.sleepf 0.1;
          let fd = connect admin in
          let dump, ms =
            timed_ms (fun () ->
                send_all fd "GET /metrics HTTP/1.0\r\n\r\n";
                recv_all fd)
          in
          Unix.close fd;
          Alcotest.(check bool) "/metrics is 200" true (substr dump "HTTP/1.0 200 OK");
          if ms >= 1000.0 then
            Alcotest.failf "scrape behind an idle admin connection took %.0f ms" ms))

(* Two JSON lines in one send on one admin connection: both answered,
   in order. *)
let test_admin_pipelined_json () =
  with_daemon ~admin_port:0 (fun t _port ->
      let fd = connect (Option.get (Server.Daemon.admin_port t)) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          send_all fd
            (V1.request_line (V1.envelope ~id:1 V1.Server_stats)
            ^ "\n"
            ^ V1.request_line (V1.envelope ~id:2 V1.Health)
            ^ "\n");
          let first = ok (V1.reply_of_line (recv_line fd)) in
          let second = ok (V1.reply_of_line (recv_line fd)) in
          Alcotest.(check (option int)) "first reply id" (Some 1) first.V1.reply_id;
          ignore (get_stats first.V1.response);
          Alcotest.(check (option int)) "second reply id" (Some 2) second.V1.reply_id;
          match second.V1.response with
          | V1.Health_reply _ -> ()
          | r -> check_code "health" E.Internal r))

(* Two servers in one process keep separate counts, and each one's
   stats-server reply agrees with its own Prometheus text: every
   counter and state gauge has one storage cell, which every reader
   shares, in both obs modes. *)
let test_server_telemetry_one_cell () =
  let drive ex ~seed ~pair ~routes =
    let handle req =
      Server.Exec.note_accepted ex;
      Server.Exec.handle ex req
    in
    (match handle (sample_req "net" seed) with
    | V1.Sampled _ -> ()
    | r -> check_code "sample" E.Internal r);
    for _ = 1 to routes do
      ignore (routed_text "route" (handle (route_req "net" pair)))
    done;
    ignore (routed_text "other route" (handle (route_req "net" (2, 3))));
    Server.Exec.note_accepted ex;
    check_code "expired deadline" E.Deadline
      (Server.Exec.handle ex ~deadline:(Unix.gettimeofday ()) (route_req "net" pair))
  in
  let a = Server.Exec.create ~cache_cap:8 () in
  let b = Server.Exec.create ~cache_cap:8 () in
  drive a ~seed:1 ~pair:(0, 1) ~routes:2;
  drive b ~seed:2 ~pair:(4, 5) ~routes:5;
  List.iter
    (fun (what, ex, routes) ->
      let s = Server.Exec.server_stats ex in
      (* sample + [routes] + one other route + the deadline miss *)
      Alcotest.(check int) (what ^ " accepted") (routes + 3) (counter_of s "server.accepted");
      Alcotest.(check int) (what ^ " served") (routes + 2) (counter_of s "server.served");
      Alcotest.(check int) (what ^ " deadline") 1 (counter_of s "server.deadline_missed");
      Alcotest.(check int) (what ^ " cache hits") (routes - 1) (counter_of s "server.cache.hits");
      Alcotest.(check int) (what ^ " cache misses") 2 (counter_of s "server.cache.misses");
      let agrees kind (name, v) =
        match prom_value s.V1.prometheus name with
        | Some p -> Alcotest.(check (float 0.0)) (Printf.sprintf "%s %s %s" what kind name) v p
        | None -> Alcotest.failf "%s: %s %s missing from the prometheus text" what kind name
      in
      List.iter (fun (n, v) -> agrees "counter" (n, float_of_int v)) s.V1.s_counters;
      List.iter
        (fun ((n, _) as g) ->
          if not (String.starts_with ~prefix:"server.registry.gen." n) then agrees "gauge" g)
        s.V1.gauges)
    [ ("a", a, 2); ("b", b, 5) ];
  (* The text the admin /metrics path renders pulls the state gauges
     itself, with no stats-server call before it. *)
  let c = Server.Exec.create () in
  (match Server.Exec.handle c (sample_req "net" 3) with
  | V1.Sampled _ -> ()
  | r -> check_code "sample" E.Internal r);
  Server.Exec.begin_request c;
  let text = Server.Exec.prometheus c in
  Server.Exec.end_request c;
  Alcotest.(check (option (float 0.0))) "inflight in /metrics text" (Some 1.0)
    (prom_value text "server.inflight");
  Alcotest.(check (option (float 0.0))) "registry size in /metrics text" (Some 1.0)
    (prom_value text "server.registry.size")

let test_access_log_sampling_unit () =
  let path = Filename.temp_file "smallworld_access" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      let alog = Server.Access_log.create ~path ~sample:3 () in
      for req_id = 1 to 9 do
        Server.Access_log.log alog
          {
            Server.Access_log.req_id;
            client_id = (if req_id mod 2 = 0 then Some req_id else None);
            op = "route";
            instance = Some "net";
            outcome = "ok";
            t_unix = 1754650000.0;
            queue_s = 0.001;
            compute_s = 0.002;
            render_s = 0.0005;
            write_s = 0.0005;
          }
      done;
      Server.Access_log.close alog;
      let lines =
        In_channel.with_open_text path In_channel.input_lines
        |> List.filter (fun l -> String.trim l <> "")
      in
      (* Deterministic 1-in-3: exactly req ids 3, 6, 9. *)
      Alcotest.(check int) "1-in-3 sampling" 3 (List.length lines);
      List.iteri
        (fun i line ->
          match Obs.Export.json_of_string line with
          | Error e -> Alcotest.failf "access line is not JSON: %s (%s)" line e
          | Ok j ->
              Alcotest.(check bool) "schema field" true
                (Obs.Export.member "schema" j
                = Some (Obs.Export.Str Server.Access_log.schema_version));
              Alcotest.(check bool) "req id" true
                (Obs.Export.member "req" j = Some (Obs.Export.Int ((i + 1) * 3)));
              Alcotest.(check bool) "op" true
                (Obs.Export.member "op" j = Some (Obs.Export.Str "route"));
              Alcotest.(check bool) "total_ms present" true
                (Obs.Export.member "total_ms" j <> None))
        lines)

let test_daemon_access_log () =
  let path = Filename.temp_file "smallworld_access" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      with_daemon ~access_log:path (fun _t port ->
          let fd = connect port in
          Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
              (match rpc fd (V1.envelope (sample_req "net" 14)) with
              | V1.Sampled _ -> ()
              | r -> check_code "sample" E.Internal r);
              (match rpc fd (V1.envelope ~id:77 (route_req "net" (1, 2))) with
              | V1.Routed _ -> ()
              | r -> check_code "route" E.Internal r);
              (* A parse failure must still be logged, as op=invalid. *)
              send_all fd "this is not json\n";
              match (ok (V1.reply_of_line (recv_line fd))).V1.response with
              | V1.Failed _ -> ()
              | _ -> Alcotest.fail "garbage line did not fail"));
      (* with_daemon drained and joined: the log is flushed and closed. *)
      let lines =
        In_channel.with_open_text path In_channel.input_lines
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int) "one line per request" 3 (List.length lines);
      let ops =
        List.map
          (fun line ->
            match Obs.Export.json_of_string line with
            | Error e -> Alcotest.failf "bad access line %s (%s)" line e
            | Ok j -> (
                match Obs.Export.member "op" j with
                | Some (Obs.Export.Str op) -> op
                | _ -> Alcotest.failf "no op in %s" line))
          lines
      in
      Alcotest.(check (list string)) "ops in order" [ "sample"; "route"; "invalid" ] ops;
      (* JSON prints a whole float without a point, so it reads back as
         an int. *)
      let num j key =
        match Obs.Export.member key j with
        | Some (Obs.Export.Int i) -> float_of_int i
        | Some (Obs.Export.Float f) -> f
        | _ -> Alcotest.failf "access line lacks the number %s" key
      in
      ignore
        (List.fold_left
           (fun prev_req line ->
             match Obs.Export.json_of_string line with
             | Error e -> Alcotest.failf "bad access line %s (%s)" line e
             | Ok j ->
                 Alcotest.(check bool) "schema pinned" true
                   (Obs.Export.member "schema" j
                   = Some (Obs.Export.Str "smallworld.access.v1"));
                 Alcotest.(check bool) "outcome present" true
                   (Obs.Export.member "outcome" j <> None);
                 ignore (num j "t");
                 let req = num j "req" in
                 Alcotest.(check bool) "request ids increase" true (req > prev_req);
                 let parts =
                   List.fold_left (fun acc k -> acc +. num j k) 0.0
                     [ "queue_ms"; "compute_ms"; "render_ms"; "write_ms" ]
                 in
                 Alcotest.(check (float 0.01)) "stage timings sum to total_ms" parts
                   (num j "total_ms");
                 req)
           0.0 lines))

(* Peers that vanish mid-request.  A half-sent binary frame followed by
   a close leaves nothing in flight.  A route request whose client
   resets the connection before the reply is still retired: one access
   line with write_ms 0, and the inflight gauge returns to 0.  The
   route queues behind a snapshot that blocks on opening a FIFO, so the
   reset lands before the reply on every run. *)
let test_daemon_peer_disconnect () =
  (* A write to the reset socket must come back as an error, not kill
     this process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let path = Filename.temp_file "smallworld_access" ".jsonl" in
  let fifo = Filename.temp_file "smallworld_snapshot" ".fifo" in
  Sys.remove fifo;
  Unix.mkfifo fifo 0o600;
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ path; fifo ])
    (fun () ->
      with_daemon ~workers:1 ~access_log:path (fun t port ->
          let ex = Server.Daemon.exec t in
          let poll what cond =
            let deadline = Unix.gettimeofday () +. 2.0 in
            let rec go () =
              if not (cond ()) then
                if Unix.gettimeofday () > deadline then Alcotest.failf "%s within 2 s" what
                else begin
                  Unix.sleepf 0.01;
                  go ()
                end
            in
            go ()
          in
          let settled () =
            poll "inflight back to 0" (fun () -> Server.Exec.inflight ex = 0);
            let fd = connect port in
            Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
                match rpc fd (V1.envelope V1.Health) with
                | V1.Health_reply _ -> ()
                | r -> check_code "health after a vanished peer" E.Internal r)
          in
          let fd = connect port in
          let half = B.request_frame (V1.envelope (route_req "net" (1, 2))) in
          send_all fd (String.sub half 0 (String.length half / 2));
          Unix.close fd;
          settled ();
          let a = connect port in
          Fun.protect ~finally:(fun () -> Unix.close a) (fun () ->
              (match rpc a (V1.envelope (sample_req "net" 15)) with
              | V1.Sampled _ -> ()
              | r -> check_code "sample" E.Internal r);
              send_all a
                (V1.request_line (V1.envelope (V1.Snapshot { instance = "net"; out = fifo }))
                ^ "\n");
              poll "snapshot started" (fun () -> Server.Exec.inflight ex = 1);
              let b = connect port in
              send_all b (V1.request_line (V1.envelope (route_req "net" (1, 2))) ^ "\n");
              poll "route queued" (fun () ->
                  gauge_of (Server.Exec.server_stats ex) "server.queue_depth" = 1.0);
              Unix.setsockopt_optint b Unix.SO_LINGER (Some 0);
              Unix.close b;
              let r = Unix.openfile fifo [ Unix.O_RDONLY ] 0 in
              ignore (recv_all r);
              Unix.close r;
              match (ok (V1.reply_of_line (recv_line a))).V1.response with
              | V1.Snapshotted _ -> ()
              | r -> check_code "snapshot" E.Internal r);
          settled ());
      let routes =
        In_channel.with_open_text path In_channel.input_lines
        |> List.filter_map (fun line ->
               match Obs.Export.json_of_string line with
               | Ok j when Obs.Export.member "op" j = Some (Obs.Export.Str "route") ->
                   Some (Obs.Export.member "write_ms" j)
               | _ -> None)
      in
      Alcotest.(check int) "one access line for the vanished route" 1 (List.length routes);
      (* JSON prints a zero float as "0", which reads back as an int. *)
      Alcotest.(check bool) "its write_ms is 0" true
        (match List.hd routes with
        | Some (Obs.Export.Int 0) -> true
        | Some (Obs.Export.Float f) -> f = 0.0
        | _ -> false))

let test_manifest_on_request () =
  let path = Filename.temp_file "smallworld_manifest" ".jsonl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* Huge obs_interval: only request_manifest (the SIGHUP path) can
         produce the file before drain. *)
      with_daemon ~obs_out:path ~obs_interval:1e9 ~max_batch:4 (fun t port ->
          let fd = connect port in
          Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
              (match rpc fd (V1.envelope (sample_req "net" 16)) with
              | V1.Sampled _ -> ()
              | r -> check_code "sample" E.Internal r);
              check_code "deadline_ms=0" E.Deadline
                (rpc fd (V1.envelope ~deadline_ms:0 (route_req "net" (0, 1))));
              check_code "oversized batch" E.Overloaded
                (rpc fd
                   (V1.envelope
                      (V1.Route_batch
                         {
                           instance = "net";
                           pairs = V1.Pairs [ (0, 1); (2, 3); (4, 5); (6, 7); (8, 9) ];
                           protocol = Greedy_routing.Protocol.Greedy;
                           max_steps = None;
                         }))));
          Server.Daemon.request_manifest t;
          let deadline = Unix.gettimeofday () +. 5.0 in
          let rec wait () =
            if Sys.file_exists path then ()
            else if Unix.gettimeofday () > deadline then
              Alcotest.fail "request_manifest produced no manifest within 5s"
            else begin
              Unix.sleepf 0.05;
              wait ()
            end
          in
          wait ();
          let manifest = In_channel.with_open_text path In_channel.input_all in
          (* The daemon's own counters are top-level keys, so they are
             there under SMALLWORLD_OBS=0 too. *)
          List.iter
            (fun counter ->
              Alcotest.(check bool) ("manifest carries " ^ counter) true (substr manifest counter))
            [ "\"server.accepted\":3"; "\"server.rejected\":1"; "\"server.deadline_missed\":1" ];
          (* The manifest carries the state gauges of the same snapshot. *)
          Alcotest.(check bool) "manifest carries server gauges" true
            (substr manifest "\"server.registry.size\"")))

let test_daemon_trace_roundtrip () =
  (* End to end through the distributed-trace plumbing: a client-traced
     request must leave exactly one server-side trace.v1 record that
     merges under the client's own span into a single tree whose
     critical path accounts for the wall time the client measured, and
     that both profile exporters accept.  The drain must also dump the
     flight-recorder ring to [events_out]. *)
  let trace_path = Filename.temp_file "smallworld_trace" ".jsonl" in
  let events_path = Filename.temp_file "smallworld_events" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove trace_path;
      Sys.remove events_path)
    (fun () ->
      let measured = ref 0.0 in
      let client_tree = ref None in
      with_daemon ~trace_out:trace_path ~events_out:events_path (fun _t port ->
          let fd = connect port in
          Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
              (match rpc fd (V1.envelope (sample_req "net" 21)) with
              | V1.Sampled _ -> ()
              | r -> check_code "sample" E.Internal r);
              let t0 = Unix.gettimeofday () in
              let response, tree =
                Obs.Span.probe ~name:"client.request" (fun () ->
                    rpc fd
                      (V1.envelope ~id:42
                         ~trace:{ V1.trace_id = "t-e2e"; parent_span = 1 }
                         (route_req "net" (1, 2))))
              in
              measured := Unix.gettimeofday () -. t0;
              client_tree := tree;
              match response with
              | V1.Routed reply ->
                  (* Tracing must not perturb the served bytes. *)
                  let expected =
                    ok
                      (Api.Render.route ~inst:(tiny_instance 21)
                         ~protocol:Greedy_routing.Protocol.Patch_dfs ~source:1 ~target:2 ())
                  in
                  Alcotest.(check string) "traced route text" expected.V1.text reply.V1.text
              | r -> check_code "traced route" E.Internal r));
      (* with_daemon drained and joined: both sinks are flushed and closed. *)
      let records, errs =
        In_channel.with_open_text trace_path Obs.Profile.read_channel
      in
      Alcotest.(check (list string)) "trace file fully decodable" [] errs;
      let event_lines =
        In_channel.with_open_text events_path In_channel.input_lines
        |> List.filter (fun l -> String.trim l <> "")
      in
      if not Obs.Span.enabled then begin
        Alcotest.(check int) "no trace records under OBS=0" 0 (List.length records);
        Alcotest.(check int) "empty event dump under OBS=0" 0 (List.length event_lines)
      end
      else begin
        (* The untraced sample request must not have produced a record. *)
        let server_record =
          match records with
          | [ r ] -> r
          | rs -> Alcotest.failf "expected 1 trace record, got %d" (List.length rs)
        in
        Alcotest.(check string) "trace id adopted" "t-e2e" server_record.Obs.Profile.tr_trace;
        Alcotest.(check string) "origin" "server" server_record.Obs.Profile.tr_origin;
        Alcotest.(check bool) "server span id is a negated request id" true
          (server_record.Obs.Profile.tr_span < 0);
        Alcotest.(check bool) "hangs under the client's span" true
          (server_record.Obs.Profile.tr_parent = Some 1);
        Alcotest.(check string) "server root stage" "server.request"
          server_record.Obs.Profile.tr_root.Obs.Span.name;
        let stages = server_record.Obs.Profile.tr_root.Obs.Span.children in
        let names spans = List.map (fun (c : Obs.Span.t) -> c.Obs.Span.name) spans in
        List.iter
          (fun stage ->
            Alcotest.(check bool) ("server root holds " ^ stage) true
              (List.mem stage (names stages)))
          [ "stage.queue_wait"; "stage.compute"; "stage.render"; "stage.write" ];
        let compute = List.find (fun (c : Obs.Span.t) -> c.Obs.Span.name = "stage.compute") stages in
        Alcotest.(check bool) "stage.compute holds the server op span" true
          (List.exists (String.starts_with ~prefix:"server.") (names compute.Obs.Span.children));
        let client_root =
          match !client_tree with
          | Some s -> s
          | None -> Alcotest.fail "span probe returned no tree with obs on"
        in
        let client_record =
          { Obs.Profile.tr_trace = "t-e2e"; tr_span = 1; tr_parent = None;
            tr_origin = "test"; tr_t0 = 0.0; tr_root = client_root }
        in
        let merged =
          match Obs.Profile.merge (client_record :: records) with
          | Ok r -> r
          | Error e -> Alcotest.failf "merge failed: %s" e
        in
        let root = merged.Obs.Profile.tr_root in
        Alcotest.(check string) "merged root is the client span" "client.request"
          root.Obs.Span.name;
        Alcotest.(check bool) "server tree grafted under the client" true
          (List.exists
             (fun (c : Obs.Span.t) -> c.Obs.Span.name = "server.request")
             root.Obs.Span.children);
        (* The critical path telescopes to the root wall, which the
           probe measured around the same rpc we clocked by hand; allow
           10% plus a tiny absolute floor for very fast calls. *)
        let path = Obs.Profile.critical_path root in
        (match path with
        | { Obs.Profile.cp_name = "client.request"; _ } :: _ :: _ -> ()
        | _ -> Alcotest.fail "critical path must start at the client span and descend");
        let total = Obs.Profile.total path in
        Alcotest.(check bool)
          (Printf.sprintf "critical path total %.6fs within 10%% of measured %.6fs" total
             !measured)
          true
          (Float.abs (total -. !measured) <= (0.1 *. !measured) +. 1e-4);
        (* Both exporters must accept the merged end-to-end tree. *)
        List.iter
          (fun line ->
            match String.split_on_char ' ' line with
            | [ _; n ] when int_of_string_opt n <> None -> ()
            | _ -> Alcotest.failf "bad folded line: %s" line)
          (String.split_on_char '\n' (String.trim (Obs.Export.folded_stacks root)));
        (match Obs.Export.json_of_string (Obs.Export.chrome_trace root) with
        | Error e -> Alcotest.failf "chrome trace is not JSON: %s" e
        | Ok doc -> (
            match Obs.Export.member "traceEvents" doc with
            | Some (Obs.Export.Arr events) ->
                Alcotest.(check bool) "chrome events present" true (events <> []);
                Alcotest.(check bool) "complete events only" true
                  (List.for_all
                     (fun e -> Obs.Export.member "ph" e = Some (Obs.Export.Str "X"))
                     events);
                let names =
                  List.filter_map
                    (fun e ->
                      match Obs.Export.member "name" e with
                      | Some (Obs.Export.Str s) -> Some s
                      | _ -> None)
                    events
                in
                Alcotest.(check bool) "client and server spans on one timeline" true
                  (List.mem "client.request" names && List.mem "server.request" names
                 && List.mem "stage.compute" names)
            | _ -> Alcotest.fail "chrome trace has no traceEvents array"));
        (* Per-request allocation landed in the stage-labelled histogram,
           counted exactly: the sample request's compute allocates. *)
        (match Obs.Metrics.find_value Obs.Metrics.default "server.gc.compute.alloc_bytes" with
        | Some (Obs.Metrics.Histogram_v snap) ->
            Alcotest.(check bool) "alloc histogram populated" true (snap.Obs.Metrics.count >= 1);
            Alcotest.(check bool) "alloc histogram counts the compute's bytes" true
              (snap.Obs.Metrics.sum > 0.0)
        | _ -> Alcotest.fail "server.gc.compute.alloc_bytes histogram missing");
        (* The drain dumped a decodable smallworld.events.v1 stream. *)
        Alcotest.(check bool) "event dump non-empty" true (event_lines <> []);
        List.iter
          (fun line ->
            match Obs.Export.json_of_string line with
            | Error e -> Alcotest.failf "event line is not JSON: %s (%s)" line e
            | Ok j -> (
                match Obs.Export.event_of_json j with
                | Ok _ -> ()
                | Error e -> Alcotest.failf "event line does not decode: %s (%s)" line e))
          event_lines
      end)

let test_exec_tracing_unit () =
  Obs.Metrics.reset Obs.Metrics.default;
  let ex = Server.Exec.create ~registry_cap:2 ~max_batch:8 () in
  let id1 = Server.Exec.next_request_id ex in
  let id2 = Server.Exec.next_request_id ex in
  Alcotest.(check bool) "ids are monotone" true (id2 = id1 + 1);
  Alcotest.(check int) "idle inflight" 0 (Server.Exec.inflight ex);
  Server.Exec.begin_request ex;
  Server.Exec.begin_request ex;
  Alcotest.(check int) "two in flight" 2 (Server.Exec.inflight ex);
  Server.Exec.end_request ex;
  Alcotest.(check int) "one left" 1 (Server.Exec.inflight ex);
  Server.Exec.set_queue_depth_source ex (fun () -> 7);
  Server.Exec.observe_stages ex ~op:"route" ~compute:0.002 ~render:0.0001
    ~write:0.0001 ();
  let s = Server.Exec.server_stats ex in
  Alcotest.(check (float 0.0)) "queue depth from source" 7.0
    (List.assoc "server.queue_depth" s.V1.gauges);
  Alcotest.(check (float 0.0)) "inflight gauge" 1.0
    (List.assoc "server.inflight" s.V1.gauges);
  if Obs.Metrics.enabled then begin
    match List.find_opt (fun st -> st.V1.stage = "latency.route") s.V1.stages with
    | Some st ->
        Alcotest.(check int) "one observation" 1 st.V1.s_count;
        (* The single observation is 0.0022 s; the estimate must be
           within the histogram's 1/8 relative-error guarantee. *)
        Alcotest.(check bool) "p50 within 12.5% of the observation" true
          (Float.abs (st.V1.p50 -. 0.0022) <= 0.0022 /. 8.0)
    | None -> Alcotest.fail "latency.route stage missing"
  end
  else
    Alcotest.(check bool) "stages silent under OBS=0" true
      (List.for_all (fun st -> st.V1.s_count = 0) s.V1.stages)

let suite =
  [
    Alcotest.test_case "registry LRU eviction" `Quick test_registry_lru;
    Alcotest.test_case "registry pinning" `Quick test_registry_pinning;
    Alcotest.test_case "registry replace keeps old alive" `Quick
      test_registry_replace_keeps_old_alive;
    Alcotest.test_case "registry orphan gauge" `Quick test_registry_orphaned;
    Alcotest.test_case "registry generations are monotone" `Quick
      test_registry_generation;
    Alcotest.test_case "exec deadlines, limits, counters" `Quick test_exec_deadline_and_limits;
    Alcotest.test_case "exec out-of-core ops (spill, merge, snapshot)" `Quick
      test_exec_out_of_core;
    Alcotest.test_case "daemon serves byte-identical routes" `Quick
      test_daemon_route_byte_identity;
    Alcotest.test_case "batch replies invariant under jobs 1/2/4" `Quick
      test_daemon_batch_jobs_invariance;
    Alcotest.test_case "8 concurrent clients" `Quick test_daemon_concurrent_clients;
    Alcotest.test_case "deadline and batch-limit refusals" `Quick
      test_daemon_deadline_and_batch_limit;
    Alcotest.test_case "burst beyond queue capacity is refused" `Quick
      test_daemon_burst_overload;
    Alcotest.test_case "drain completes in-flight work" `Quick
      test_daemon_drain_completes_in_flight;
    Alcotest.test_case "binary codec end to end, mixed with JSON" `Quick
      test_daemon_binary_codec;
    Alcotest.test_case "binary partial frames over TCP" `Quick
      test_daemon_binary_partial_frames;
    Alcotest.test_case "negative frame length refused, daemon survives" `Quick
      test_daemon_binary_negative_length;
    Alcotest.test_case "oversized frame refused, connection survives" `Quick
      test_daemon_binary_oversized;
    Alcotest.test_case "json-only refuses binary framing" `Quick
      test_daemon_json_only;
    Alcotest.test_case "binary wrong version byte is refused structurally" `Quick
      test_daemon_binary_bad_version;
    Alcotest.test_case "json unsupported version is refused structurally" `Quick
      test_daemon_json_bad_version;
    Alcotest.test_case "mutate and churn end to end over the wire" `Quick
      test_daemon_mutate_churn;
    Alcotest.test_case "route cache: hits, invalidation, generations" `Quick
      test_exec_route_cache;
    Alcotest.test_case "route cache single-flight coalescing" `Quick
      test_cache_single_flight;
    Alcotest.test_case "route cache cache_if gates the store" `Quick
      test_cache_if_gates_store;
    Alcotest.test_case "mutate invalidates cached routes" `Quick
      test_exec_mutate_invalidates_cache;
    Alcotest.test_case "mutate vs single-flight race" `Quick
      test_mutate_single_flight_race;
    Alcotest.test_case "concurrent mutates of one name compose" `Quick
      test_concurrent_mutates_compose;
    Alcotest.test_case "exec request tracing" `Quick test_exec_tracing_unit;
    Alcotest.test_case "stats-server over TCP" `Quick test_server_stats_over_tcp;
    Alcotest.test_case "stats-server under concurrent load" `Quick
      test_server_stats_under_load;
    Alcotest.test_case "admin port: HTTP scrape + restricted JSON" `Quick
      test_admin_port;
    Alcotest.test_case "admin scrape behind an idle admin connection" `Quick
      test_admin_idle_does_not_stall;
    Alcotest.test_case "admin answers two pipelined JSON lines in order" `Quick
      test_admin_pipelined_json;
    Alcotest.test_case "compute-mutex wait histogram" `Quick test_compute_mutex_wait;
    Alcotest.test_case "server telemetry: one cell per counter, per server" `Quick
      test_server_telemetry_one_cell;
    Alcotest.test_case "access log sampling is deterministic" `Quick
      test_access_log_sampling_unit;
    Alcotest.test_case "daemon writes the access log" `Quick test_daemon_access_log;
    Alcotest.test_case "peers vanishing mid-frame and mid-request" `Quick
      test_daemon_peer_disconnect;
    Alcotest.test_case "request_manifest writes mid-run" `Quick
      test_manifest_on_request;
    Alcotest.test_case "end-to-end distributed trace" `Quick
      test_daemon_trace_roundtrip;
  ]
