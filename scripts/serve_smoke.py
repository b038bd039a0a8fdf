#!/usr/bin/env python3
"""CI smoke for the route-serving daemon (API v1, stdlib only).

Usage: serve_smoke.py PORT EXPECTED_ROUTE_FILE [nodrain]
                      [--admin PORT] [--access-log FILE] [--trace-out FILE]
                      [--json-only]
       serve_smoke.py check-access-log FILE MIN_LINES

Connects to a running `serve` daemon on 127.0.0.1:PORT (started with
`--load net=... --max-batch 8`) and drives a scripted request mix:

- health: the preloaded instance is registered;
- route: the reply's `text` field is byte-identical to what
  `graphs_cli route` printed for the same pair (EXPECTED_ROUTE_FILE);
- traced route: the same pair with a trace context in the envelope;
  with --trace-out (the file the daemon was started with) and obs on,
  the daemon must append one smallworld.trace.v1 record whose parent
  is the client's declared span and whose tree holds the server stages
  plus an algorithm span;
- route_batch (sampled pairs): right count, deterministic across a
  repeat request;
- binary codec (skipped with --json-only): the same route over the
  length-prefixed binary framing decodes to the byte-identical reply a
  JSON client gets;
- route cache: a repeated (instance, pair, protocol) route bumps the
  `server.cache.hits` counter and returns the identical reply;
- route_batch beyond --max-batch: refused with the `overloaded` code;
- deadline_ms=0: refused with the `deadline` code;
- unknown instance: refused with the `unknown-instance` code;
- stats on the preloaded instance;
- stats-server mid-run: counters consistent with the driven mix,
  gauges present, and (when the daemon runs with obs on) per-stage
  latency quantiles with p50 <= p99 and non-zero counts;
- with --admin: HTTP GET /metrics (Prometheus text with the server
  counters in both obs modes, cumulative `_bucket{le=` lines when obs
  is on) and GET /stats on the admin port, plus the rule that compute
  ops are refused there;
- health again: the counter snapshot saw every request;
- drain: acknowledged, connection closes (skipped when `nodrain` is
  given, so the harness can exercise SIGTERM instead);
- with --access-log (and after drain): the JSONL access log holds one
  schema-tagged line per request with ordered ids and stage timings.

`check-access-log` is the standalone validation mode for the nodrain /
SIGTERM path: run it after the daemon has exited.

Exits non-zero (with a message) on the first deviation.
"""

import json
import socket
import struct
import sys
import time


def connect(port, attempts=50):
    for _ in range(attempts):
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
            return sock
        except OSError:
            time.sleep(0.2)
    sys.exit(f"cannot connect to 127.0.0.1:{port}")


class Client:
    def __init__(self, sock):
        self.file = sock.makefile("rw", encoding="utf-8", newline="\n")

    def rpc(self, request):
        request.setdefault("v", 1)
        self.file.write(json.dumps(request) + "\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            sys.exit(f"connection closed answering {request!r}")
        return json.loads(line)


def _leb(n):
    """Unsigned LEB128."""
    out = bytearray()
    while True:
        low = n & 0x7F
        n >>= 7
        if n == 0:
            out.append(low)
            return bytes(out)
        out.append(low | 0x80)


def _enc(v, out):
    """Encode one JSON value in the Api.Binary tagged format."""
    if v is None:
        out.append(0)
    elif v is True:
        out.append(1)
    elif v is False:
        out.append(2)
    elif isinstance(v, int):
        zz = (v << 1) ^ (v >> 63)  # zigzag; Python >> is arithmetic
        out += b"\x03" + _leb(zz)
    elif isinstance(v, float):
        out += b"\x04" + struct.pack("<d", v)
    elif isinstance(v, str):
        b = v.encode()
        out += b"\x05" + _leb(len(b)) + b
    elif isinstance(v, list):
        out += b"\x06" + _leb(len(v))
        for x in v:
            _enc(x, out)
    elif isinstance(v, dict):
        out += b"\x07" + _leb(len(v))
        for k, x in v.items():
            kb = k.encode()
            out += _leb(len(kb)) + kb
            _enc(x, out)
    else:
        sys.exit(f"binary encode: unsupported value {v!r}")


def _rleb(buf, p):
    v = shift = 0
    while True:
        c = buf[p]
        p += 1
        v |= (c & 0x7F) << shift
        shift += 7
        if not c & 0x80:
            return v, p


def _dec(buf, p):
    """Decode one tagged value; returns (value, next_pos)."""
    tag = buf[p]
    p += 1
    if tag == 0:
        return None, p
    if tag == 1:
        return True, p
    if tag == 2:
        return False, p
    if tag == 3:
        v, p = _rleb(buf, p)
        return (v >> 1) ^ -(v & 1), p
    if tag == 4:
        return struct.unpack_from("<d", buf, p)[0], p + 8
    if tag == 5:
        n, p = _rleb(buf, p)
        return buf[p : p + n].decode(), p + n
    if tag == 6:
        n, p = _rleb(buf, p)
        items = []
        for _ in range(n):
            x, p = _dec(buf, p)
            items.append(x)
        return items, p
    if tag == 7:
        n, p = _rleb(buf, p)
        fields = {}
        for _ in range(n):
            klen, p = _rleb(buf, p)
            key = buf[p : p + klen].decode()
            p += klen
            fields[key], p = _dec(buf, p)
        return fields, p
    sys.exit(f"binary decode: unknown tag {tag}")


class BinaryClient:
    """Speaks the length-prefixed binary framing of Api.Binary:
    magic 0xB1, version 0x01, LEB128 payload length, tagged payload."""

    def __init__(self, sock):
        self.sock = sock
        self.buf = b""

    def rpc(self, request):
        request.setdefault("v", 1)
        payload = bytearray()
        _enc(request, payload)
        self.sock.sendall(b"\xb1\x01" + _leb(len(payload)) + bytes(payload))
        while True:
            frame = self._take_frame()
            if frame is not None:
                reply, consumed = _dec(frame, 0)
                if consumed != len(frame):
                    sys.exit(f"binary reply: {len(frame) - consumed} trailing bytes")
                return reply
            data = self.sock.recv(65536)
            if not data:
                sys.exit(f"connection closed answering {request!r} (binary)")
            self.buf += data

    def _take_frame(self):
        buf = self.buf
        if len(buf) < 2:
            return None
        if buf[0] != 0xB1 or buf[1] != 0x01:
            sys.exit(f"binary reply: bad frame header {buf[:2]!r}")
        p, n, shift = 2, 0, 0
        while True:
            if p >= len(buf):
                return None
            c = buf[p]
            p += 1
            n |= (c & 0x7F) << shift
            shift += 7
            if not c & 0x80:
                break
        if len(buf) < p + n:
            return None
        self.buf = buf[p + n :]
        return buf[p : p + n]


def expect_ok(reply, op):
    if not reply.get("ok"):
        sys.exit(f"{op}: expected success, got {reply!r}")
    return reply["result"]


def expect_error(reply, code, op):
    if reply.get("ok"):
        sys.exit(f"{op}: expected the {code!r} error, got {reply!r}")
    got = reply.get("error", {}).get("code")
    if got != code:
        sys.exit(f"{op}: expected the {code!r} error, got {got!r}")


def http_get(port, path):
    """Minimal HTTP/1.0 GET against the daemon's admin listener."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
    chunks = []
    while True:
        data = sock.recv(65536)
        if not data:
            break
        chunks.append(data)
    sock.close()
    raw = b"".join(chunks).decode("utf-8", errors="replace")
    head, _, body = raw.partition("\r\n\r\n")
    status = head.split("\r\n", 1)[0]
    return status, body


def check_server_stats(stats, when):
    """Shared assertions on a stats-server result dict."""
    for key in ("uptime_s", "draining", "obs_live", "counters", "gauges", "stages"):
        if key not in stats:
            sys.exit(f"stats-server ({when}): missing field {key!r}: {stats!r}")
    counters = stats["counters"]
    if counters.get("server.accepted", 0) < counters.get("server.served", 0):
        sys.exit(f"stats-server ({when}): served exceeds accepted: {counters!r}")
    for key in ("server.cache.hits", "server.cache.misses"):
        if key not in counters:
            sys.exit(f"stats-server ({when}): missing counter {key!r}")
    for gauge in (
        "server.queue_depth",
        "server.inflight",
        "server.registry.size",
        "server.registry.pinned",
        "server.cache.size",
        "server.cache.cap",
    ):
        if gauge not in stats["gauges"]:
            sys.exit(f"stats-server ({when}): missing gauge {gauge!r}")
    # This very request is in flight while the snapshot is taken.
    if stats["gauges"]["server.inflight"] < 1:
        sys.exit(f"stats-server ({when}): inflight gauge lost this request")
    if stats["gauges"]["server.registry.size"] < 1:
        sys.exit(f"stats-server ({when}): preloaded instance not in registry gauge")
    if "smallworld_server_accepted" not in stats.get("prometheus", ""):
        sys.exit(f"stats-server ({when}): prometheus dump lacks the counters")
    if stats["obs_live"]:
        stages = {s["stage"]: s for s in stats["stages"]}
        for name in ("stage.compute", "stage.render", "stage.write"):
            if name not in stages:
                sys.exit(f"stats-server ({when}): no {name} histogram")
            st = stages[name]
            if st["count"] < 1:
                sys.exit(f"stats-server ({when}): {name} saw no requests: {st!r}")
            if not (st["p50"] <= st["p90"] <= st["p99"] <= st["p999"]):
                sys.exit(f"stats-server ({when}): unordered quantiles: {st!r}")
        if stages.get("latency.route", {}).get("count", 0) < 1:
            sys.exit(f"stats-server ({when}): route latency histogram is empty")
    return counters


def check_access_log(path, min_lines, attempts=50):
    """The access log is flushed asynchronously: poll until it holds at
    least min_lines valid smallworld.access.v1 records."""
    entries = []
    for _ in range(attempts):
        try:
            with open(path, encoding="utf-8") as f:
                lines = [l for l in f.read().splitlines() if l.strip()]
        except OSError:
            lines = []
        if len(lines) >= min_lines:
            entries = lines
            break
        time.sleep(0.2)
    if len(entries) < min_lines:
        sys.exit(f"access log {path}: expected >= {min_lines} lines, got {len(entries)}")
    prev_req = 0
    for line in entries:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"access log line is not JSON ({e}): {line!r}")
        if rec.get("schema") != "smallworld.access.v1":
            sys.exit(f"access log line has wrong schema: {line!r}")
        for key in ("req", "op", "outcome", "t", "queue_ms", "compute_ms",
                    "render_ms", "write_ms", "total_ms"):
            if key not in rec:
                sys.exit(f"access log line missing {key!r}: {line!r}")
        if rec["req"] <= prev_req:
            sys.exit(f"access log request ids not increasing: {line!r}")
        prev_req = rec["req"]
        parts = rec["queue_ms"] + rec["compute_ms"] + rec["render_ms"] + rec["write_ms"]
        if abs(parts - rec["total_ms"]) > 0.01:
            sys.exit(f"access log stage timings do not sum to total_ms: {line!r}")
    ops = {rec["op"] for rec in map(json.loads, entries)}
    if "route" not in ops:
        sys.exit(f"access log never saw a route request: ops = {sorted(ops)!r}")
    print(f"access log ok: {len(entries)} records, ops {sorted(ops)}")


def check_trace_file(path, trace_id, attempts=50):
    """The daemon appends one smallworld.trace.v1 record per traced
    request (flushed synchronously); poll briefly for the file."""
    records = []
    for _ in range(attempts):
        try:
            with open(path, encoding="utf-8") as f:
                lines = [l for l in f.read().splitlines() if l.strip()]
        except OSError:
            lines = []
        if lines:
            records = [json.loads(l) for l in lines]
            break
        time.sleep(0.2)
    ours = [r for r in records if r.get("trace") == trace_id]
    if not ours:
        sys.exit(f"trace file {path}: no record for trace {trace_id!r}")
    rec = ours[0]
    if rec.get("schema") != "smallworld.trace.v1":
        sys.exit(f"trace record has wrong schema: {rec!r}")
    if rec.get("origin") != "server":
        sys.exit(f"trace record origin is not the server: {rec!r}")
    if rec.get("parent") != 1:
        sys.exit(f"trace record does not parent the client span: {rec!r}")
    if rec.get("span", 0) >= 0:
        sys.exit(f"server trace span ids must be negative: {rec!r}")
    root = rec.get("root", {})
    if root.get("name") != "server.request":
        sys.exit(f"trace root is not server.request: {root!r}")
    children = {c["name"] for c in root.get("children", [])}
    for stage in ("stage.queue_wait", "stage.compute", "stage.render", "stage.write"):
        if stage not in children:
            sys.exit(f"trace root lacks the {stage} span: {sorted(children)!r}")
    compute = next(c for c in root["children"] if c["name"] == "stage.compute")
    algo = {c["name"] for c in compute.get("children", [])}
    if not any(n.startswith("server.") for n in algo):
        sys.exit(f"stage.compute holds no server op span: {sorted(algo)!r}")
    print(f"trace file ok: {len(ours)} record(s) for trace {trace_id!r}")


def main():
    args = sys.argv[1:]
    if args and args[0] == "check-access-log":
        check_access_log(args[1], int(args[2]))
        return

    admin_port = None
    access_log = None
    trace_out = None
    json_only = False
    positional = []
    i = 0
    while i < len(args):
        if args[i] == "--admin":
            admin_port = int(args[i + 1])
            i += 2
        elif args[i] == "--access-log":
            access_log = args[i + 1]
            i += 2
        elif args[i] == "--trace-out":
            trace_out = args[i + 1]
            i += 2
        elif args[i] == "--json-only":
            json_only = True
            i += 1
        else:
            positional.append(args[i])
            i += 1
    port = int(positional[0])
    expected_route = open(positional[1], encoding="utf-8").read()
    nodrain = len(positional) > 2 and positional[2] == "nodrain"
    client = Client(connect(port))

    health = expect_ok(client.rpc({"op": "health"}), "health")
    if "net" not in health["instances"]:
        sys.exit(f"preloaded instance missing from registry: {health!r}")

    route = expect_ok(
        client.rpc(
            {
                "op": "route",
                "instance": "net",
                "source": 4,
                "target": 93,
                "protocol": "phi-dfs",
                "id": 1,
            }
        ),
        "route",
    )
    if route["text"] != expected_route:
        sys.exit(
            "served route text differs from graphs_cli output:\n"
            f"served:   {route['text']!r}\nexpected: {expected_route!r}"
        )

    # The same route again, now carrying a trace context: the reply is
    # unchanged, and (with --trace-out + obs on) the daemon appends a
    # smallworld.trace.v1 record parented under our declared span.
    traced = expect_ok(
        client.rpc(
            {
                "op": "route",
                "instance": "net",
                "source": 4,
                "target": 93,
                "protocol": "phi-dfs",
                "trace": {"id": "smoke-trace", "span": 1},
            }
        ),
        "traced route",
    )
    if traced["text"] != expected_route:
        sys.exit("traced route text differs from the untraced reply")

    batch_req = {
        "op": "route_batch",
        "instance": "net",
        "count": 4,
        "pair_seed": 3,
        "pair_pool": "giant",
        "protocol": "greedy",
    }
    batch = expect_ok(client.rpc(batch_req), "route_batch")
    if len(batch["routes"]) != 4:
        sys.exit(f"route_batch: expected 4 replies, got {len(batch['routes'])}")
    again = expect_ok(client.rpc(batch_req), "route_batch repeat")
    if batch != again:
        sys.exit("route_batch is not deterministic across identical requests")

    # Mid-run telemetry scrape, while the connection is hot.
    mid = expect_ok(client.rpc({"op": "stats-server"}), "stats-server")
    mid_counters = check_server_stats(mid, "mid-run")
    # health + route + traced route + batch x2 + this stats-server
    # = 6 accepted so far.
    if mid_counters.get("server.accepted", 0) < 6:
        sys.exit(f"stats-server (mid-run): accepted lost requests: {mid_counters!r}")

    oversized = [[i, i + 1] for i in range(0, 18, 2)]  # 9 pairs > --max-batch 8
    expect_error(
        client.rpc({"op": "route_batch", "instance": "net", "pairs": oversized}),
        "overloaded",
        "oversized batch",
    )

    expect_error(
        client.rpc(
            {
                "op": "route",
                "instance": "net",
                "source": 4,
                "target": 93,
                "deadline_ms": 0,
            }
        ),
        "deadline",
        "deadline_ms=0",
    )

    expect_error(
        client.rpc({"op": "stats", "instance": "ghost"}),
        "unknown-instance",
        "unknown instance",
    )

    stats = expect_ok(client.rpc({"op": "stats", "instance": "net"}), "stats")
    if stats["vertices"] <= 0 or stats["edges"] <= 0:
        sys.exit(f"implausible stats reply: {stats!r}")

    if not json_only:
        # Binary wire codec: the identical route over the framed binary
        # protocol must decode to exactly the reply a JSON client gets.
        breq = {
            "op": "route",
            "instance": "net",
            "source": 4,
            "target": 93,
            "protocol": "phi-dfs",
            "id": 41,
        }
        jreply = client.rpc(dict(breq))
        bsock = connect(port)
        breply = BinaryClient(bsock).rpc(dict(breq))
        if breply != jreply:
            sys.exit(
                "binary reply differs from the JSON reply:\n"
                f"binary: {breply!r}\njson:   {jreply!r}"
            )
        if expect_ok(breply, "binary route")["text"] != expected_route:
            sys.exit("binary route text differs from graphs_cli output")
        bsock.close()
        print("binary codec ok: reply matches the JSON codec")

    # Route cache: the (4, 93) phi-dfs pair is now warm, so two more
    # repeats must come from the cache and bump server.cache.hits.
    pre = expect_ok(client.rpc({"op": "stats-server"}), "stats-server (cache pre)")
    pre_hits = pre["counters"]["server.cache.hits"]
    if pre["counters"]["server.cache.misses"] < 1:
        sys.exit(f"cache: the first route was not counted as a miss: {pre['counters']!r}")
    cached_req = {"op": "route", "instance": "net", "source": 4, "target": 93,
                  "protocol": "phi-dfs"}
    first = expect_ok(client.rpc(dict(cached_req)), "route (cached)")
    second = expect_ok(client.rpc(dict(cached_req)), "route (cached repeat)")
    if first != second or first["text"] != expected_route:
        sys.exit("cached route reply differs from the computed one")
    post = expect_ok(client.rpc({"op": "stats-server"}), "stats-server (cache post)")
    if post["counters"]["server.cache.hits"] < pre_hits + 2:
        sys.exit(
            f"cache hits did not advance: {pre_hits} -> "
            f"{post['counters']['server.cache.hits']}"
        )
    if post["gauges"]["server.cache.size"] < 1:
        sys.exit(f"cache size gauge empty after hits: {post['gauges']!r}")
    print(f"route cache ok: hits {pre_hits} -> {post['counters']['server.cache.hits']}")

    if admin_port is not None:
        status, body = http_get(admin_port, "/metrics")
        if "200" not in status:
            sys.exit(f"admin /metrics: expected 200, got {status!r}")
        if "smallworld_server_accepted" not in body:
            sys.exit("admin /metrics: missing the server counters")
        # The cache-hit leg ran before this scrape: server.cache.hits
        # must be non-zero in the Prometheus text too.
        hits_line = next(
            (l for l in body.splitlines()
             if l.startswith("smallworld_server_cache_hits")), None)
        if hits_line is None:
            sys.exit("admin /metrics: no cache-hit counter")
        if float(hits_line.split()[-1]) < 2:
            sys.exit(f"admin /metrics: cache hits not visible: {hits_line!r}")
        if mid["obs_live"] and "_bucket{le=" not in body:
            sys.exit("admin /metrics: no cumulative histogram buckets")
        status, body = http_get(admin_port, "/stats")
        if "200" not in status:
            sys.exit(f"admin /stats: expected 200, got {status!r}")
        admin_stats = json.loads(body)
        if not admin_stats.get("ok"):
            sys.exit(f"admin /stats: not a success reply: {admin_stats!r}")
        check_server_stats_result = admin_stats["result"]
        # Admin scrapes are out-of-band: they must not inflate the
        # request counters the workers maintain.
        if (
            check_server_stats_result["counters"]["server.accepted"]
            < mid_counters["server.accepted"]
        ):
            sys.exit("admin /stats: counters went backwards")
        # The cache-hit leg above ran before this scrape: its hits must
        # be visible on the out-of-band admin plane too.
        if check_server_stats_result["counters"].get("server.cache.hits", 0) < 2:
            sys.exit(
                "admin /stats: cache hits not visible: "
                f"{check_server_stats_result['counters']!r}"
            )
        status, _ = http_get(admin_port, "/definitely-not-a-path")
        if "404" not in status:
            sys.exit(f"admin unknown path: expected 404, got {status!r}")
        admin_client = Client(connect(admin_port))
        expect_ok(admin_client.rpc({"op": "stats-server"}), "admin stats-server")
        expect_error(
            admin_client.rpc(
                {"op": "route", "instance": "net", "source": 0, "target": 1}
            ),
            "bad-request",
            "compute op on admin port",
        )

    health = expect_ok(client.rpc({"op": "health"}), "health")
    counters = health["counters"]
    # Only backpressure refusals (overloaded / draining) count as
    # rejections; unknown-instance is an ordinary failed reply.
    if counters.get("server.rejected", 0) < 1:
        sys.exit(f"rejections not counted: {counters!r}")
    if counters.get("server.deadline_missed", 0) < 1:
        sys.exit(f"deadline miss not counted: {counters!r}")
    if counters.get("server.served", 0) < 5:
        sys.exit(f"served requests not counted: {counters!r}")

    if trace_out is not None and mid["obs_live"]:
        check_trace_file(trace_out, "smoke-trace")

    if not nodrain:
        drained = expect_ok(client.rpc({"op": "drain"}), "drain")
        if not drained.get("draining"):
            sys.exit(f"drain not acknowledged: {drained!r}")
        if access_log is not None:
            # Everything this script sent on the main connection:
            # 2x health, route, traced route, 2x batch, stats-server,
            # 3 refusals, stats, 2x cache stats-server, 2x cached
            # route, drain = 16 requests; the binary leg adds its JSON
            # twin plus one binary request.
            check_access_log(access_log, 16 if json_only else 18)

    print("serve smoke: all checks passed")


if __name__ == "__main__":
    main()
