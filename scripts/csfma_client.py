#!/usr/bin/env python3
"""Stdlib JSON-lines client for the csfma_serve daemon.

Speaks proto version 1 of the protocol in docs/service.md over any
transport the daemon offers: a spawned child process on stdin/stdout, a
Unix stream socket, or TCP.  The importable surface is the CsfmaClient
class (construction via CsfmaClient.spawn / .connect / .connect_tcp;
requests via .submit / .sweep / .status / .cancel / .shutdown); the CLI
below is a thin wrapper over it.

  csfma_client.py submit --serve BIN --mode batch --unit pcs --ops 100000 --seed 1
      spawn a daemon, run one job, print the result reply as JSON

  csfma_client.py sweep --serve BIN --units pcs,fcs --seeds 1,2 --ops 20000
      run a server-side sweep, print per-point summaries + the digest

  csfma_client.py stats --serve BIN            (or --socket/--tcp)
      fetch the live metrics snapshot (`stats` request) and print it

  csfma_client.py shutdown --socket PATH       (or --tcp HOST:PORT)
      stop a listening daemon: it drains its work, says bye and exits

  csfma_client.py selftest --serve BIN [--transport stdio|socket|tcp|both|all]
      the end-to-end conformance suite CI runs: cache-hit byte-identity,
      cooperative cancel, malformed-input replies, proto-version gating,
      1-vs-4-worker determinism, backpressure busy errors, cache
      persistence across a daemon restart, sweep replay byte-identity,
      trace-context echo (trace_id and parent_span), live stats, and
      structured-log determinism.
      Exit 0 iff every check passes.

No third-party imports; python3 stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import time

#: The protocol generation this client speaks.  Sent in every request;
#: the daemon answers any other value with an `unsupported_version` error
#: and every reply carries the daemon's own proto for the client to check.
PROTO = 1


class ProtocolError(RuntimeError):
    """The daemon violated the JSON-lines protocol (or crashed)."""


class _StdioTransport:
    """Daemon as a child process; requests on stdin, replies on stdout."""

    def __init__(self, argv):
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )

    def send_line(self, line):
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise ProtocolError("daemon closed stdin (crashed?)")

    def recv_line(self):
        line = self.proc.stdout.readline()
        if line == "":
            rc = self.proc.poll()
            raise ProtocolError(f"daemon EOF (exit status {rc})")
        return line.rstrip("\n")

    def close(self):
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        rc = self.proc.wait(timeout=60)
        self.proc.stdout.close()
        return rc


class _SocketTransport:
    """Connection to a listening daemon: Unix path or (host, port)."""

    def __init__(self, addr, timeout_s=300.0):
        if isinstance(addr, tuple):
            self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            # One small line per request: do not hold it back for an ACK.
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        else:
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout_s)
        self.sock.connect(addr)
        self.rfile = self.sock.makefile("r", encoding="utf-8")

    def send_line(self, line):
        try:
            self.sock.sendall((line + "\n").encode("utf-8"))
        except (BrokenPipeError, ConnectionResetError):
            raise ProtocolError("daemon closed the socket (crashed?)")

    def recv_line(self):
        line = self.rfile.readline()
        if line == "":
            raise ProtocolError("daemon EOF on socket")
        return line.rstrip("\n")

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        # Drain whatever the daemon still sends (the final "bye").
        try:
            while self.rfile.readline():
                pass
        except OSError:
            pass
        self.rfile.close()
        self.sock.close()
        return 0


def _report_bytes(raw_line):
    """The raw report object out of a reply line carrying `"report":`.

    Splices the substring after the marker so byte-identity checks are
    immune to the reply envelope (id, elapsed_s, cache verdict).
    """
    marker = '"report":'
    idx = raw_line.find(marker)
    if idx < 0:
        raise ProtocolError(f"no report in reply: {raw_line!r}")
    return raw_line[idx + len(marker):-1]


class Result:
    """One finished submit: the terminal reply plus everything en route."""

    def __init__(self, accepted, terminal, raw_terminal, progress):
        self.accepted = accepted        # parsed "accepted" reply
        self.terminal = terminal        # parsed "result"/"cancelled"/"error"
        self.raw_terminal = raw_terminal  # exact daemon bytes (str)
        self.progress = progress        # parsed "progress" events, in order

    @property
    def job(self):
        return self.accepted["job"]

    @property
    def report_bytes(self):
        return _report_bytes(self.raw_terminal)


class SweepResult:
    """One finished sweep: ordered point lines plus the terminal summary."""

    def __init__(self, accepted, points, raw_points, done, raw_done,
                 progress):
        self.accepted = accepted      # parsed "accepted" (carries "points")
        self.points = points          # parsed "sweep_point" lines, in order
        self.raw_points = raw_points  # exact daemon bytes per point (str)
        self.done = done              # parsed "sweep_done" summary
        self.raw_done = raw_done      # exact daemon bytes of the summary
        self.progress = progress      # parsed "progress" events, in order

    @property
    def job(self):
        return self.accepted["job"]

    @property
    def digest(self):
        return self.done["digest"]

    def point_report_bytes(self, index):
        return _report_bytes(self.raw_points[index])


class CsfmaClient:
    """Synchronous proto-1 driver on top of any line transport."""

    def __init__(self, transport):
        self.t = transport
        self._next_id = 0

    # -- construction -----------------------------------------------------

    @classmethod
    def spawn(cls, serve_binary, workers=2, cache=64, progress_interval=0.5,
              max_pending=None, cache_file=None, extra_args=()):
        """Spawn a private daemon on stdin/stdout."""
        argv = [serve_binary,
                "--workers", str(workers),
                "--job-cache", str(cache),
                "--progress-interval", str(progress_interval)]
        if max_pending is not None:
            argv += ["--max-pending", str(max_pending)]
        if cache_file is not None:
            argv += ["--cache-file", str(cache_file)]
        argv += list(extra_args)
        return cls(_StdioTransport(argv))

    @classmethod
    def connect(cls, socket_path, timeout_s=300.0):
        """Connect to a daemon listening on --socket PATH."""
        return cls(_SocketTransport(socket_path, timeout_s))

    @classmethod
    def connect_tcp(cls, host, port, timeout_s=300.0):
        """Connect to a daemon listening on --tcp HOST:PORT."""
        return cls(_SocketTransport((host, int(port)), timeout_s))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        return self.t.close()

    # -- raw line layer ---------------------------------------------------

    def _send(self, obj):
        self.t.send_line(json.dumps(obj))

    def _recv(self):
        raw = self.t.recv_line()
        try:
            msg = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ProtocolError(f"daemon emitted malformed JSON: {raw!r}: {e}")
        if not isinstance(msg, dict) or "type" not in msg:
            raise ProtocolError(f"daemon reply has no type: {raw!r}")
        if msg.get("proto") != PROTO:
            raise ProtocolError(
                f"daemon speaks proto {msg.get('proto')!r}, "
                f"this client wants {PROTO}: {raw!r}")
        return msg, raw

    def _rid(self):
        self._next_id += 1
        return f"c{self._next_id}"

    # -- requests ---------------------------------------------------------

    def submit_async(self, params):
        """Send a submit; return the parsed accepted (or error) reply.

        A `trace_id` or `parent_span` entry in `params` goes out on the
        wire like any other field; the daemon echoes both on every reply
        and progress event of this request (the same holds for sweep()).
        """
        req = dict(params)
        req["type"] = "submit"
        req["proto"] = PROTO
        req.setdefault("id", self._rid())
        self._send(req)
        msg, raw = self._recv()
        return msg, raw

    def wait(self, job):
        """Collect events until `job`'s terminal reply; return it + progress."""
        progress = []
        while True:
            msg, raw = self._recv()
            if msg["type"] == "progress":
                if msg["job"] == job:
                    progress.append(msg)
                continue
            if msg.get("job") == job:
                return msg, raw, progress
            # Terminal reply for some other in-flight job: not ours to
            # consume in this simple synchronous client.
            raise ProtocolError(f"unexpected interleaved reply: {raw!r}")

    def submit(self, **params):
        """Submit and block for the terminal reply (result/cancelled)."""
        acc, raw_acc = self.submit_async(params)
        if acc["type"] == "error":
            return Result(acc, acc, raw_acc, [])
        terminal, raw, progress = self.wait(acc["job"])
        return Result(acc, terminal, raw, progress)

    def sweep(self, **params):
        """Run a server-side sweep and block for its sweep_done summary."""
        req = dict(params)
        req["type"] = "sweep"
        req["proto"] = PROTO
        req.setdefault("id", self._rid())
        self._send(req)
        acc, raw_acc = self._recv()
        if acc["type"] == "error":
            return SweepResult(acc, [], [], acc, raw_acc, [])
        job = acc["job"]
        points, raw_points, progress = [], [], []
        while True:
            msg, raw = self._recv()
            if msg["type"] == "progress":
                if msg["job"] == job:
                    progress.append(msg)
                continue
            if msg["type"] == "sweep_point" and msg["job"] == job:
                if msg["index"] != len(points):
                    raise ProtocolError(
                        f"sweep point out of order: got index {msg['index']}, "
                        f"expected {len(points)}")
                points.append(msg)
                raw_points.append(raw)
                continue
            if msg.get("job") == job:  # sweep_done / cancelled / error
                return SweepResult(acc, points, raw_points, msg, raw,
                                   progress)
            raise ProtocolError(f"unexpected interleaved reply: {raw!r}")

    def cancel(self, job, trace_id=None):
        req = {"type": "cancel", "proto": PROTO, "id": self._rid(),
               "job": job}
        if trace_id is not None:
            req["trace_id"] = trace_id
        self._send(req)
        msg, _ = self._recv()
        return msg

    def status(self, trace_id=None):
        req = {"type": "status", "proto": PROTO, "id": self._rid()}
        if trace_id is not None:
            req["trace_id"] = trace_id
        self._send(req)
        msg, _ = self._recv()
        return msg

    def stats(self, trace_id=None, parent_span=None):
        """Fetch the live metrics snapshot (answered inline, never queued).

        Progress events from jobs still in flight may interleave; they are
        skipped, so this is safe to call while work is running.
        """
        req = {"type": "stats", "proto": PROTO, "id": self._rid()}
        if trace_id is not None:
            req["trace_id"] = trace_id
        if parent_span is not None:
            req["parent_span"] = parent_span
        self._send(req)
        msg, _ = self._recv()
        while msg["type"] == "progress":
            msg, _ = self._recv()
        return msg

    def shutdown(self, trace_id=None):
        req = {"type": "shutdown", "proto": PROTO, "id": self._rid()}
        if trace_id is not None:
            req["trace_id"] = trace_id
        self._send(req)
        msg, _ = self._recv()
        return msg

    def send_raw(self, text):
        """Send a raw (possibly malformed) line; return the parsed reply."""
        self.t.send_line(text)
        msg, _ = self._recv()
        return msg


#: Backward-compatible alias; new code should import CsfmaClient.
Client = CsfmaClient


# -- daemon spawning helpers (selftest + CLI) -----------------------------


def _spawn_listening(serve, args, ready):
    """Start a listening daemon; wait for `ready()` truthy or die trying."""
    proc = subprocess.Popen([serve] + args, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    deadline = time.time() + 30
    while True:
        r = ready()
        if r:
            return proc, r
        if time.time() > deadline or proc.poll() is not None:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            return None, None
        time.sleep(0.05)


def _read_port_file(path):
    try:
        with open(path) as f:
            text = f.read().strip()
        return int(text) if text else None
    except (OSError, ValueError):
        return None


# -- selftest ------------------------------------------------------------


class Check:
    def __init__(self):
        self.failures = []

    def ok(self, cond, what):
        tag = "ok" if cond else "FAIL"
        print(f"  [{tag}] {what}")
        if not cond:
            self.failures.append(what)


BATCH = dict(mode="batch", unit="pcs", ops=20000, seed=11)
SWEEP = dict(mode="batch", unit=["pcs", "fcs"], seed=[11, 12], ops=20000)


def selftest_session(check, client):
    """Protocol conformance against one live session (any transport)."""
    # 1. Determinism + cache: identical sequential submits; the second must
    #    be served from the LRU cache and the report must be byte-identical.
    r1 = client.submit(**BATCH)
    r2 = client.submit(**BATCH)
    check.ok(r1.terminal["type"] == "result", "first submit completes")
    check.ok(r1.terminal["cache"] == "miss", "first submit is a cache miss")
    check.ok(r2.terminal["cache"] == "hit", "second identical submit is a cache hit")
    check.ok(r1.accepted["cache_key"] == r2.accepted["cache_key"],
             "identical submits share a cache key")
    check.ok(r1.report_bytes == r2.report_bytes,
             "cache hit replays byte-identical report")
    check.ok(len(r1.progress) >= 1, "job streamed progress events")
    if r1.progress:
        last = r1.progress[-1]
        check.ok(last["ops_done"] == last["ops_total"] == BATCH["ops"],
                 "final progress event reports 100%")
    check.ok(r1.accepted.get("proto") == PROTO and
             r1.terminal.get("proto") == PROTO,
             "replies carry proto version 1")

    # 2. Cooperative cancel: a job big enough to still be running when the
    #    cancel lands; expect cancel_ok then a clean `cancelled` terminal
    #    reply, and a daemon that still answers afterwards.
    big = dict(mode="batch", unit="pcs", ops=200_000_000, seed=3,
               shard_ops=4096)
    acc, _ = client.submit_async(big)
    check.ok(acc["type"] == "accepted", "long job accepted")
    ack = client.cancel(acc["job"])
    # The ack can arrive after progress lines already in flight.
    while ack["type"] == "progress":
        ack, _ = client._recv()
    check.ok(ack["type"] == "cancel_ok", f"cancel acknowledged ({ack['type']})")
    terminal, _, _ = client.wait(acc["job"])
    check.ok(terminal["type"] == "cancelled", "cancelled terminal reply")
    check.ok(terminal["ops_done"] < big["ops"],
             "cancel stopped the job before completion")
    st = client.status()
    check.ok(st["type"] == "status", "daemon alive after cancel")
    states = {j["job"]: j["state"] for j in st["jobs"]}
    check.ok(states.get(acc["job"]) == "cancelled",
             "status shows job cancelled")

    # 3. Typed errors for malformed input — and the daemon survives them.
    e = client.send_raw("this is not json")
    check.ok(e["type"] == "error" and e["code"] == "parse_error",
             "malformed line gets parse_error")
    e = client.send_raw('{"type":"frobnicate"}')
    check.ok(e["type"] == "error" and e["code"] == "unknown_type",
             "unknown request type gets unknown_type")
    e = client.send_raw('{"type":"submit","mode":"batch","unit":"pcs","seed":1}')
    check.ok(e["type"] == "error" and e["code"] == "bad_request",
             "missing field gets bad_request")
    e = client.send_raw('{"type":"status","proto":99,"id":"v"}')
    check.ok(e["type"] == "error" and e["code"] == "unsupported_version",
             "wrong proto version gets unsupported_version")
    e = client.cancel("job-99999")
    check.ok(e["type"] == "error" and e["code"] == "unknown_job",
             "cancel of unknown job gets unknown_job")
    check.ok(client.status()["type"] == "status",
             "daemon alive after error barrage")

    # 4. Server-side sweep: 4 points, streamed in index order, summarized
    #    with a digest; a repeat sweep is all cache hits with the same
    #    digest and byte-identical point payloads.
    s1 = client.sweep(**SWEEP)
    check.ok(s1.accepted["type"] == "accepted" and s1.accepted["points"] == 4,
             "sweep accepted with 4 points")
    check.ok(s1.done["type"] == "sweep_done", "sweep completes")
    check.ok(len(s1.points) == 4, "every sweep point streamed")
    check.ok([p["params"]["unit"] for p in s1.points] ==
             ["pcs", "pcs", "fcs", "fcs"],
             "points follow the fixed expansion order")
    s2 = client.sweep(**SWEEP)
    check.ok(s2.done["cache_hits"] == 4 and s2.done["cache_misses"] == 0,
             "repeat sweep is all cache hits")
    check.ok(s1.digest == s2.digest, "repeat sweep digest matches")
    check.ok(all(s1.point_report_bytes(i) == s2.point_report_bytes(i)
                 for i in range(4)),
             "repeat sweep point payloads byte-identical")
    # A sweep point result is the same bytes a plain submit produces
    # (cache-deduplicated both ways: this submit is a hit).
    r = client.submit(**BATCH)
    check.ok(r.terminal["cache"] == "hit" and
             r.report_bytes == s1.point_report_bytes(0),
             "sweep point deduplicates against plain submits")

    # 5. trace_id propagation: a client-supplied trace_id comes back on
    #    every reply and event of its request — accepted, progress, result
    #    for a submit; accepted, sweep_point, sweep_done for a sweep.
    fresh = dict(mode="batch", unit="pcs", ops=20000, seed=41)
    r = client.submit(trace_id="tr-submit", **fresh)
    check.ok(r.accepted.get("trace_id") == "tr-submit",
             "trace_id echoed on accepted reply")
    check.ok(r.terminal.get("trace_id") == "tr-submit",
             "trace_id echoed on result reply")
    check.ok(len(r.progress) >= 1 and
             all(p.get("trace_id") == "tr-submit" for p in r.progress),
             "trace_id echoed on every progress event")
    s = client.sweep(trace_id="tr-sweep", **SWEEP)
    check.ok(s.accepted.get("trace_id") == "tr-sweep" and
             s.done.get("trace_id") == "tr-sweep",
             "trace_id echoed on sweep accepted and sweep_done")
    check.ok(all(p.get("trace_id") == "tr-sweep" for p in s.points),
             "trace_id echoed on every sweep_point line")
    e = client.send_raw('{"type":"status","proto":99,"trace_id":"tr-bad"}')
    check.ok(e.get("trace_id") == "tr-bad",
             "trace_id echoed even on error replies")

    # 6. Live stats: answered inline with the metrics snapshot and
    #    per-request-type/per-outcome latency percentiles.  The submits
    #    above must already show up in the request-latency histograms.
    st = client.stats(trace_id="tr-stats")
    check.ok(st["type"] == "stats" and st.get("proto") == PROTO,
             "stats reply is typed and carries proto 1")
    check.ok(st.get("trace_id") == "tr-stats",
             "trace_id echoed on stats reply")
    check.ok(isinstance(st.get("uptime_s"), float) and st["uptime_s"] >= 0,
             "stats reports daemon uptime")
    metrics = st.get("metrics", {})
    check.ok(all(k in metrics for k in ("counters", "gauges", "histograms")),
             "stats embeds the full metrics snapshot")
    hists = metrics.get("histograms", {})
    lat = {k: v for k, v in hists.items()
           if k.startswith("service.latency_ms.")}
    ok_count = sum(v.get("count", 0)
                   for k, v in lat.items() if k.endswith(".ok"))
    hit_count = hists.get("service.latency_ms.submit.cache_hit",
                          {}).get("count", 0)
    check.ok(ok_count >= 1 and hit_count >= 1,
             "request-latency histograms count completed requests")
    pct = st.get("percentiles", {})
    check.ok(all(set(v) >= {"count", "p50", "p90", "p99"}
                 for v in pct.values()) and
             set(pct) == set(hists),
             "stats reports p50/p90/p99 for every histogram")
    check.ok(all(0 <= v["p50"] <= v["p90"] <= v["p99"]
                 for v in pct.values() if v["count"] > 0),
             "percentiles are ordered p50 <= p90 <= p99")

    # 7. parent_span propagation: the second half of the trace context.
    #    A caller-supplied parent_span rides next to the trace_id on every
    #    reply of its request — this is how csfma_explore hangs each
    #    daemon-side req-N span tree under its own chunk spans — while
    #    requests without one get no parent_span key at all (legacy
    #    clients see byte-identical replies).
    fresh = dict(mode="batch", unit="pcs", ops=20000, seed=42)
    r = client.submit(trace_id="tr-ps", parent_span="chunk-7", **fresh)
    check.ok(r.accepted.get("parent_span") == "chunk-7",
             "parent_span echoed on accepted reply")
    check.ok(r.terminal.get("parent_span") == "chunk-7",
             "parent_span echoed on result reply")
    check.ok(all(p.get("parent_span") == "chunk-7" for p in r.progress),
             "parent_span echoed on every progress event")
    s = client.sweep(trace_id="tr-ps", parent_span="chunk-8", **SWEEP)
    check.ok(s.accepted.get("parent_span") == "chunk-8" and
             s.done.get("parent_span") == "chunk-8",
             "parent_span echoed on sweep accepted and sweep_done")
    check.ok(all(p.get("parent_span") == "chunk-8" for p in s.points),
             "parent_span echoed on every sweep_point line")
    st = client.stats(trace_id="tr-ps", parent_span="conn-3")
    check.ok(st.get("parent_span") == "conn-3",
             "parent_span echoed on stats reply")
    e = client.send_raw('{"type":"status","proto":99,"trace_id":"tr-ps",'
                        '"parent_span":"chunk-9"}')
    check.ok(e.get("parent_span") == "chunk-9",
             "parent_span echoed even on version-gated error replies")
    e = client.send_raw('{"type":"status","proto":1,"id":"q",'
                        '"parent_span":7}')
    check.ok(e["type"] == "error" and e["code"] == "bad_request",
             "non-string parent_span gets bad_request")
    check.ok("parent_span" not in client.status(),
             "requests without a parent_span get no parent_span key")


def selftest_stdio(check, serve):
    print("stdio transport:")
    with CsfmaClient.spawn(serve, workers=2, progress_interval=0.05) as client:
        selftest_session(check, client)
        bye = client.shutdown()
        check.ok(bye["type"] == "bye", "shutdown answers bye")
        check.ok(bye.get("proto") == PROTO, "bye carries proto version 1")
    # Worker-count determinism through the service path: independent
    # daemons (cache off, so both actually simulate) must produce
    # byte-identical reports for the same request.
    print("worker determinism:")
    reports = []
    for workers in (1, 4):
        with CsfmaClient.spawn(serve, workers=workers, cache=0) as client:
            r = client.submit(**BATCH)
            check.ok(r.terminal.get("cache") == "miss",
                     f"cache disabled under --workers {workers}")
            reports.append(r.report_bytes)
            client.shutdown()
    check.ok(reports[0] == reports[1],
             "1-worker and 4-worker reports byte-identical")


def selftest_socket(check, serve):
    print("socket transport:")
    tmp = tempfile.mkdtemp(prefix="csfma_serve.")
    path = os.path.join(tmp, "sock")
    proc, _ = _spawn_listening(
        serve, ["--workers", "2", "--progress-interval", "0.05",
                "--socket", path],
        lambda: os.path.exists(path))
    if proc is None:
        check.ok(False, "socket daemon came up")
        os.rmdir(tmp)
        return
    try:
        with CsfmaClient.connect(path) as client:
            selftest_session(check, client)
        # A fresh connection shares the daemon-wide cache: instant hit.
        with CsfmaClient.connect(path) as client:
            r = client.submit(**BATCH)
            check.ok(r.terminal.get("cache") == "hit",
                     "cache shared across connections")
        check.ok(main(["shutdown", "--socket", path]) == 0,
                 "the shutdown verb gets bye over the socket")
        rc = proc.wait(timeout=60)
        check.ok(rc == 0, f"daemon exit status 0 (got {rc})")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if os.path.exists(path):
            os.unlink(path)
        os.rmdir(tmp)


def selftest_tcp(check, serve):
    print("tcp transport:")
    tmp = tempfile.mkdtemp(prefix="csfma_serve.")
    port_file = os.path.join(tmp, "port")
    proc, port = _spawn_listening(
        serve, ["--workers", "2", "--progress-interval", "0.05",
                "--tcp", "127.0.0.1:0", "--port-file", port_file],
        lambda: _read_port_file(port_file))
    if proc is None:
        check.ok(False, "tcp daemon came up")
        os.rmdir(tmp)
        return
    try:
        with CsfmaClient.connect_tcp("127.0.0.1", port) as client:
            selftest_session(check, client)
        # Two concurrent connections: each its own session, one shared
        # cache; a hit on connection B for work done on connection A.
        a = CsfmaClient.connect_tcp("127.0.0.1", port)
        b = CsfmaClient.connect_tcp("127.0.0.1", port)
        try:
            fresh = dict(mode="batch", unit="classic", ops=20000, seed=21)
            ra = a.submit(**fresh)
            rb = b.submit(**fresh)
            check.ok(ra.terminal["cache"] == "miss" and
                     rb.terminal["cache"] == "hit",
                     "cache shared across concurrent TCP connections")
            check.ok(ra.report_bytes == rb.report_bytes,
                     "cross-connection replay byte-identical")
        finally:
            a.close()
        bye = b.shutdown()
        check.ok(bye["type"] == "bye", "tcp shutdown answers bye")
        b.close()
        rc = proc.wait(timeout=60)
        check.ok(rc == 0, f"daemon exit status 0 (got {rc})")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if os.path.exists(port_file):
            os.unlink(port_file)
        os.rmdir(tmp)


def selftest_backpressure(check, serve):
    """A saturated pending queue must answer typed busy errors, not hang."""
    print("backpressure:")
    big = dict(mode="batch", unit="pcs", ops=200_000_000, shard_ops=4096)
    with CsfmaClient.spawn(serve, workers=1, cache=0, max_pending=1,
                           progress_interval=5.0) as client:
        acc1, _ = client.submit_async(dict(big, seed=101))
        check.ok(acc1["type"] == "accepted", "first submission accepted")
        # Wait until job 1 occupies the lone worker (the pending queue only
        # counts queued-not-running jobs, and the pop races the next submit).
        deadline = time.time() + 30
        while time.time() < deadline:
            st = client.status()
            while st["type"] == "progress":
                st, _ = client._recv()
            states = {j["job"]: j["state"] for j in st["jobs"]}
            if states.get(acc1.get("job")) == "running":
                break
            time.sleep(0.05)
        acc2, _ = client.submit_async(dict(big, seed=102))  # queued
        while acc2["type"] == "progress":
            acc2, _ = client._recv()
        acc3, _ = client.submit_async(dict(big, seed=103))  # over the bound
        while acc3["type"] == "progress":
            acc3, _ = client._recv()
        check.ok(acc2["type"] == "accepted",
                 "submission filling the queue accepted")
        check.ok(acc3["type"] == "error" and acc3["code"] == "busy",
                 "submission beyond the bound gets typed busy error")
        for acc in (acc1, acc2):
            if acc["type"] != "accepted":
                continue
            ack = client.cancel(acc["job"])
            while ack["type"] == "progress":
                ack, _ = client._recv()
            terminal, _, _ = client.wait(acc["job"])
            check.ok(terminal["type"] == "cancelled",
                     f"{acc['job']} drains after busy rejection")
        bye = client.shutdown()
        check.ok(bye["type"] == "bye", "daemon healthy after backpressure")


def selftest_persistence(check, serve):
    """Cache survives a daemon restart: byte-identical replay from disk."""
    print("cache persistence:")
    tmp = tempfile.mkdtemp(prefix="csfma_journal.")
    journal = os.path.join(tmp, "cache.journal")
    try:
        with CsfmaClient.spawn(serve, cache_file=journal) as client:
            r1 = client.submit(**BATCH)
            check.ok(r1.terminal["cache"] == "miss",
                     "fresh journal starts cold")
            s1 = client.sweep(**SWEEP)
            check.ok(s1.done["type"] == "sweep_done", "sweep completes")
            client.shutdown()
        check.ok(os.path.exists(journal), "journal written at shutdown")
        with CsfmaClient.spawn(serve, cache_file=journal) as client:
            r2 = client.submit(**BATCH)
            check.ok(r2.terminal["cache"] == "hit",
                     "restarted daemon replays from the journal")
            check.ok(r1.report_bytes == r2.report_bytes,
                     "persisted replay byte-identical")
            s2 = client.sweep(**SWEEP)
            check.ok(s2.done["cache_hits"] == s1.done["points"] and
                     s2.done["cache_misses"] == 0,
                     "restarted sweep is all cache hits")
            check.ok(s1.digest == s2.digest,
                     "sweep digest identical across restart")
            client.shutdown()
        # Truncation tolerance: a torn trailing record must not take the
        # good records (or the daemon) down with it.
        with open(journal, "ab") as f:
            f.write(b"0123456789abcdef 999 0123456789abcdef {\"torn")
        with CsfmaClient.spawn(serve, cache_file=journal) as client:
            r3 = client.submit(**BATCH)
            check.ok(r3.terminal["cache"] == "hit" and
                     r3.report_bytes == r1.report_bytes,
                     "torn journal tail skipped, good records kept")
            client.shutdown()
    finally:
        for name in os.listdir(tmp):
            os.unlink(os.path.join(tmp, name))
        os.rmdir(tmp)


def _log_projection(path):
    """The deterministic projection of a csfma-log-v1 file (docs/FORMATS.md).

    Drops each line's "t" member (wall-clock timestamps and latencies) and
    every slow_request/slow_point line (whether a request or sweep point is
    "slow" is a timing fact); what remains is scheduling-independent for a
    synchronously driven request sequence.
    """
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            entry = json.loads(line)
            if entry.get("kind") in ("slow_request", "slow_point"):
                continue
            entry.pop("t", None)
            out.append(json.dumps(entry, sort_keys=True))
    return "\n".join(out)


def selftest_logging(check, serve):
    """--log-file determinism: for one synchronously driven request
    sequence, the deterministic projection of the structured log must be
    byte-identical whether the daemon runs 1 worker or 4."""
    print("structured log:")
    tmp = tempfile.mkdtemp(prefix="csfma_log.")
    projections = []
    try:
        for workers in (1, 4):
            path = os.path.join(tmp, f"serve-w{workers}.log")
            with CsfmaClient.spawn(serve, workers=workers,
                                   extra_args=["--log-file", path]) as client:
                client.submit(**BATCH)
                client.submit(**BATCH)     # cache hit
                client.sweep(**SWEEP)
                client.status()
                client.stats()
                client.shutdown()
            check.ok(os.path.exists(path),
                     f"--log-file written under --workers {workers}")
            kinds = [json.loads(l)["kind"]
                     for l in open(path, encoding="utf-8")]
            check.ok(kinds.count("request_begin") == 6 and
                     kinds.count("request_end") == 6,
                     f"every request logged begin+end (--workers {workers})")
            check.ok(kinds[0] == "conn_accept" and kinds[-1] == "conn_close",
                     f"log brackets the connection (--workers {workers})")
            projections.append(_log_projection(path))
    finally:
        for name in os.listdir(tmp):
            os.unlink(os.path.join(tmp, name))
        os.rmdir(tmp)
    check.ok(projections[0] == projections[1],
             "deterministic log projection byte-identical across "
             "1 vs 4 workers")


def cmd_selftest(args):
    check = Check()
    transports = {
        "stdio": ("stdio",),
        "socket": ("socket",),
        "tcp": ("tcp",),
        "both": ("stdio", "socket"),
        "all": ("stdio", "socket", "tcp"),
    }[args.transport]
    if "stdio" in transports:
        selftest_stdio(check, args.serve)
    if "socket" in transports:
        selftest_socket(check, args.serve)
    if "tcp" in transports:
        selftest_tcp(check, args.serve)
    selftest_backpressure(check, args.serve)
    selftest_persistence(check, args.serve)
    selftest_logging(check, args.serve)
    if check.failures:
        print(f"\n{len(check.failures)} check(s) FAILED:", file=sys.stderr)
        for f in check.failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nall service checks passed")
    return 0


def _make_client(args, workers=2):
    if getattr(args, "socket", None):
        return CsfmaClient.connect(args.socket)
    if getattr(args, "tcp", None):
        host, _, port = args.tcp.rpartition(":")
        return CsfmaClient.connect_tcp(host or "127.0.0.1", port)
    return CsfmaClient.spawn(args.serve, workers=workers)


def cmd_submit(args):
    params = dict(mode=args.mode, unit=args.unit, seed=args.seed)
    if args.mode == "chained":
        params.update(chains=args.chains, depth=args.depth)
    else:
        params.update(ops=args.ops)
    if args.rounding:
        params["rounding"] = args.rounding
    if args.threads:
        params["threads"] = args.threads
    spawned = not (args.socket or args.tcp)
    with _make_client(args, workers=args.threads or 2) as client:
        r = client.submit(**params)
        print(r.raw_terminal)
        if spawned:
            client.shutdown()
    return 0 if r.terminal["type"] == "result" else 1


def cmd_sweep(args):
    csv = lambda s: [x for x in s.split(",") if x]
    # Sweep axes reuse the submit field names; each takes a scalar or array.
    params = dict(mode=args.mode,
                  unit=csv(args.units),
                  seed=[int(x) for x in csv(args.seeds)])
    if args.roundings:
        params["rounding"] = csv(args.roundings)
    if args.mode == "chained":
        params["chains"] = [int(x) for x in csv(args.chains)]
        params["depth"] = [int(x) for x in csv(args.depths)]
    else:
        params["ops"] = [int(x) for x in csv(args.ops)]
    spawned = not (args.socket or args.tcp)
    with _make_client(args) as client:
        s = client.sweep(**params)
        if s.done["type"] != "sweep_done":
            print(json.dumps(s.done))
            return 1
        if args.transcript:
            # Raw daemon bytes, the input check_report.py --check-sweep
            # validates (including the digest recomputation).
            with open(args.transcript, "w", encoding="utf-8") as f:
                for raw in s.raw_points:
                    f.write(raw + "\n")
                f.write(s.raw_done + "\n")
        for p in s.points:
            print(json.dumps({"index": p["index"], "cache": p["cache"],
                              "cache_key": p["cache_key"],
                              "params": p["params"]}))
        print(json.dumps(s.done))
        if spawned:
            client.shutdown()
    return 0


def cmd_stats(args):
    spawned = not (args.socket or args.tcp)
    with _make_client(args) as client:
        st = client.stats()
        print(json.dumps(st, indent=2 if args.pretty else None,
                         sort_keys=True))
        if spawned:
            client.shutdown()
    return 0 if st["type"] == "stats" else 1


def cmd_shutdown(args):
    with _make_client(args) as client:
        bye = client.shutdown()
    print(json.dumps(bye, sort_keys=True))
    return 0 if bye["type"] == "bye" else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    st = sub.add_parser("selftest", help="end-to-end protocol conformance")
    st.add_argument("--serve", required=True, help="path to csfma_serve")
    st.add_argument("--transport",
                    choices=("stdio", "socket", "tcp", "both", "all"),
                    default="all")
    st.set_defaults(fn=cmd_selftest)

    def common_connect(sp):
        sp.add_argument("--serve", help="path to csfma_serve (spawn mode)")
        sp.add_argument("--socket", help="connect to a --socket daemon")
        sp.add_argument("--tcp", help="connect to a --tcp daemon (HOST:PORT)")

    sm = sub.add_parser("submit", help="run one job and print the result")
    common_connect(sm)
    sm.add_argument("--mode", choices=("batch", "stream", "chained"),
                    default="batch")
    sm.add_argument("--unit", default="pcs")
    sm.add_argument("--rounding", default=None)
    sm.add_argument("--ops", type=int, default=100000)
    sm.add_argument("--chains", type=int, default=1024)
    sm.add_argument("--depth", type=int, default=18)
    sm.add_argument("--seed", type=int, default=1)
    sm.add_argument("--threads", type=int, default=0)
    sm.set_defaults(fn=cmd_submit)

    sw = sub.add_parser("sweep", help="run a server-side parameter sweep")
    common_connect(sw)
    sw.add_argument("--mode", choices=("batch", "stream", "chained"),
                    default="batch")
    sw.add_argument("--units", default="pcs", help="comma-separated")
    sw.add_argument("--roundings", default=None, help="comma-separated")
    sw.add_argument("--seeds", default="1", help="comma-separated")
    sw.add_argument("--ops", default="100000", help="comma-separated")
    sw.add_argument("--chains", default="1024", help="comma-separated")
    sw.add_argument("--depths", default="18", help="comma-separated")
    sw.add_argument("--transcript",
                    help="write the raw sweep_point/sweep_done lines here "
                         "(input for check_report.py --check-sweep)")
    sw.set_defaults(fn=cmd_sweep)

    sg = sub.add_parser("stats", help="fetch the live metrics snapshot")
    common_connect(sg)
    sg.add_argument("--pretty", action="store_true",
                    help="indent the JSON output")
    sg.set_defaults(fn=cmd_stats)

    sd = sub.add_parser("shutdown", help="stop a listening daemon")
    where = sd.add_mutually_exclusive_group(required=True)
    where.add_argument("--socket", help="the daemon's --socket path")
    where.add_argument("--tcp", help="the daemon's --tcp HOST:PORT")
    sd.set_defaults(fn=cmd_shutdown)

    args = p.parse_args(argv)
    if args.cmd in ("submit", "sweep", "stats") and not (
            args.serve or args.socket or args.tcp):
        p.error(f"{args.cmd} needs --serve, --socket or --tcp")
    try:
        return args.fn(args)
    except ProtocolError as e:
        print(f"csfma_client: protocol violation: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
