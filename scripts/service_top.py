#!/usr/bin/env python3
"""Live ASCII dashboard for running csfma_serve daemons.

Polls the `stats` request (docs/service.md#observability) over a Unix
socket or TCP and renders the metrics snapshot as a terminal dashboard:
uptime, request counters by type, queue depth, cache hit rate, and the
per-request-type/per-outcome latency distribution with p50/p90/p99.

  service_top.py --socket /tmp/csfma.sock            refresh every 2s
  service_top.py --tcp 127.0.0.1:7421 --interval 5
  service_top.py --socket PATH --once                one snapshot, no UI
                                                     (the CI smoke mode)

Repeat --socket/--tcp to watch a whole explorer fleet: with more than
one address the dashboard switches to a fleet panel, one row per daemon
(up, queue depth with sparkline, cache hit rate, sweep points, p99
latency — the same health signals csfma_explore polls into its frontier
report), so a degraded member stands out at a glance.  A daemon that
stops answering shows as "down" without taking the panel out.

  service_top.py --tcp 127.0.0.1:7421 --tcp 127.0.0.1:7422

Latency percentiles are the ones the daemon computes into the `stats`
reply's `percentiles` section.  python3 stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from csfma_client import CsfmaClient, ProtocolError  # noqa: E402


def _fmt_ms(v):
    return f"{v:8.2f}" if v < 1000 else f"{v:8.0f}"


SPARK_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(samples, width=24):
    """The last `width` samples as unicode block characters, scaled to the
    window's max (a flat zero line renders as spaces)."""
    window = list(samples)[-width:]
    if not window:
        return ""
    peak = max(window)
    if peak <= 0:
        return " " * len(window)
    out = []
    for v in window:
        idx = int(round(v / peak * (len(SPARK_BLOCKS) - 1)))
        out.append(SPARK_BLOCKS[max(0, min(idx, len(SPARK_BLOCKS) - 1))])
    return "".join(out)


def read_frontier_snapshot(path):
    """Best-effort parse of a csfma_explore snapshot file; None if absent
    or mid-write garbage (snapshots are atomic-renamed, so a parse error
    just means we raced the very first write)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def render(st, depth_history=None, points_per_s=None, frontier=None):
    """One dashboard frame (a list of lines) from a parsed stats reply."""
    m = st.get("metrics", {})
    counters = {k: v["value"] for k, v in m.get("counters", {}).items()}
    gauges = {k: v["value"] for k, v in m.get("gauges", {}).items()}

    lines = []
    up = st.get("uptime_s", 0.0)
    depth_line = (f"csfma_serve  up {up:10.1f}s   "
                  f"queue depth {gauges.get('service.queue.depth', 0):.0f}")
    if depth_history:
        depth_line += f"  [{sparkline(depth_history)}]"
    lines.append(depth_line)

    reqs = {k.rsplit(".", 1)[1]: int(v) for k, v in counters.items()
            if k.startswith("service.requests.")}
    total = int(counters.get("service.requests", 0))
    lines.append("requests: total %d   %s" % (
        total, "  ".join(f"{k}={v}" for k, v in sorted(reqs.items()))))

    hits = counters.get("service.cache.hits", 0)
    misses = counters.get("service.cache.misses", 0)
    rate = 100.0 * hits / (hits + misses) if hits + misses else 0.0
    lines.append(f"cache: {hits:.0f} hit / {misses:.0f} miss "
                 f"({rate:.1f}% hit rate)   conns: "
                 f"accepted={counters.get('service.conn.accepted', 0):.0f} "
                 f"idle_closed={counters.get('service.conn.idle_closed', 0):.0f} "
                 f"dead_peer={counters.get('service.conn.dead_peer', 0):.0f}")

    # Sweep / exploration panel: live fan-out telemetry (the counters exist
    # once the daemon has served any request; a daemon that never swept
    # shows zeros, which is itself informative during an exploration run).
    sw_active = gauges.get("service.sweep.active")
    sw_points = counters.get("service.sweep.points")
    if sw_active is not None or sw_points is not None:
        rate = f"{points_per_s:.1f}/s" if points_per_s is not None else "-"
        sweep_line = (f"sweeps: active={sw_active or 0:.0f} "
                      f"points={sw_points or 0:.0f} "
                      f"cached={counters.get('service.sweep.points_cached', 0):.0f} "
                      f"rate={rate}")
        if frontier is not None:
            sweep_line += (f"   frontier: {len(frontier.get('frontier', []))} "
                           f"of {frontier.get('points_done', 0)} pts")
        lines.append(sweep_line)

    lines.append("")
    lines.append(f"{'latency (ms)':28s} {'count':>7s} {'p50':>8s} "
                 f"{'p90':>8s} {'p99':>8s}")
    rows = [(k, p) for k, p in sorted(st.get("percentiles", {}).items())
            if k.startswith("service.latency_ms.") or
            k == "service.queue_wait_ms"]
    for name, p in rows:
        label = name.replace("service.latency_ms.", "").replace(
            "service.queue_wait_ms", "queue_wait")
        lines.append(f"{label:28s} {p.get('count', 0):7d} "
                     f"{_fmt_ms(p.get('p50', 0.0))} "
                     f"{_fmt_ms(p.get('p90', 0.0))} "
                     f"{_fmt_ms(p.get('p99', 0.0))}")
    if not rows:
        lines.append("  (no requests finished yet)")
    return lines


def _connect_addr(kind, addr):
    if kind == "socket":
        return CsfmaClient.connect(addr)
    host, _, port = addr.rpartition(":")
    return CsfmaClient.connect_tcp(host or "127.0.0.1", port)


def _daemon_health(st):
    """The fleet-panel signals out of one parsed stats reply — the same
    ones csfma_explore folds into its frontier report's health section."""
    m = st.get("metrics", {})
    counters = {k: v["value"] for k, v in m.get("counters", {}).items()}
    gauges = {k: v["value"] for k, v in m.get("gauges", {}).items()}
    hits = counters.get("service.cache.hits", 0)
    misses = counters.get("service.cache.misses", 0)
    p99 = max((p.get("p99", 0.0)
               for name, p in st.get("percentiles", {}).items()
               if name.startswith("service.latency_ms.") and p.get("count", 0)),
              default=0.0)
    return {
        "up_s": st.get("uptime_s", 0.0),
        "depth": gauges.get("service.queue.depth", 0.0),
        "hit_rate": 100.0 * hits / (hits + misses) if hits + misses else 0.0,
        "reqs": int(counters.get("service.requests", 0)),
        "points": int(counters.get("service.sweep.points", 0)),
        "p99_ms": p99,
    }


def render_fleet(addrs, states, depth_histories):
    """The multi-daemon panel: one row per fleet member, None = down."""
    lines = [f"csfma fleet: {len(addrs)} daemon(s)", ""]
    lines.append(f"{'daemon':24s} {'up':>8s} {'depth':>6s} {'hit%':>6s} "
                 f"{'reqs':>7s} {'points':>8s} {'p99 ms':>8s}  depth history")
    for i, (kind, addr) in enumerate(addrs):
        label = f"[{i}] {addr}"
        st = states[i]
        if st is None:
            lines.append(f"{label:24s} {'down':>8s}")
            continue
        h = _daemon_health(st)
        lines.append(f"{label:24s} {h['up_s']:7.1f}s {h['depth']:6.0f} "
                     f"{h['hit_rate']:6.1f} {h['reqs']:7d} {h['points']:8d} "
                     f"{_fmt_ms(h['p99_ms'])}  "
                     f"[{sparkline(depth_histories[i])}]")
    return lines


def run_fleet(args, addrs):
    """Poll every daemon each tick; a dead member degrades to a 'down' row
    (its connection is retried on the next tick) instead of ending the
    dashboard."""
    clients = [None] * len(addrs)
    depth_histories = [[] for _ in addrs]
    try:
        while True:
            states = []
            for i, (kind, addr) in enumerate(addrs):
                st = None
                try:
                    if clients[i] is None:
                        clients[i] = _connect_addr(kind, addr)
                    st = clients[i].stats()
                    if st.get("type") != "stats":
                        st = None
                except (OSError, ProtocolError):
                    if clients[i] is not None:
                        try:
                            clients[i].close()
                        except (OSError, ProtocolError):
                            pass
                    clients[i] = None
                    st = None
                states.append(st)
                if st is not None:
                    m = st.get("metrics", {}).get("gauges", {})
                    depth_histories[i].append(
                        m.get("service.queue.depth", {}).get("value", 0.0))
                    del depth_histories[i][:-24]
            frame = "\n".join(render_fleet(addrs, states, depth_histories))
            if args.once:
                print(frame)
                return 0 if all(s is not None for s in states) else 1
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        for c in clients:
            if c is not None:
                try:
                    c.close()
                except (OSError, ProtocolError):
                    pass


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--socket", action="append", default=[],
                   help="daemon Unix socket path (repeat for a fleet)")
    p.add_argument("--tcp", action="append", default=[],
                   help="daemon TCP address HOST:PORT (repeat for a fleet)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="refresh period in seconds (default 2)")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit (CI smoke mode)")
    p.add_argument("--frontier-snapshot", metavar="PATH",
                   help="csfma_explore snapshot file to fold into the sweep "
                        "panel (frontier size / points covered)")
    args = p.parse_args(argv)
    addrs = [("socket", s) for s in args.socket] + \
            [("tcp", t) for t in args.tcp]
    if not addrs:
        p.error("at least one --socket or --tcp is required")
    if len(addrs) > 1:
        return run_fleet(args, addrs)

    depth_history = []
    prev_points = None
    prev_t = None
    try:
        with _connect_addr(*addrs[0]) as client:
            while True:
                st = client.stats()
                if st.get("type") != "stats":
                    print(f"service_top: unexpected reply: {json.dumps(st)}",
                          file=sys.stderr)
                    return 1
                m = st.get("metrics", {})
                gauges = m.get("gauges", {})
                depth_history.append(
                    gauges.get("service.queue.depth", {}).get("value", 0.0))
                del depth_history[:-64]
                now = time.monotonic()
                points = m.get("counters", {}).get(
                    "service.sweep.points", {}).get("value")
                rate = None
                if (points is not None and prev_points is not None
                        and now > prev_t):
                    rate = max(points - prev_points, 0) / (now - prev_t)
                prev_points, prev_t = points, now
                frontier = (read_frontier_snapshot(args.frontier_snapshot)
                            if args.frontier_snapshot else None)
                frame = "\n".join(
                    render(st, depth_history, rate, frontier))
                if args.once:
                    print(frame)
                    return 0
                # Clear + home, then the frame: a flicker-free poor man's top.
                sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
                sys.stdout.flush()
                time.sleep(args.interval)
    except ProtocolError as e:
        print(f"service_top: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
