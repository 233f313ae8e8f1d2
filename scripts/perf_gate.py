#!/usr/bin/env python3
"""Paired speed gate: a change's benchmark against its parent's.

    python3 scripts/perf_gate.py PARENT_TREE CHANGE_TREE [WORKLOAD ...]

Both trees are csfma source checkouts.  Each tree's benchmark is built by
that tree's own perfbench/run.py into <tree>/.bench_build (its
CARGO_TARGET_DIR), and both builds finish before any timed run.  Then,
for each workload of the parent's BENCHMARK.json (or each one named),
PAIRS pairs run:

  * both csfma_perfbench binaries start together (--trace 0, BENCHMARK.json's
    run_seconds, --root <their tree>, one seed per pair), each in its own
    process group, both pinned to the same single vCPU (the highest one in
    this process's affinity mask);
  * they take turns of TURN_S seconds by SIGSTOP/SIGCONT to the process
    groups, so a slow spell of the host hits both alike; the side that
    runs first alternates from pair to pair;
  * when the pair ends (or the gate is interrupted), both process groups
    are killed.

Verdict, per workload and end-to-end metric: the median over the pairs of
change/parent, oriented by the metric's `better`, must not be worse than
its `bound` (a bound of 0.2 passes a `higher` metric down to 0.8 and a
`lower` one up to 1.2).  The gate also fails on any run with
`correct: false` or a nonzero exit, and when the change has more `failed`
operations than the parent.

stdout is a Markdown table, one row per workload and metric (median ratio
and its quartiles; each side's own median and quartiles of the metric;
the pairs the change won, oriented by `better`, ties counting for
neither; bound; verdict), then the failures; progress goes to stderr.
Exit 0 when the gate passes, 1 when it fails, 2 when a tree cannot be
built.  scripts/perf_gate_selftest.sh checks that a slowed copy fails.
"""
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

PAIRS = 10      # the minimum number of pairs for a speed verdict
TURN_S = 0.25   # how long one side runs before the other gets the vCPU
SEEDS = range(1, PAIRS + 1)  # perfbench/NOTES.md holds seed 9001 out
# Ratios this close to the limit count as at it (float rounding of c/p).
EPS = 1e-9


def load_spec(path):
    """(workload names, run_seconds, end-to-end metrics) of a BENCHMARK.json;
    each metric is a dict with `name`, `better` and `bound`."""
    with open(path) as f:
        spec = json.load(f)
    return ([w["name"] for w in spec["workloads"]], spec["run_seconds"],
            spec["end_to_end"])


def limit(metric):
    """The worst median change/parent ratio the metric's bound allows."""
    if metric["better"] == "higher":
        return 1.0 - metric["bound"]
    return 1.0 + metric["bound"]


def within(metric, ratio):
    if metric["better"] == "higher":
        return ratio >= limit(metric) - EPS
    return ratio <= limit(metric) + EPS


def run_problem(run):
    """Why one run fails the gate on its own, or None.  A run is
    {"exit": code or None (timed out), "result": perfbench's JSON or None}."""
    if run["exit"] is None:
        return "timed out"
    if run["result"] is None:
        return "printed no result (exit %d)" % run["exit"]
    if run["result"].get("correct") is not True:
        return "correct: false (%s failed)" % run["result"].get("failed")
    if run["exit"] != 0:
        return "exit %d" % run["exit"]
    return None


def values(pair, name):
    """(parent value, change value) of one metric in one pair, or None when
    a run has no value for it."""
    try:
        return tuple(run["result"]["metrics"][name]["value"] for run in pair)
    except (KeyError, TypeError):
        return None


def ratio(pair, name):
    """change/parent of one metric in one (parent run, change run) pair,
    or None when a run has no value for it."""
    v = values(pair, name)
    return v[1] / v[0] if v is not None and v[0] > 0 else None


def quartiles(xs):
    """(median, q1, q3) of a non-empty list."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, median, q3 = statistics.quantiles(xs, n=4)
    return statistics.median(xs), q1, q3


def failed_ops(run):
    return (run["result"] or {}).get("failed", 0)


def judge(workload, metrics, pairs):
    """Verdict on one workload.  `pairs` is a list of (parent run, change
    run); returns (rows, failures): one row per metric as a dict with
    `metric`, `better`, `bound`, `limit`, `median`, `q1`, `q3` (of the
    change/parent ratios), `parent` and `change` (each side's own (median,
    q1, q3) of the metric, or None), `wins` (pairs where the change is
    better), `pairs` (pairs with both values) and `ok`, and a list of
    failure messages (metric failures included)."""
    failures = []
    for i, pair in enumerate(pairs):
        for side, run in zip(("parent", "change"), pair):
            why = run_problem(run)
            if why:
                failures.append("%s: %s run of pair %d %s"
                                % (workload, side, i + 1, why))
    parent_failed = sum(failed_ops(p) for p, _ in pairs)
    change_failed = sum(failed_ops(c) for _, c in pairs)
    if change_failed > parent_failed:
        failures.append("%s: the change failed %d operations, the parent %d"
                        % (workload, change_failed, parent_failed))
    rows = []
    for m in metrics:
        ratios = [r for r in (ratio(pair, m["name"]) for pair in pairs)
                  if r is not None]
        sides = [v for v in (values(pair, m["name"]) for pair in pairs)
                 if v is not None]
        sign = 1 if m["better"] == "higher" else -1
        row = {"metric": m["name"], "better": m["better"],
               "bound": m["bound"], "limit": limit(m), "median": None,
               "q1": None, "q3": None, "parent": None, "change": None,
               "wins": sum(sign * (c - p) > 0 for p, c in sides),
               "pairs": len(sides), "ok": False}
        if sides:
            row["parent"] = quartiles([p for p, _ in sides])
            row["change"] = quartiles([c for _, c in sides])
        if ratios:
            row["median"], row["q1"], row["q3"] = quartiles(ratios)
            row["ok"] = within(m, row["median"])
        if not row["ok"]:
            failures.append("%s: %s median change/parent %s, limit %.3f"
                            % (workload, m["name"], fmt(row["median"]),
                               row["limit"]))
        rows.append(row)
    return rows, failures


def fmt(value):
    return "n/a" if value is None else "%.3f" % value


def fmt_value(value):
    return "%.0f" % value if abs(value) >= 1000 else "%.4g" % value


def fmt_side(side):
    """One side's "median (q1..q3)" of a metric."""
    if side is None:
        return "n/a"
    return "%s (%s..%s)" % tuple(fmt_value(v) for v in side)


def table(results):
    """Markdown table of {workload: rows}."""
    out = ["| workload | metric | median change/parent | q1 | q3 "
           "| parent median (q1..q3) | change median (q1..q3) "
           "| change won | bound | verdict |",
           "|---|---|---|---|---|---|---|---|---|---|"]
    for workload, rows in results.items():
        for r in rows:
            out.append("| %s | %s | %s | %s | %s | %s | %s | %d/%d "
                       "| %g (%s %.3f) | %s |" % (
                           workload, r["metric"], fmt(r["median"]),
                           fmt(r["q1"]), fmt(r["q3"]), fmt_side(r["parent"]),
                           fmt_side(r["change"]), r["wins"], r["pairs"],
                           r["bound"],
                           ">=" if r["better"] == "higher" else "<=",
                           r["limit"], "pass" if r["ok"] else "FAIL"))
    return "\n".join(out)


def log(msg):
    print("perf_gate: " + msg, file=sys.stderr, flush=True)


def build(tree, workload):
    """Build the tree's benchmark with its own run.py (a 0.1 s run of
    `workload`); returns the csfma_perfbench binary, or exits 2."""
    build_dir = os.path.join(tree, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0.1",
         "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    binary = os.path.join(build_dir, "csfma_perfbench")
    if proc.returncode == 2 or not os.path.isfile(binary):
        sys.stderr.write(proc.stderr)
        log("could not build the benchmark of %s" % tree)
        sys.exit(2)
    if proc.returncode:
        log("the build run of %s exited %d; the pairs will judge it"
            % (tree, proc.returncode))
    return binary


def signal_group(proc, sig):
    try:
        os.killpg(proc.pid, sig)
    except ProcessLookupError:
        pass


def run_pair(cmds, first, cpu, timeout):
    """Run both commands at once on one vCPU, taking turns; `first` (0 or
    1) runs first.  Returns one run per command, in order; the stderr of a
    run that fails or times out is copied to ours."""
    outs = [tempfile.TemporaryFile(mode="w+") for _ in cmds]
    errs = [tempfile.TemporaryFile(mode="w+") for _ in cmds]
    procs = [None, None]
    try:
        # Start the second side and stop it before the first side starts.
        for side in (1 - first, first):
            procs[side] = subprocess.Popen(
                cmds[side], stdout=outs[side], stderr=errs[side],
                start_new_session=True,
                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
            if side != first:
                signal_group(procs[side], signal.SIGSTOP)
        running = first
        deadline = time.monotonic() + timeout
        while (any(p.poll() is None for p in procs)
               and time.monotonic() < deadline):
            try:
                procs[running].wait(timeout=TURN_S)
            except subprocess.TimeoutExpired:
                pass
            other = 1 - running
            if procs[other].poll() is None:
                signal_group(procs[running], signal.SIGSTOP)
                signal_group(procs[other], signal.SIGCONT)
                running = other
    finally:
        timed_out = [p is not None and p.poll() is None for p in procs]
        for p in procs:
            if p is not None:
                signal_group(p, signal.SIGKILL)
                p.wait()
    runs = []
    for p, out, err, late in zip(procs, outs, errs, timed_out):
        out.seek(0)
        err.seek(0)
        lines = out.read().strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        run = {"exit": None if late else p.returncode, "result": result}
        if run_problem(run):
            sys.stderr.write(err.read()[-4000:])
        out.close()
        err.close()
        runs.append(run)
    return runs


def main(argv):
    if len(argv) < 3 or argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    trees = [os.path.abspath(t) for t in argv[1:3]]
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            log("%s is not a csfma source tree" % tree)
            return 2
    names, seconds, metrics = load_spec(os.path.join(trees[0],
                                                     "BENCHMARK.json"))
    workloads = argv[3:] or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        log("unknown workload(s) %s; BENCHMARK.json has %s"
            % (", ".join(unknown), ", ".join(names)))
        return 2
    # A terminated gate still runs run_pair's cleanup, killing the pair.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cpu = max(os.sched_getaffinity(0))
    start = time.monotonic()
    binaries = [build(tree, workloads[0]) for tree in trees]
    log("built both trees in %.0f s; pairs run on vCPU %d"
        % (time.monotonic() - start, cpu))

    results, failures = {}, []
    for workload in workloads:
        pairs = []
        for i, seed in enumerate(SEEDS):
            cmds = [[binary, "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0",
                     "--root", tree] for binary, tree in zip(binaries, trees)]
            first = i % 2
            pair = run_pair(cmds, first, cpu, timeout=2 * seconds + 150)
            pairs.append(pair)
            log("%s pair %d/%d seed %d, %s first: %s"
                % (workload, i + 1, PAIRS, seed,
                   ("parent", "change")[first],
                   ", ".join("%s %s" % (m["name"], fmt(ratio(pair, m["name"])))
                             for m in metrics)))
        results[workload], problems = judge(workload, metrics, pairs)
        failures += problems

    print(table(results))
    print()
    for f in failures:
        print("- FAIL " + f)
    print("perf gate: %s (%d pairs per workload, %g s runs, %.0f s wall)"
          % ("FAIL" if failures else "pass", PAIRS, seconds,
             time.monotonic() - start))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
