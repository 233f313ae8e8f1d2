#!/usr/bin/env python3
"""Build (on first use) and run the csfma benchmark.

    python3 perfbench/run.py --workload batch|chained|hls_flow|service_mix \\
        --seed N --seconds S --trace 0|1

Run it from the root of a csfma source checkout.  The first call configures
and builds perfbench/ out of tree (CMake; the library sources under src/ are
compiled into the benchmark's own build, no repository CMakeLists.txt is
used or edited) into $CARGO_TARGET_DIR, or .bench_build when that is unset.
Later calls only re-check the build.

The benchmark prints a metric table on stderr and, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set; this script checks the names and units
against BENCHMARK.json before passing the line on.  A traced run also
writes its spans as Chrome trace-event JSON to <build dir>/traces/, and
every run checks its deterministic counts against the first run of the
same workload and seed with the same binary (<build dir>/determinism/).
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch", "chained", "hls_flow", "service_mix")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure (once) and build the benchmark; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        with open(log_path, "a") as log:
            if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
                gen = ["-G", "Ninja"] if shutil.which("ninja") else []
                cmd = ["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"] + gen
                if subprocess.run(cmd, stdout=log, stderr=log).returncode:
                    fail("configure failed; see " + log_path)
            jobs = str(min(4, os.cpu_count() or 1))
            cmd = ["cmake", "--build", build_dir, "-j", jobs]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode:
                fail("build failed; see " + log_path)
    return os.path.join(build_dir, "csfma_perfbench")


def check_contract(result, trace):
    """The printed metrics must be exactly BENCHMARK.json's set."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, units), 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]")
    if not os.path.isfile(os.path.join(ROOT, "src", "engine",
                                       "sim_engine.hpp")):
        fail("no csfma sources under %s/src; run from a source checkout"
             % ROOT)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    # Deterministic counts are recorded per binary: a rebuilt benchmark
    # starts a fresh record, a repeated run of the same one must match it.
    with open(binary, "rb") as f:
        build_id = hashlib.sha1(f.read()).hexdigest()[:16]
    record = os.path.join(build_dir, "determinism", build_id)
    os.makedirs(record, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--root", ROOT, "--record", record]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result (exit %d)" % proc.returncode, 1)
    check_contract(result, args.trace == "1")
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
