#!/usr/bin/env python3
"""Tests for scripts/check_report.py --check-trace: it passes a minimal
Chrome trace-event file and fails one with no events, one with an event
phase other than "X" or "i", and one that lacks a span --spans requires.
Registered with CTest (see tests/CMakeLists.txt); stdlib only."""
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SCRIPT = os.path.join(REPO, "scripts", "check_report.py")

VALID = {"displayTimeUnit": "ms", "traceEvents": [
    {"name": "shard", "ph": "X", "ts": 0, "dur": 5, "pid": 1, "tid": 0},
    {"name": "merge", "ph": "i", "ts": 6, "pid": 1, "tid": 1}]}


def check_trace(trace, spans=()):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.trace.json")
        with open(path, "w") as f:
            json.dump(trace, f)
        args = [sys.executable, SCRIPT, "--check-trace", path]
        if spans:
            args += ["--spans", *spans]
        return subprocess.run(args, capture_output=True, text=True)


class CheckTraceTest(unittest.TestCase):
    def test_minimal_trace_passes(self):
        r = check_trace(VALID)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertEqual(r.stdout, "trace OK (2 events)\n")

    def test_trace_without_events_fails(self):
        r = check_trace({"displayTimeUnit": "ms", "traceEvents": []})
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("trace has no events", r.stderr)

    def test_bad_phase_fails(self):
        bad = json.loads(json.dumps(VALID))
        bad["traceEvents"][1]["ph"] = "B"
        r = check_trace(bad)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("traceEvents[1]", r.stderr)

    def test_required_spans_pass_when_present(self):
        r = check_trace(VALID, ["shard", "merge"])
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertEqual(r.stdout, "trace OK (2 events)\n")

    def test_missing_required_span_fails_and_is_named(self):
        r = check_trace(VALID, ["shard", "render", "merge"])
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("missing span(s) render;", r.stderr)


if __name__ == "__main__":
    unittest.main()
