#!/usr/bin/env python3
"""Unit tests for scripts/perf_gate.py: the decision rule on synthetic
pair results (bounds, orientation, failed operations, correctness) and the
turn-taking pair runner on stand-in commands.  No benchmark is built or
run.  Registered with CTest (see tests/CMakeLists.txt); stdlib only."""
import importlib.util
import json
import os
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
_spec = importlib.util.spec_from_file_location(
    "perf_gate", os.path.join(REPO, "scripts", "perf_gate.py"))
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

_, _, METRICS = gate.load_spec(os.path.join(REPO, "BENCHMARK.json"))
PARENT = {"setup_s": 0.004, "peak_rss_mb": 20.0, "throughput_per_s": 1000.0}


def run(values, correct=True, failed=0, exit=0):
    return {"exit": exit, "result": {
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}}


def pairs(**ratios):
    """PAIRS pairs whose change/parent ratio is `ratios` (1 by default)."""
    change = {k: v * ratios.get(k, 1.0) for k, v in PARENT.items()}
    return [(run(PARENT), run(change)) for _ in range(gate.PAIRS)]


def verdicts(rows):
    return {r["metric"]: r["ok"] for r in rows}


class DecisionRuleTest(unittest.TestCase):
    def judge(self, pair_list, metrics=METRICS):
        return gate.judge("w", metrics, pair_list)

    def test_bounds_come_from_benchmark_json(self):
        by_name = {m["name"]: m for m in METRICS}
        self.assertEqual(set(by_name), set(PARENT))
        self.assertEqual(by_name["throughput_per_s"]["better"], "higher")
        self.assertEqual(by_name["setup_s"]["better"], "lower")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "BENCHMARK.json")
            with open(path, "w") as f:
                json.dump({"workloads": [{"name": "w"}], "run_seconds": 3,
                           "end_to_end": [{"name": "throughput_per_s",
                                           "better": "higher",
                                           "bound": 0.5}]}, f)
            names, seconds, loose = gate.load_spec(path)
        self.assertEqual((names, seconds), (["w"], 3))
        half = pairs(throughput_per_s=0.5)
        self.assertTrue(verdicts(self.judge(half, loose)[0])
                        ["throughput_per_s"])
        self.assertFalse(verdicts(self.judge(half)[0])["throughput_per_s"])

    def test_pass_exactly_at_the_bound(self):
        at = {m["name"]: gate.limit(m) for m in METRICS}
        rows, failures = self.judge(pairs(**at))
        self.assertEqual(failures, [])
        self.assertTrue(all(verdicts(rows).values()))
        for r in rows:
            self.assertAlmostEqual(r["median"], at[r["metric"]])

    def test_fails_just_beyond_a_higher_bound(self):
        m = next(m for m in METRICS if m["name"] == "throughput_per_s")
        rows, failures = self.judge(
            pairs(throughput_per_s=gate.limit(m) - 0.001))
        self.assertEqual(verdicts(rows), {"setup_s": True,
                                          "peak_rss_mb": True,
                                          "throughput_per_s": False})
        self.assertEqual(len(failures), 1)
        self.assertIn("throughput_per_s", failures[0])

    def test_fails_just_beyond_a_lower_bound(self):
        m = next(m for m in METRICS if m["name"] == "setup_s")
        rows, failures = self.judge(pairs(setup_s=gate.limit(m) + 0.001))
        self.assertEqual(verdicts(rows), {"setup_s": False,
                                          "peak_rss_mb": True,
                                          "throughput_per_s": True})
        self.assertEqual(len(failures), 1)

    def test_the_median_decides_not_one_pair(self):
        p = pairs()
        p[0] = (run(PARENT), run(dict(PARENT, throughput_per_s=100.0)))
        rows, failures = self.judge(p)
        self.assertEqual(failures, [])
        row = next(r for r in rows if r["metric"] == "throughput_per_s")
        self.assertEqual(row["median"], 1.0)
        self.assertLess(row["q1"], 1.0 + 1e-12)

    def test_fails_when_the_change_fails_more_operations(self):
        p = pairs()
        p[3] = (run(PARENT, failed=1, correct=False, exit=1),
                run(PARENT, failed=2, correct=False, exit=1))
        _, failures = self.judge(p)
        self.assertTrue(any("failed 2 operations, the parent 1" in f
                            for f in failures))

    def test_fails_on_correct_false(self):
        p = pairs()
        p[5] = (run(PARENT), run(PARENT, correct=False))
        rows, failures = self.judge(p)
        self.assertTrue(all(verdicts(rows).values()))
        self.assertEqual(failures, ["w: change run of pair 6 correct: false "
                                    "(0 failed)"])

    def test_fails_on_a_nonzero_exit_or_a_missing_result(self):
        p = pairs()
        p[1] = (run(PARENT, exit=3), run(PARENT))
        p[2] = (run(PARENT), {"exit": 1, "result": None})
        p[4] = (run(PARENT), {"exit": None, "result": None})
        _, failures = self.judge(p)
        self.assertEqual(failures, [
            "w: parent run of pair 2 exit 3",
            "w: change run of pair 3 printed no result (exit 1)",
            "w: change run of pair 5 timed out"])

    def test_table_has_one_row_per_metric(self):
        rows, _ = self.judge(pairs(throughput_per_s=0.5))
        lines = gate.table({"batch": rows}).splitlines()
        self.assertEqual(len(lines), 2 + len(METRICS))
        self.assertIn("| batch | throughput_per_s | 0.500 | 0.500 | 0.500 "
                      "| 1000 (1000..1000) | 500 (500..500) | 0/10 "
                      "| 0.2 (>= 0.800) | FAIL |", lines)

    def test_side_medians_and_wins(self):
        # Parent throughput 10..19; the change ties pair 1, loses pair 2
        # and doubles the rest.  setup_s (lower is better) drops in three
        # pairs and ties in the others.
        p = []
        for i in range(gate.PAIRS):
            parent = dict(PARENT, throughput_per_s=10.0 + i)
            change = dict(parent, throughput_per_s=(10.0 if i < 2
                                                    else 2 * (10.0 + i)))
            if i in (3, 5, 7):
                change["setup_s"] = parent["setup_s"] / 2
            p.append((run(parent), run(change)))
        rows, failures = self.judge(p)
        self.assertEqual(failures, [])
        by_name = {r["metric"]: r for r in rows}
        tp = by_name["throughput_per_s"]
        self.assertEqual(tp["parent"], (14.5, 11.75, 17.25))
        self.assertEqual(tp["change"], (29.0, 20.5, 34.5))
        self.assertEqual((tp["wins"], tp["pairs"]), (8, 10))
        self.assertEqual(tp["median"], 2.0)
        self.assertEqual(by_name["setup_s"]["wins"], 3)
        self.assertEqual(by_name["peak_rss_mb"]["wins"], 0)
        self.assertIn("| w | throughput_per_s | 2.000 | 1.750 | 2.000 "
                      "| 14.5 (11.75..17.25) | 29 (20.5..34.5) | 8/10 "
                      "| 0.2 (>= 0.800) | pass |",
                      gate.table({"w": rows}).splitlines())


class PairRunnerTest(unittest.TestCase):
    def command(self, body):
        return [sys.executable, "-c", body]

    def test_both_sides_finish_and_report(self):
        cmds = [self.command("import json; print('noise'); "
                             "print(json.dumps({'side': %d}))" % side)
                for side in (0, 1)]
        cpu = max(os.sched_getaffinity(0))
        for first in (0, 1):
            runs = gate.run_pair(cmds, first, cpu, timeout=60)
            self.assertEqual(runs, [{"exit": 0, "result": {"side": 0}},
                                    {"exit": 0, "result": {"side": 1}}])

    def test_a_pair_past_its_timeout_is_killed(self):
        cmds = [self.command("import time; time.sleep(30)")] * 2
        cpu = max(os.sched_getaffinity(0))
        runs = gate.run_pair(cmds, 0, cpu, timeout=0.5)
        self.assertEqual(runs, [{"exit": None, "result": None}] * 2)
        self.assertTrue(all(gate.run_problem(r) == "timed out"
                            for r in runs))


if __name__ == "__main__":
    unittest.main()
