"""Tests of the benchmark of record.

    python3 perfbench/test_perfbench.py            # helpers + contract checks
    PFBENCH_SMOKE=1 python3 perfbench/test_perfbench.py   # + a smoke run of
                                                          # every workload (builds)
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(list(range(199)), 95)
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(list(range(19)), 50)

    def test_nearest_rank(self):
        values = list(range(1, 201))  # 1..200
        self.assertEqual(stats.percentile(values, 95), 190)
        self.assertEqual(stats.samples_beyond(200, 95), 10)
        self.assertEqual(stats.percentile(list(reversed(values)), 50), 100)
        self.assertEqual(stats.percentile(list(range(1, 21)), 50), 10)

    def test_rejects_bad_percentile(self):
        with self.assertRaises(ValueError):
            stats.percentile(list(range(1000)), 100)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, med, q3 = stats.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertAlmostEqual(stats.iqr_share(values), (q3 - q1) / med)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.iqr_share([2.0] * 10), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [
            {"name": "query", "start_ns": 0, "end_ns": 100, "parent": -1, "query": 0},
            {"name": "opt.optimize", "start_ns": 10, "end_ns": 40, "parent": 0, "query": 0},
            {"name": "engine.execute", "start_ns": 40, "end_ns": 90, "parent": 0, "query": 0},
            {"name": "query", "start_ns": 200, "end_ns": 250, "parent": -1, "query": 1},
            {"name": "opt.optimize", "start_ns": 200, "end_ns": 245, "parent": 3, "query": 1},
        ]
        self.assertEqual(stats.self_times(spans),
                         {"query": 25, "opt.optimize": 75, "engine.execute": 50})


class ReportTest(unittest.TestCase):
    def test_result_line_round_trip(self):
        metrics = {"setup_s": (0.81, "s"), "query_p95_ms": (12.5, "ms")}
        line = stats.result_line(True, 1000, 0, metrics)
        self.assertEqual(stats.parse_result_line(line), (True, 1000, 0, metrics))
        self.assertEqual(list(json.loads(line)),
                         ["correct", "attempted", "failed", "metrics"])

    def test_parse_refuses_extra_keys(self):
        with self.assertRaises(ValueError):
            stats.parse_result_line('{"correct": true, "attempted": 1, "failed": 0,'
                                    ' "metrics": {}, "extra": 1}')


class ContractTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_metric_lists_match_the_runner(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in self.bench["per_layer"]],
                         list(run.PER_LAYER))
        names = {w["name"] for w in self.bench["workloads"]}
        self.assertLessEqual(names, set(run.WORKLOADS))

    def test_bounds(self):
        for m in self.bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25, m["name"])
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.bench["end_to_end"]))

    def test_serve_rate_is_not_defaulted(self):
        # The offered rate lives in BENCHMARK.json only.
        self.assertIn("--serve-rate", self.bench["command"])
        with self.assertRaises(SystemExit) as cm:
            run.main(["--workload", "serve_read"])
        self.assertNotEqual(cm.exception.code, 0)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                self.bench["command"] + ["--workload", "cold_small", "--seed", "1",
                                         "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
                env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


@unittest.skipUnless(os.environ.get("PFBENCH_SMOKE") == "1",
                     "set PFBENCH_SMOKE=1 to build and smoke-run every workload")
class SmokeTest(unittest.TestCase):
    def smoke(self, workload, trace, seconds=1):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            command = json.load(f)["command"]
        proc = subprocess.run(
            command + ["--workload", workload, "--seed", "7", "--seconds", str(seconds),
                       "--trace", str(trace), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        correct, attempted, failed, metrics = stats.parse_result_line(
            proc.stdout.strip().splitlines()[-1])
        self.assertTrue(correct)
        self.assertGreater(attempted, 0)
        self.assertEqual(failed, 0)
        return metrics

    def test_every_workload_checks_its_outputs(self):
        for workload in sorted(run.WORKLOADS):
            with self.subTest(workload=workload):
                metrics = self.smoke(workload, 0)
                self.assertIn("setup_s", metrics)

    def test_traced_run_emits_every_layer(self):
        # A serve run needs 200 ops (7 s at 32 ops/s) for loadgen.late_p95_ms.
        for workload, seconds in (("cold_small", 1), ("serve_read", 7),
                                  ("serve_churn", 7)):
            with self.subTest(workload=workload):
                metrics = self.smoke(workload, 1, seconds)
                self.assertEqual(set(metrics), {name for name, _ in run.PER_LAYER})


if __name__ == "__main__":
    unittest.main()
