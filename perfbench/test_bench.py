#!/usr/bin/env python3
"""Smoke test of the msynth benchmark.

    python3 perfbench/test_bench.py

Runs every workload in smoke mode (a few seconds each), service_mix
included though BENCHMARK.json does not gate it, and checks that

  * every metric named in BENCHMARK.json is emitted, with its unit, and
    nothing else: the end-to-end set with --trace 0, the per-layer set
    with --trace 1;
  * a corrupted result (--inject-fault) is counted: it is in `failed`,
    valid_frac drops and `correct` turns false.

Builds the benchmark first if needed (see run.py).
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = ["paper_suite", "scale_route", "service_mix"]
# service_mix, which BENCHMARK.json does not gate, also reports the p99 of
# its 1000 or more requests; the batch workloads run too few jobs for one.
SERVICE_MIX_ONLY = [{"name": "latency_p99_ms", "unit": "ms"}]


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--smoke", *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{command} exited {done.returncode}:\n"
                             f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkSmokeTest(unittest.TestCase):
    def check_metrics(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in expected})
        for metric in expected:
            emitted = metrics[metric["name"]]
            self.assertEqual(emitted["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(emitted["value"]), metric["name"])

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            end_to_end = SPEC["end_to_end"]
            if workload == "service_mix":
                end_to_end = end_to_end + SERVICE_MIX_ONLY
            for trace, expected in ((0, end_to_end), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    result = run(workload, trace)
                    self.check_metrics(result, expected)
                    self.assertTrue(result["correct"])

    def test_corrupted_result_is_counted_as_failed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                clean = run(workload, 0)
                faulty = run(workload, 0, "--inject-fault")
                # valid_frac covers the fixed set, so the two runs compare
                # exactly; `failed` covers a time window of either length.
                self.assertFalse(faulty["correct"])
                self.assertGreaterEqual(faulty["failed"], 1)
                self.assertLess(faulty["metrics"]["valid_frac"]["value"],
                                clean["metrics"]["valid_frac"]["value"])


if __name__ == "__main__":
    unittest.main()
