#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/test_perfbench.py

Each workload runs on a short simulated window. The tests check that the
traced mirror reproduces the untraced run's result digest, that the exact
counts repeat across two runs of one seed, that the self-time shares add
up to 1, that every run's outputs pass the benchmark's checks, and that
every metric and workload name is well formed and matches BENCHMARK.json.
"""

import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WINDOW_S = "20"
EXACT_COUNTS = ("sim.events_per_req", "sim.pool_slots_peak", "alloc.per_req",
                "alloc.setup_count", "obs.trace_events_per_req",
                "obs.spans_per_req")


def bench(workload, trace, seed=7):
    with tempfile.TemporaryDirectory(dir=run.BUILD_ROOT) as out_dir:
        proc = subprocess.run(
            [str(run.BINARY), "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", str(trace), "--window-s",
             WINDOW_S, "--out-dir", out_dir],
            capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        spec_path = run.ROOT / "BENCHMARK.json"
        cls.spec = json.loads(spec_path.read_text())
        cls.traced = {}
        for w in run.WORKLOADS:
            cls.traced[w] = [bench(w, 1), bench(w, 1)]

    def test_names_are_well_formed(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in self.spec[group]]
            for m in self.spec[group]:
                self.assertRegex(m["unit"], UNIT)
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_mirror_digest_equals_untraced(self):
        for w, runs in self.traced.items():
            for lines, result in runs:
                with self.subTest(workload=w):
                    self.assertTrue(result["correct"], lines)
                    self.assertEqual(result["failed"], 0)
                    digest = [l for l in lines if " digest untraced " in l]
                    self.assertEqual(len(digest), 1, lines)
                    fields = digest[0].split()
                    self.assertEqual(fields[-3], fields[-1], digest[0])

    def test_per_layer_metrics_match_spec(self):
        spec = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for w, runs in self.traced.items():
            metrics = runs[0][1]["metrics"]
            got = {k: v["unit"] for k, v in metrics.items()}
            self.assertEqual(got, spec, w)

    def test_exact_counts_repeat(self):
        for w, (first, second) in self.traced.items():
            for name in EXACT_COUNTS:
                with self.subTest(workload=w, metric=name):
                    self.assertEqual(first[1]["metrics"][name]["value"],
                                     second[1]["metrics"][name]["value"])

    def test_self_shares_add_up(self):
        for w, runs in self.traced.items():
            metrics = runs[0][1]["metrics"]
            total = sum(v["value"] for k, v in metrics.items()
                        if k.startswith("self."))
            self.assertAlmostEqual(total, 1.0, places=9, msg=w)

    def test_end_to_end_runs_are_checked_and_complete(self):
        spec = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                proc = subprocess.run(
                    [sys.executable, str(run.BENCH_DIR / "run.py"),
                     "--workload", w, "--seed", "7", "--seconds", "1",
                     "--trace", "0", "--window-s", WINDOW_S],
                    capture_output=True, text=True, check=True,
                    cwd=run.ROOT)
                lines = proc.stdout.splitlines()
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"], lines)
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 3)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, spec)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0.0, name)
                # Every run is scaled by the host probe.
                self.assertTrue(any(l.startswith("dopebench: probe s per run:")
                                    for l in lines), lines)


if __name__ == "__main__":
    unittest.main()
