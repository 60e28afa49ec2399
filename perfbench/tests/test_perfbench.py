"""Self-tests of the benchmark definition (run by `python3 perfbench/run.py --selftest`).

Checks that BENCHMARK.json declares exactly the metrics spinbench emits, with
the same units, and that it stays within the limits its format allows.
"""

import json
import os
import re
import subprocess
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class CatalogMatchesBenchmark(unittest.TestCase):
    def setUp(self):
        binary = os.environ.get("PERFBENCH_SPINBENCH")
        if not binary:
            self.skipTest("PERFBENCH_SPINBENCH is not set")
        self.catalog = json.loads(subprocess.check_output([binary, "--list-metrics"]))
        self.benchmark = load_benchmark()

    def test_end_to_end_names_and_units(self):
        emitted = [(m["name"], m["unit"], m["better"]) for m in self.catalog["end_to_end"]]
        declared = [(m["name"], m["unit"], m["better"]) for m in self.benchmark["end_to_end"]]
        self.assertEqual(emitted, declared)

    def test_per_layer_names_and_units(self):
        emitted = [(m["name"], m["unit"], m["better"]) for m in self.catalog["per_layer"]]
        declared = [(m["name"], m["unit"], m["better"]) for m in self.benchmark["per_layer"]]
        self.assertEqual(emitted, declared)


class BenchmarkFormat(unittest.TestCase):
    def setUp(self):
        self.benchmark = load_benchmark()

    def test_keys(self):
        self.assertEqual(set(self.benchmark), {"command", "paths", "run_seconds", "workloads",
                                               "end_to_end", "per_layer"})

    def test_names_units_and_bounds(self):
        names = []
        for metric in self.benchmark["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
            names.append(metric["name"])
        for metric in self.benchmark["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
            names.append(metric["name"])
        for workload in self.benchmark["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
            names.append(workload["name"])
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in self.benchmark["end_to_end"] + self.benchmark["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))

    def test_setup_metric_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.benchmark["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_paths_hold_the_command(self):
        self.assertEqual(self.benchmark["paths"], ["perfbench"])
        self.assertTrue((ROOT / self.benchmark["command"][1]).is_file())


if __name__ == "__main__":
    unittest.main()
