#!/usr/bin/env python3
"""Tests of run.py's result check: the metric names main.exe prints must
be exactly the ones BENCHMARK.json lists for the mode, and the units
attached to them come from BENCHMARK.json.

    python3 perfbench/test/test_run.py
"""

import importlib.util
import json
import os
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = importlib.util.spec_from_file_location("run", os.path.join(HERE, "..", "run.py"))
run = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(run)

BENCH = run.load_spec()


def line(metrics, correct=True, attempted=3, failed=0):
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def values(section, v=1.5):
    return {m["name"]: v for m in BENCH[section]}


class WithUnits(unittest.TestCase):
    def test_units_come_from_benchmark_json(self):
        for section, trace in (("end_to_end", False), ("per_layer", True)):
            result, error = run.with_units(line(values(section)), BENCH, trace)
            self.assertIsNone(error)
            self.assertEqual([(n, m["unit"]) for n, m in result["metrics"].items()],
                             [(m["name"], m["unit"]) for m in BENCH[section]])
            self.assertTrue(all(m["value"] == 1.5 for m in result["metrics"].values()))
            self.assertEqual(set(result), run.RESULT_KEYS)

    def test_missing_name_is_refused(self):
        vs = values("end_to_end")
        del vs["setup_s"]
        result, error = run.with_units(line(vs), BENCH, False)
        self.assertIsNone(result)
        self.assertIn("setup_s", error)

    def test_unknown_name_is_refused(self):
        vs = values("end_to_end")
        vs["bogus_s"] = 1.0
        _, error = run.with_units(line(vs), BENCH, False)
        self.assertIn("bogus_s", error)

    def test_other_mode_names_are_refused(self):
        _, error = run.with_units(line(values("per_layer")), BENCH, False)
        self.assertIsNotNone(error)

    def test_bad_values_and_counts_are_refused(self):
        for bad in (float("nan"), True, "1.0"):
            vs = values("end_to_end")
            vs["setup_s"] = bad
            _, error = run.with_units(line(vs), BENCH, False)
            self.assertIsNotNone(error, bad)
        _, error = run.with_units(line(values("end_to_end"), attempted=0), BENCH, False)
        self.assertIsNotNone(error)
        _, error = run.with_units("# not json", BENCH, False)
        self.assertIsNotNone(error)


if __name__ == "__main__":
    unittest.main()
