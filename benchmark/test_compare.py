#!/usr/bin/env python3
"""Tests for benchmark/compare.py: run `python3 benchmark/test_compare.py`."""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BENCH = {
    "workloads": [{"name": "w1", "why": "x"}, {"name": "w2", "why": "y"}],
    "end_to_end": [
        {"name": "tps", "unit": "tx/s", "better": "higher", "bound": 0.05},
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.10},
    ],
}


def results(per_workload):
    """{workload: {metric: [values per run]}} -> run.py results layout."""
    out = {"workloads": {}}
    for w, metrics in per_workload.items():
        n = max(len(v) for v in metrics.values())
        runs = [{"metrics": {m: v[i] for m, v in metrics.items() if i < len(v)}}
                for i in range(n)]
        out["workloads"][w] = {"runs": runs}
    return out


BASE = results({
    "w1": {"tps": [1000, 1002, 998, 1001, 999], "lat": [10, 10.1, 9.9, 10, 10]},
    "w2": {"tps": [500, 500, 500], "lat": [5, 5, 5]},
})


class VerdictTest(unittest.TestCase):
    def test_within_bound_is_same(self):
        self.assertEqual(compare.verdict([10, 10.2, 9.9], [10.5, 10.4, 10.6],
                                         "lower", 0.10)[0], "same")

    def test_worse_beyond_bound(self):
        v, gain = compare.verdict([100, 101, 99], [80, 81, 79], "higher", 0.05)
        self.assertEqual(v, "worse")
        self.assertAlmostEqual(gain, -0.2)

    def test_better_beyond_bound(self):
        self.assertEqual(compare.verdict([10, 10, 10], [8, 8, 8], "lower",
                                         0.10)[0], "better")

    def test_wide_spread_is_unresolved(self):
        # Quartile distance ~50% of the median, bound 10%.
        noisy = [6, 10, 14, 8, 12]
        self.assertEqual(compare.verdict([10, 10, 10], noisy, "lower",
                                         0.10)[0], "unresolved")

    def test_wide_spread_but_every_run_better(self):
        base = [20, 30, 40, 25, 35]
        change = [10, 12, 14, 11, 13]
        self.assertEqual(compare.verdict(base, change, "lower", 0.10)[0],
                         "better")


class CompareTest(unittest.TestCase):
    def run_main(self, base, change):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, doc in (("bench", BENCH), ("base", base),
                              ("change", change)):
                paths.append(os.path.join(d, name + ".json"))
                with open(paths[-1], "w") as f:
                    json.dump(doc, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = compare.main([paths[1], paths[2], "--bench", paths[0]])
            return code, out.getvalue()

    def test_identical_runs_pass(self):
        code, out = self.run_main(BASE, BASE)
        self.assertEqual(code, 0)
        self.assertIn("w1", out)
        self.assertNotIn("worse", out)

    def test_worse_fails(self):
        change = json.loads(json.dumps(BASE))
        for run in change["workloads"]["w2"]["runs"]:
            run["metrics"]["lat"] = 6.0  # +20% latency, bound 10%
        code, out = self.run_main(BASE, change)
        self.assertEqual(code, 1)
        self.assertIn("w2 lat: worse", out)

    def test_unresolved_does_not_fail(self):
        change = results({
            "w1": {"tps": [700, 1000, 1300, 850, 1150],
                   "lat": [10, 10.1, 9.9, 10, 10]},
            "w2": {"tps": [500, 500, 500], "lat": [5, 5, 5]},
        })
        code, out = self.run_main(BASE, change)
        self.assertEqual(code, 0)
        self.assertIn("w1 tps: unresolved", out)

    def test_missing_metric_fails(self):
        change = json.loads(json.dumps(BASE))
        for run in change["workloads"]["w1"]["runs"]:
            del run["metrics"]["lat"]
        code, out = self.run_main(BASE, change)
        self.assertEqual(code, 1)
        self.assertIn("missing", out)


if __name__ == "__main__":
    unittest.main()
