#!/usr/bin/env python3
"""Smoke tests for check_bench_regression.py.

Exercises the CI gate's four interesting behaviors: clean pass, advisory
warning inside the (warn, fail] band, hard failure past --fail-pct, and
a committed series missing from the fresh run (a failure).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_bench_regression.py")


def bench_doc(rates):
    """rates: dict metric -> (events_per_sec, optional enterprises)."""
    series = []
    for metric, spec in rates.items():
        entry = {"metric": metric, "events_per_sec": spec[0]}
        if len(spec) > 1:
            entry["enterprises"] = spec[1]
        series.append(entry)
    return {"series": series}


class CheckBenchRegressionTest(unittest.TestCase):
    def run_tool(self, baseline, fresh, extra=()):
        with tempfile.TemporaryDirectory() as d:
            bpath = os.path.join(d, "baseline.json")
            fpath = os.path.join(d, "fresh.json")
            with open(bpath, "w") as f:
                json.dump(baseline, f)
            with open(fpath, "w") as f:
                json.dump(fresh, f)
            proc = subprocess.run(
                [sys.executable, TOOL, bpath, fpath, *extra],
                capture_output=True, text=True)
            return proc.returncode, proc.stdout

    def test_pass_when_rates_hold(self):
        base = bench_doc({"sim_events": (100000.0,)})
        fresh = bench_doc({"sim_events": (99000.0,)})
        code, out = self.run_tool(base, fresh)
        self.assertEqual(code, 0, out)
        self.assertIn("ok   sim_events", out)

    def test_speedup_never_fails(self):
        base = bench_doc({"sim_events": (100000.0,)})
        fresh = bench_doc({"sim_events": (250000.0,)})
        code, out = self.run_tool(base, fresh)
        self.assertEqual(code, 0, out)

    def test_advisory_band_warns_but_passes(self):
        # 15% drop: between the 10% warn and 25% fail thresholds.
        base = bench_doc({"sim_events": (100000.0,)})
        fresh = bench_doc({"sim_events": (85000.0,)})
        code, out = self.run_tool(base, fresh)
        self.assertEqual(code, 0, out)
        self.assertIn("WARN sim_events", out)

    def test_large_drop_fails(self):
        # 40% drop: past the default 25% fail threshold.
        base = bench_doc({"sim_events": (100000.0,)})
        fresh = bench_doc({"sim_events": (60000.0,)})
        code, out = self.run_tool(base, fresh)
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL sim_events", out)

    def test_custom_fail_pct(self):
        # The same 15% drop fails once --fail-pct is tightened below it.
        base = bench_doc({"sim_events": (100000.0,)})
        fresh = bench_doc({"sim_events": (85000.0,)})
        code, out = self.run_tool(base, fresh, extra=("--fail-pct", "12"))
        self.assertEqual(code, 1, out)

    def test_missing_series_fails(self):
        # A lever dropped or renamed must not silently leave the gate.
        base = bench_doc({"sim_events": (100000.0,),
                          "paxos_slots": (50000.0,)})
        fresh = bench_doc({"sim_events": (100000.0,)})
        code, out = self.run_tool(base, fresh)
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL paxos_slots: missing", out)

    def test_series_only_in_fresh_run_passes(self):
        base = bench_doc({"sim_events": (100000.0,)})
        fresh = bench_doc({"sim_events": (100000.0,),
                           "paxos_slots": (50000.0,)})
        code, out = self.run_tool(base, fresh)
        self.assertEqual(code, 0, out)

    def test_series_key_includes_topology(self):
        # Same metric at different enterprise counts are distinct series:
        # a regression at one scale must not hide behind the other.
        base = bench_doc({"e2e": (100000.0, 2)})
        fresh = {"series": [{"metric": "e2e", "enterprises": 2,
                             "events_per_sec": 60000.0},
                            {"metric": "e2e", "enterprises": 4,
                             "events_per_sec": 100000.0}]}
        code, out = self.run_tool(base, fresh)
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL e2e_2", out)


if __name__ == "__main__":
    unittest.main()
