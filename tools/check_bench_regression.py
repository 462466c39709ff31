#!/usr/bin/env python3
"""Compare a fresh bench JSON against the committed baseline.

Usage: check_bench_regression.py BASELINE.json FRESH.json
       [--fail-pct 25] [--warn-pct 10]

Matches series entries by metric (plus enterprises/shards for e2e
points) and compares their throughput field (events_per_sec or
slots_per_sec). A drop beyond --fail-pct fails the job; a drop between
--warn-pct and --fail-pct prints an advisory warning only. A committed
series missing from the fresh run fails too, so a lever that is dropped
or renamed cannot fall out of the gate unnoticed. Speedups and series
only the fresh run has never fail — baselines are refreshed by
committing a new JSON, not by loosening this check.

CI runs the fresh side in --quick mode (1 repetition, reduced event
counts): rates stay comparable to the full-mode baselines, the extra
noise is why the fail threshold is generous.
"""

import argparse
import json
import sys


RATE_FIELDS = ("events_per_sec", "slots_per_sec")


def series_key(entry):
    key = entry.get("metric", "?")
    for extra in ("enterprises", "shards"):
        if extra in entry:
            key += f"_{entry[extra]}"
    return key


def rate_of(entry):
    for f in RATE_FIELDS:
        if f in entry:
            return float(entry[f])
    return None


def load(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for entry in doc.get("series", []):
        rate = rate_of(entry)
        if rate is not None:
            out[series_key(entry)] = rate
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--fail-pct", type=float, default=25.0)
    ap.add_argument("--warn-pct", type=float, default=10.0)
    args = ap.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)

    failures = []
    for key, base_rate in sorted(base.items()):
        if key not in fresh:
            print(f"FAIL {key}: missing from fresh run")
            failures.append(key)
            continue
        fresh_rate = fresh[key]
        drop_pct = (1.0 - fresh_rate / base_rate) * 100.0
        line = (f"{key}: baseline {base_rate:,.0f}/s fresh "
                f"{fresh_rate:,.0f}/s ({-drop_pct:+.1f}%)")
        if drop_pct > args.fail_pct:
            print(f"FAIL {line}")
            failures.append(key)
        elif drop_pct > args.warn_pct:
            print(f"WARN {line}")
        else:
            print(f"ok   {line}")

    if failures:
        print(f"\n{len(failures)} metric(s) regressed more than "
              f"{args.fail_pct:.0f}% vs the committed baseline "
              f"({args.baseline}) or are missing from the fresh run.")
        print("If the slowdown is intended, regenerate and commit the "
              "baseline JSON with the full-mode bench.")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
