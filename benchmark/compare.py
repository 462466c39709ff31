#!/usr/bin/env python3
"""Compares two benchmark results files against the BENCHMARK.json bounds.

    python3 benchmark/compare.py base.json change.json [--bench BENCHMARK.json]

Both files come from `benchmark/run.py --out=...`; each holds one or more
runs per workload. For every end-to-end metric and workload the verdict is:

  unresolved  the run-to-run spread (quartile distance over median, the
              larger of the two sides) exceeds the bound, unless every
              change run beats every base run, which is `better`;
  worse       otherwise, the change's median is worse than the base
              median by more than the metric's bound;
  better      otherwise, it is better by more than the bound;
  same        otherwise.

A metric missing on either side is reported as `missing`. One row per
workload is printed. Exits 1 on any `worse` or `missing`, else 0.
"""

import argparse
import json
import os
import statistics
import sys

DEFAULT_BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


def spread(values):
    """Quartile distance as a share of the median (0 with < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, change, better, bound):
    """Classifies one (metric, workload) pair; see the module docstring."""
    sign = 1 if better == "higher" else -1
    mb, mc = statistics.median(base), statistics.median(change)
    gain = sign * (mc - mb) / abs(mb) if mb else sign * (mc - mb)
    if max(spread(base), spread(change)) > bound:
        dominates = min(sign * c for c in change) > max(sign * b for b in base)
        return ("better" if dominates else "unresolved"), gain
    if gain < -bound:
        return "worse", gain
    if gain > bound:
        return "better", gain
    return "same", gain


def values(results, workload, metric):
    runs = results.get("workloads", {}).get(workload, {}).get("runs", [])
    return [r["metrics"][metric] for r in runs if metric in r.get("metrics", {})]


def compare(bench, base, change):
    """Returns ({workload: {metric: (verdict, gain)}}, failed)."""
    table, failed = {}, False
    for w in [x["name"] for x in bench["workloads"]]:
        row = table.setdefault(w, {})
        for m in bench["end_to_end"]:
            b, c = values(base, w, m["name"]), values(change, w, m["name"])
            if not b or not c:
                row[m["name"]] = ("missing", 0.0)
                failed = True
                continue
            v = verdict(b, c, m["better"], m["bound"])
            row[m["name"]] = v
            failed |= v[0] == "worse"
    return table, failed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--bench", default=DEFAULT_BENCH)
    args = p.parse_args(argv)
    with open(args.bench) as f:
        bench = json.load(f)
    with open(args.base) as f:
        base = json.load(f)
    with open(args.change) as f:
        change = json.load(f)

    table, failed = compare(bench, base, change)
    names = [m["name"] for m in bench["end_to_end"]]
    width = max(len(n) for n in names) + 2
    print("workload".ljust(14) + "".join(n.ljust(width) for n in names))
    for w, row in table.items():
        print(w.ljust(14) + "".join(row[n][0].ljust(width) for n in names))
    for w, row in table.items():
        for n in names:
            v, gain = row[n]
            if v not in ("same", "missing"):
                print(f"  {w} {n}: {v} ({gain:+.1%} in the better direction)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
