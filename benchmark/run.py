#!/usr/bin/env python3
"""Builds qbench and runs the benchmark described by BENCHMARK.json.

One workload (the form BENCHMARK.json's command runs in):

    python3 benchmark/run.py --workload pbft_intra --seed 1 --seconds 10 --trace 0

prints `workload metric value unit` for every metric of the mode, then, as
the last line, one JSON object {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones (it also runs one traced rep and writes its spans to
--trace-file, default .bench_build/trace_<workload>.json).

Every workload, one after another, each in its own child process:

    python3 benchmark/run.py [--seed=1[,2,...]] [--out=results.json] [--trace-file=trace.json]

runs both modes per workload and seed, prints every metric, and writes the
results JSON that benchmark/compare.py reads.

    python3 benchmark/run.py --selftest

runs `qbench --selftest`. A correctness failure exits non-zero and prints
the qbench command that reproduces it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "benchmark")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds qbench; returns its path or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "qbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        return None
    return os.path.join(out, "qbench")


def run_qbench(qbench, workload, seed, seconds, trace, trace_file=None):
    """Runs one workload in a child process; returns (exit code, result)."""
    cmd = [qbench, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}"]
    if trace_file:
        cmd.append(f"--trace-out={trace_file}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def metric_specs(bench, trace):
    return bench["per_layer"] if trace else bench["end_to_end"]


def check_metrics(bench, trace, result):
    """The run must report exactly the mode's metrics, in their units."""
    want = {m["name"]: m["unit"] for m in metric_specs(bench, trace)}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return f"metric set mismatch: missing {missing} extra {extra} unit {wrong}"
    return ""


def one_workload(args, bench, qbench):
    trace_file = None
    if args.trace:
        trace_file = args.trace_file or os.path.join(
            build_dir(), f"trace_{args.workload}.json")
    code, result = run_qbench(qbench, args.workload, args.seed, args.seconds,
                              args.trace, trace_file)
    if result is None:
        log(f"qbench produced no result (exit {code})")
        return 1
    problem = check_metrics(bench, args.trace, result)
    if problem:
        log(problem)
        return 1
    for spec in metric_specs(bench, args.trace):
        m = result["metrics"][spec["name"]]
        print(f"{args.workload} {spec['name']} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {s["name"]: result["metrics"][s["name"]]
                    for s in metric_specs(bench, args.trace)},
    }))
    if code != 0 or not result["correct"]:
        log(f"repro: qbench --workload={args.workload} --seed={args.seed}")
        return code or 1
    return 0


def merge_traces(paths, out):
    events = []
    for pid, (workload, path) in enumerate(paths, start=1):
        with open(path) as f:
            doc = json.load(f)
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": workload}})
        for e in doc["traceEvents"]:
            e["pid"] = pid
            events.append(e)
    with open(out, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)


def all_workloads(args, bench, qbench):
    seeds = [int(s) for s in str(args.seed).split(",")]
    seconds = args.seconds or bench["run_seconds"]
    results = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    traces = []
    status = 0
    for w in [x["name"] for x in bench["workloads"]]:
        runs = results["workloads"].setdefault(w, {"runs": []})["runs"]
        for i, seed in enumerate(seeds):
            run = {"seed": seed, "metrics": {}}
            for trace in (0, 1):
                trace_file = None
                if trace and args.trace_file and i == 0:
                    trace_file = os.path.join(build_dir(), f"trace_{w}.json")
                code, result = run_qbench(qbench, w, seed, seconds, trace,
                                          trace_file)
                problem = ("no result" if result is None else
                           check_metrics(bench, trace, result))
                if code != 0 or problem or not result["correct"]:
                    log(f"{w} seed {seed}: "
                        f"{problem or result.get('error') or f'exit {code}'}")
                    log(f"repro: qbench --workload={w} --seed={seed}")
                    status = 1
                    if result is None:
                        continue
                if trace_file:
                    traces.append((w, trace_file))
                for spec in metric_specs(bench, trace):
                    m = result["metrics"].get(spec["name"])
                    if m is None:
                        continue
                    run["metrics"][spec["name"]] = m["value"]
                    print(f"{w} {spec['name']} {m['value']:.6g} {m['unit']}",
                          flush=True)
                if trace == 0:
                    run.update(correct=result["correct"],
                               attempted=result["attempted"],
                               failed=result["failed"], reps=result["reps"])
            runs.append(run)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
        log(f"wrote {args.out}")
    if traces:
        merge_traces(traces, args.trace_file)
        log(f"wrote {args.trace_file}")
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", default="1")
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-file")
    p.add_argument("--out")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        log("no source tree beside benchmark/ to build")
        return 1
    with open(bench_path) as f:
        bench = json.load(f)
    qbench = build()
    if qbench is None:
        log("build failed")
        return 1
    if args.selftest:
        return subprocess.run([qbench, "--selftest"], cwd=ROOT).returncode
    if args.workload:
        if args.workload not in [w["name"] for w in bench["workloads"]]:
            log(f"unknown workload {args.workload}")
            return 2
        if not args.seed.isdigit():
            log("--seed takes one whole number with --workload")
            return 2
        args.seconds = args.seconds or bench["run_seconds"]
        return one_workload(args, bench, qbench)
    return all_workloads(args, bench, qbench)


if __name__ == "__main__":
    sys.exit(main())
