#!/usr/bin/env python3
"""The repository benchmark: whole `ja` commands and served requests,
plus a traced per-layer replay.  See perfbench/README.md.

Run from the root of a checkout:

    python3 perfbench/run.py --workload thermal_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --aa --runs 5 --workloads thermal_grid,serve_mix

A measuring run prints its deterministic work counters on one line, then,
as its last line, one JSON object with `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`).  `--aa` runs two sets of measuring runs of the
same build and reports whether they agree within BENCHMARK.json's bounds.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import common  # noqa: E402
import offline  # noqa: E402
import serve_mix  # noqa: E402
from common import BenchError  # noqa: E402

WORKLOADS = {
    "thermal_grid": offline.ThermalGrid,
    "mixed_backends": offline.MixedBackends,
    "fit_library": offline.FitLibrary,
    "serve_mix": serve_mix.ServeMix,
}


def measure(args, root, work):
    ja = common.build_ja(root)
    workload = WORKLOADS[args.workload](ja, work, args.seed)
    if args.trace:
        tracer_binary = common.build_trace(root)

        def tracer(spec):
            spec_path = os.path.join(work, "trace-spec.json")
            sidecar_path = os.path.join(root, ".bench_work",
                                        f"trace-{args.workload}-{args.seed}.json")
            common.write_json(spec_path, spec)
            common.run_checked([tracer_binary, spec_path, sidecar_path],
                               os.path.join(work, "stderr.log"))
            with open(sidecar_path, encoding="utf-8") as f:
                sidecar = json.load(f)
            common.log(f"trace sidecar: {os.path.relpath(sidecar_path, root)}")
            return sidecar

        ok, metrics, sidecar = workload.trace(tracer)
        for mismatch in sidecar["mismatches"]:
            common.log(mismatch)
        print(json.dumps({"counters": sidecar["work"]}))
        return {"correct": ok, "attempted": 1, "failed": 0 if ok else 1, "metrics": metrics}
    attempted, failed, metrics, counters = workload.measure(args.seconds)
    print(json.dumps({"counters": counters}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def aa(args, root):
    """Two sets of runs of the same build; per metric each set's quartiles,
    and whether the sets agree within the bounds of BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    agree = True

    def run(workload, seed, trace):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
             str(seed), "--seconds", str(args.seconds), "--trace", str(trace)],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True, text=True)
        return json.loads(out.stdout.strip().split("\n")[-1])

    for workload in workloads:
        sets = []
        for label in ("A", "B"):
            runs = [run(workload, args.seed + i, 0) for i in range(args.runs)]
            if not all(r["correct"] for r in runs):
                agree = False
                print(f"{workload} set {label}: a run reported wrong output")
            sets.append(runs)
        for name, spec in bounds.items():
            quart = [common.quartiles([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            (a1, am, a3), (b1, bm, b3) = quart
            spreads = [(q3 - q1) / q2 for q1, q2, q3 in quart]
            worse = (bm - am) / am if spec["better"] == "lower" else (am - bm) / am
            ok = worse <= spec["bound"] and (name == "setup_s" or max(spreads) <= spec["bound"])
            agree &= ok
            print(f"{workload:15s} {name:14s} A {a1:.5g}/{am:.5g}/{a3:.5g}  "
                  f"B {b1:.5g}/{bm:.5g}/{b3:.5g}  spread {spreads[0]:.3f}/{spreads[1]:.3f}  "
                  f"B-vs-A {worse:+.3f} bound {spec['bound']}  {'ok' if ok else 'DISAGREE'}")
        traced = run(workload, args.seed, 1)["metrics"]
        print(f"{workload:15s} trace.overhead_frac {traced['trace.overhead_frac']['value']:+.3f}"
              f"  trace.coverage {traced['trace.coverage']['value']:.3f}")
    print("A/A: sets agree within bounds" if agree else "A/A: sets DISAGREE")
    return 0 if agree else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true", help="A/A steadiness mode")
    parser.add_argument("--runs", type=int, default=5, help="runs per set with --aa")
    parser.add_argument("--workloads", help="comma-separated workloads for --aa (default: all)")
    args = parser.parse_args()
    root = os.getcwd()
    if args.aa:
        return aa(args, root)
    if not args.workload:
        parser.error("--workload is required")
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = measure(args, root, work)
    except BenchError as err:
        common.log(f"error: {err}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
