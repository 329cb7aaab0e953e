#!/usr/bin/env python3
"""Record a baseline: N untraced runs per workload, each with its own seed,
then the median, quartiles and spread of every end-to-end metric.

    python3 perfbench/baseline.py --runs 10 --out perfbench/results/baseline.json

Every run is a separate `perfbench/run.py` invocation, exactly as the
benchmark is driven from outside. Seeds are DEFAULT_SEED, DEFAULT_SEED+1,
..., so the first run of each workload also checks the pinned digests. A
metric is steady when its spread stays below a third of the bound that
BENCHMARK.json gives it.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"baseline: {workload} seed {seed} failed")
    lines = proc.stdout.strip().splitlines()
    fingerprint = next(json.loads(line.split(" ", 1)[1]) for line in lines
                       if line.startswith("fingerprint "))
    return json.loads(lines[-1]), fingerprint, elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(stats.WORKLOADS))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {"run_seconds": seconds, "runs_per_workload": args.runs,
              "fingerprint": None, "workloads": {}}
    for workload in args.workloads.split(","):
        values, wall = {}, []
        attempted = failed = 0
        correct = True
        for i in range(args.runs):
            seed = stats.DEFAULT_SEED + i
            result, fingerprint, elapsed = one_run(workload, seed, seconds)
            wall.append(elapsed)
            jobs = fingerprint.pop("flow_jobs")
            if record["fingerprint"] is None:
                record["fingerprint"] = dict(fingerprint, flow_jobs={})
            record["fingerprint"]["flow_jobs"].update(jobs)
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed={seed} {elapsed:5.1f}s "
                  + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
                  flush=True)
        metrics = {}
        for name, vs in values.items():
            s = stats.summarize(vs)
            s["bound"] = bounds[name]
            s["steady"] = s["spread"] < bounds[name] / 3.0
            s["values"] = vs
            metrics[name] = s
            print(f"  {name:<16} median={s['median']:.6g} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} spread={s['spread']:.4f} "
                  f"bound/3={bounds[name] / 3:.4f}"
                  f"{'' if s['steady'] else '  NOT STEADY'}", flush=True)
        record["workloads"][workload] = {
            "correct": correct, "attempted": attempted, "failed": failed,
            "invocation_s": stats.summarize(wall), "metrics": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
