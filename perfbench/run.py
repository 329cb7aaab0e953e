#!/usr/bin/env python3
"""Repo benchmark: build the harness, run one workload, print its metrics.

    python3 perfbench/run.py --workload paper_2k --seed 20070710 \
        --seconds 15 --trace 0

Builds perfbench/ (the harness plus the library under src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload in its own process, checks its outputs, and prints every metric
with its unit. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(and writes the run's spans next to the build). See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

# The whole invocation must end within 180 s; the harness stops after
# --seconds plus at most one episode.
HARNESS_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_logged(cmd):
    """Run a build step with its output on stderr (stdout is for results)."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: command failed: {' '.join(cmd)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: library sources not found at src/")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(HERE), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(out), "--target", "ddp_perfbench",
                "-j", jobs])
    return out / "ddp_perfbench"


def harness(binary, args, spans_path):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)), "--trace", str(args.trace)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=HARNESS_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: harness exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "none"


def fingerprint(info, raw):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "flow_jobs": {raw["workload"]: raw["flow_jobs"]},
        "commit": commit(),
    }


def print_self_times(spans_path):
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    print(f"span self time over {len(spans)} spans:")
    totals = stats.self_times(spans)
    for name, ns in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<24} {ns / 1e6:12.3f} ms")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=stats.WORKLOADS)
    parser.add_argument("--seed", type=int, default=stats.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    golden = json.loads((HERE / "golden.json").read_text())
    spans_path = None
    if args.trace:
        spans_path = build_dir() / f"spans_{args.workload}_{args.seed}.jsonl"
    info, raw = harness(binary, args, spans_path)

    if raw["kind"] == "sim":
        attempted, failed = stats.check_episodes(raw, golden)
        for digest in sorted({e["digest"] for e in raw["episodes"] if e["ok"]}):
            print(f"digest {args.workload} seed={args.seed} {digest}")
        for e in raw["episodes"]:
            if not e["ok"]:
                print(f"episode failed: {e['error']}")
    else:
        attempted, failed = stats.sock_failures(raw)
    print("fingerprint " + json.dumps(fingerprint(info, raw), sort_keys=True))

    if args.trace:
        values, units = stats.per_layer(raw), stats.PER_LAYER_UNITS
        print_self_times(spans_path)
    else:
        values, units = stats.end_to_end(raw), stats.END_TO_END_UNITS
    for name, value in values.items():
        print(f"  {name:<36} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))


if __name__ == "__main__":
    main()
