#!/usr/bin/env python3
"""Run the sapred benchmark.

    python3 perfbench/run.py --workload paper|sim_wide|all \
        [--seed N] [--seconds S] [--trace 0|1]

Builds the harness in perfbench/ (release, offline) into $CARGO_TARGET_DIR
(default: .bench_build at the repository root), runs the chosen workload in
its own process, checks the result, and prints every metric with its unit.
The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With --trace 1 the metrics are the per-layer ones
of a traced run, and the per-layer report is also written to
<target>/perfbench-reports/<workload>-trace.json.

Exits 1 when a correctness check fails and 2 when the harness cannot be
built or run.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["paper", "sim_wide"]
# One harness run must end well within the 180 s a run may take.
HARNESS_TIMEOUT_S = 170
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def die(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    # Cargo's output goes to stderr so the result stays the last stdout line.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        die(f"building the harness failed ({' '.join(cmd)})")
    return target_dir() / "release" / "perfbench"


def declared():
    """Metric name -> unit, per mode, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }, spec["run_seconds"]


def run_workload(binary, workload, seed, seconds, trace, metrics_of):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {HARNESS_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        die(f"{workload} printed no result (exit {done.returncode})")
    allowed = metrics_of[trace]
    undeclared = [f"{n} [{m['unit']}]" for n, m in result["metrics"].items()
                  if not NAME.match(n) or allowed.get(n) != m["unit"]]
    # Every workload measures every end-to-end metric.
    missing = [] if trace else [n for n in allowed if n not in result["metrics"]]
    checks = [
        (not undeclared, f"metrics not declared in BENCHMARK.json: {undeclared}"),
        (not missing, f"end-to-end metrics not reported: {missing}"),
        (done.returncode == 0, f"harness exited {done.returncode}"),
    ]
    if trace:
        # A layer the workload never calls did no work: it reads 0.
        for name, unit in allowed.items():
            result["metrics"].setdefault(name, {"value": 0.0, "unit": unit})
    failed = [msg for ok, msg in checks if not ok]
    for msg in failed:
        print(f"check failed: {msg}", file=sys.stderr)
    result["attempted"] += len(checks)
    result["failed"] += len(failed)
    result["correct"] = result["correct"] and not failed
    return result


def print_table(workload, trace, result):
    kind = "per-layer (traced)" if trace else "end-to-end"
    status = "correct" if result["correct"] else "INCORRECT"
    print(f"# {workload}: {kind} metrics; {status}, "
          f"{result['failed']} of {result['attempted']} checks failed")
    width = max((len(n) for n in result["metrics"]), default=0)
    for name, m in result["metrics"].items():
        print(f"  {name:<{width}}  {m['value']:>16.6g}  {m['unit']}")


def write_report(workload, result):
    out = target_dir() / "perfbench-reports" / f"{workload}-trace.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"  per-layer report written to {out}")


def main():
    metrics_of, run_seconds = declared()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=run_seconds)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be non-negative and --seconds positive")
    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        results[w] = run_workload(binary, w, args.seed, args.seconds, args.trace, metrics_of)
        print_table(w, args.trace, results[w])
        if args.trace:
            write_report(w, results[w])
    last = results[workloads[0]] if len(workloads) == 1 else results
    print(json.dumps(last))
    sys.exit(0 if all(r["correct"] for r in results.values()) else 1)


if __name__ == "__main__":
    main()
