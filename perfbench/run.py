#!/usr/bin/env python3
"""hilbcheck benchmark: one command for the ``classify``, ``tangent`` and
``curve16`` workloads.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 10 --trace 0

Run from anywhere; the package is imported from ``src`` next to this
directory.  With ``--trace 0`` it prints the end-to-end metrics, measured
with tracing off: set-up time (median of several fresh workers), verified
requests per second, median latency and peak memory.  With ``--trace 1`` it
prints the per-layer metrics of a traced run and writes its spans under
``perfbench/out``.  Every request is checked against its pinned answer.  The
last line of output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify", "tangent", "curve16")   # as in workloads.py, which needs the package

# Fresh workers timed from interpreter start to the first timed request; the
# last of them also runs the timed loop.
SETUP_SAMPLES = 5
# Every worker of a run must finish within this many seconds of its start.
RUN_BUDGET_S = 170


def run_worker(mode, args, deadline, spans=None):
    """Start one worker, wait for it, and return (start time, its JSON)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} worker exited with code {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, deadline):
    setups, raw_setups, warmed = [], [], True
    for k in range(SETUP_SAMPLES):
        mode = "measure" if k == SETUP_SAMPLES - 1 else "setup"
        started, out = run_worker(mode, args, deadline)
        raw_setups.append(out["ready"] - started - out["paused"])
        setups.append(raw_setups[-1] * out["setup_scale"])
        if out["warmup_error"]:
            warmed = False
            print(f"FAILED warm-up: {out['warmup_error']}")
    raw = out["latencies"]
    latencies = [t * s for t, s in zip(raw, out["scales"])]
    attempted = len(latencies)
    failed = out["failed"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "requests_per_s": ((attempted - failed) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "peak_rss_mb": (out["maxrss_kb"] / 1024, "MB"),
    }
    kinds = sorted(set(out["kinds"]))
    print(f"{args.workload} seed {args.seed}: {attempted} requests in "
          f"{out['elapsed']:.2f} s, {failed} failed, {len(kinds)} request kinds")
    print(f"uncalibrated: setup_s {statistics.median(raw_setups):.4f}, requests_per_s "
          f"{(attempted - failed) / sum(raw):.4f}, latency_p50_ms "
          f"{statistics.median(raw) * 1000:.2f}; mean calibration scale "
          f"{sum(latencies) / sum(raw):.4f}")
    for error in out["errors"]:
        print(f"FAILED {error}")
    return warmed, attempted, failed, metrics, out["environment"]


def traced(args, deadline):
    spans = ROOT / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    _, out = run_worker("trace", args, deadline, spans)
    metrics = {name: tuple(pair) for name, pair in out["metrics"].items()}
    print(f"{args.workload} seed {args.seed}: {out['attempted']} requests traced, "
          f"{out['failed']} failed; untraced {out['untraced_s']:.3f} s, traced "
          f"{out['traced_s']:.3f} s, {out['spans']} spans written to {out['spans_path']}")
    for error in out["errors"]:
        print(f"FAILED {error}")
    return (out["warmup_error"] is None, out["attempted"], out["failed"], metrics,
            out["environment"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hilbcheck" / "__init__.py").is_file():
        sys.exit(f"no hilbcheck sources under {ROOT / 'src'}: nothing to benchmark")
    deadline = time.monotonic() + RUN_BUDGET_S
    ok, attempted, failed, metrics, environment = \
        (traced if args.trace else end_to_end)(args, deadline)
    print("environment: " + ", ".join(f"{k} {v}" for k, v in environment.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": ok and failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


if __name__ == "__main__":
    main()
