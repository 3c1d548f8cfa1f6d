"""One benchmark worker: a fresh interpreter that imports the package from the
checkout's ``src``, generates a workload's requests from its seed, serves one
untimed warm-up request and then, by mode:

- ``setup``: stops; the parent times interpreter start to this point;
- ``measure``: serves requests in a closed loop (one client, the next request
  sent when the previous one returns), in whole rounds until ``--seconds``
  have passed;
- ``trace``: serves a fixed request list in untraced and traced passes, and
  reports per-layer metrics and the tracing overhead.

It prints one JSON object on its last line of output.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hilbcheck  # noqa: E402

if not Path(hilbcheck.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"imported hilbcheck from {hilbcheck.__file__}, not from {ROOT / 'src'}")

from hilbcheck.scalars import RAT_BACKEND  # noqa: E402
from tracer import Tracer, metric_units  # noqa: E402
from workloads import (STREAM_CYCLES, TRACE_CYCLES, WORKLOADS, check,  # noqa: E402
                       cycle_length, make_requests, serve, warmup_request)


def serve_checked(req):
    """(result, error): error is None when the result is the pinned answer."""
    try:
        result = serve(req)
    except Exception as exc:  # a failed request is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"
    return result, check(req, result)


# The machine's speed drifts by tens of percent within minutes, so every
# timing is calibrated: wall time x REFERENCE_NOMINAL_S / the mean time of a
# fixed stdlib-only computation (``reference``) sampled in the same process
# throughout the same interval.  REFERENCE_NOMINAL_S is a constant.
REFERENCE_NOMINAL_S = 0.010
REFERENCE_EVERY_S = 0.25
REFERENCE_WINDOW_S = 1.0


def reference():
    """Fixed exact-arithmetic work that no change to the package can alter:
    Gaussian elimination of the 14 x 14 matrix 1/(i+j+1) + identity."""
    n = 14
    rows = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


class Calibrator:
    """Times ``reference`` from a wall-clock timer signal every
    REFERENCE_EVERY_S, so that it samples the machine's speed inside long
    requests too.  ``paused`` is the time spent in it, which callers subtract
    from what they time."""

    def __init__(self):
        self.times = []          # perf_counter() at the end of each sample
        self.samples = []        # seconds each sample took
        self.paused = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.samples.append(t1 - t0)
        self.paused += t1 - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start, end):
        """REFERENCE_NOMINAL_S over the mean of the samples taken from
        ``start - REFERENCE_WINDOW_S`` to ``end + REFERENCE_WINDOW_S``, topped
        up to five with samples taken now.  The mean, not the median: a
        request's time sums every slowdown it meets, bursts included."""
        lo, hi = start - REFERENCE_WINDOW_S, end + REFERENCE_WINDOW_S
        near = [s for t, s in zip(self.times, self.samples) if lo <= t <= hi]
        while len(near) < 5:
            self._tick(None, None)
            near.append(self.samples[-1])
        return REFERENCE_NOMINAL_S / statistics.fmean(near)


def timed_loop(requests, seconds, round_length, calibrator):
    """Closed loop over the stream, replayed from the start if exhausted, in
    whole rounds of ``round_length`` requests until ``seconds`` have passed,
    so that every run serves the same mix.  Latencies exclude the time
    ``calibrator`` spent inside them; each comes with its own calibration
    scale, from the reference samples around it."""
    latencies, spans, kinds, errors = [], [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i == 0 or i % round_length or time.perf_counter() < deadline:
        req = requests[i % len(requests)]
        paused = calibrator.paused
        t0 = time.perf_counter()
        _, error = serve_checked(req)
        t1 = time.perf_counter()
        latencies.append(t1 - t0 - (calibrator.paused - paused))
        spans.append((t0, t1))
        if error:
            errors.append(f"{req.kind}: {error}")
        kinds.append(req.kind)
        i += 1
    end = time.perf_counter()
    return {"elapsed": end - start, "latencies": latencies,
            "scales": [calibrator.scale(t0, t1) for t0, t1 in spans],
            "kinds": kinds, "failed": len(errors), "errors": errors[:5]}


def answer(result):
    """What a request's verdict is compared on between traced and untraced
    passes."""
    if result is None or isinstance(result, int):
        return result
    if hasattr(result, "outcome"):
        return (result.outcome, tuple(result.evidence))
    if hasattr(result, "valuation"):
        return (result.valuation, tuple(result.sampled_gcd or ()),
                result.rank_at_one, result.syzygy_dimension)
    return repr(result)


LONG_PASS_S = 30


def trace_run(workload, seed, spans_path):
    tracer = Tracer()
    tracer.request = "setup"
    with tracer:
        requests = make_requests(workload, seed, TRACE_CYCLES[workload])
        warm = warmup_request(workload)
    _, warm_error = serve_checked(warm)

    def one_pass(pass_tracer):
        outs = []
        start = time.perf_counter()
        with pass_tracer or contextlib.nullcontext():
            for i, req in enumerate(requests):
                tracer.request = i
                outs.append(serve_checked(req))
        return time.perf_counter() - start, outs

    # Passes run untraced, traced, traced, untraced so that a drift in machine
    # speed cancels from the overhead; the second pair is skipped when a pass
    # is so long that four would not fit a run.  Only the first traced pass
    # is recorded.
    untraced_s, plain = one_pass(None)
    traced_s, traced = one_pass(tracer)
    if untraced_s < LONG_PASS_S:
        traced_s = (traced_s + one_pass(Tracer())[0]) / 2
        untraced_s = (untraced_s + one_pass(None)[0]) / 2
    errors = []
    for req, (r0, e0), (r1, e1) in zip(requests, plain, traced):
        if e0 or e1:
            errors.append(f"{req.kind}: {e0 or e1}")
        elif answer(r0) != answer(r1):
            errors.append(f"{req.kind}: traced answer differs from untraced")
    metrics = tracer.summary()
    metrics["trace.overhead_s"] = traced_s - untraced_s
    units = metric_units()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)
    return {"warmup_error": warm_error, "attempted": len(requests),
            "failed": len(errors), "errors": errors[:5],
            "metrics": {name: [value, units[name]] for name, value in metrics.items()},
            "untraced_s": untraced_s, "traced_s": traced_s,
            "spans": len(tracer.spans), "spans_path": str(spans_path)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "trace":
        out = trace_run(args.workload, args.seed, args.spans)
    else:
        with Calibrator() as calibrator:
            started = time.perf_counter()
            requests = make_requests(args.workload, args.seed, STREAM_CYCLES[args.workload])
            _, warm_error = serve_checked(warmup_request(args.workload))
            out = {"ready": time.monotonic(), "paused": calibrator.paused,
                   "warmup_error": warm_error,
                   "setup_scale": calibrator.scale(started, time.perf_counter())}
            if args.mode == "measure":
                out.update(timed_loop(requests, args.seconds,
                                      cycle_length(args.workload), calibrator))
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["environment"] = {"python": platform.python_version(),
                          "nproc": len(os.sched_getaffinity(0)), "rat_backend": RAT_BACKEND}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
