"""Self-tests of the benchmark harness (not of the package).

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _bindings():
    return {(m.__name__, attr): value for m in tracer.package_modules()
            for attr, value in vars(m).items() if callable(value)}


def test_tracer_restores_every_wrapped_name():
    before = _bindings()
    with tracer.Tracer():
        during = _bindings()
        for name in tracer.TRACED_NAMES:
            module, fn = name.split(".")
            wrapper = during[(f"hilbcheck.{module}", fn)]
            assert wrapper.__wrapped__ is before[(f"hilbcheck.{module}", fn)]
        # imported names are rebound too, not only the defining module's
        assert during[("hilbcheck.smooth", "buchberger")] is \
            during[("hilbcheck.groebner", "buchberger")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    for workload in ("classify", "tangent"):
        first = workloads.make_requests(workload, 7, 1)
        again = workloads.make_requests(workload, 7, 1)
        other = workloads.make_requests(workload, 8, 1)
        assert first == again
        assert [r.text for r in first] != [r.text for r in other]


def test_every_classify_stratum_appears_in_a_run():
    requests = workloads.make_requests("classify", 5, 2)
    out = worker.timed_loop(requests, 0, workloads.cycle_length("classify"),
                            worker.Calibrator())
    assert set(out["kinds"]) == set(workloads.CLASSIFY_STRATA)
    assert out["failed"] == 0, out["errors"]


def test_check_rejects_a_wrong_answer():
    req = workloads.make_requests("tangent", 3, 1)[0]
    assert workloads.check(req, req.expect) is None
    assert workloads.check(req, req.expect + 1)


def test_traced_call_counts_repeat_across_runs(tmp_path):
    calls = []
    for k in range(2):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", "classify",
             "--seed", "4", "--mode", "trace", "--spans", str(tmp_path / f"{k}.jsonl")],
            capture_output=True, text=True, timeout=170, check=True)
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["failed"] == 0, out["errors"]
        calls.append({name: value for name, (value, _) in out["metrics"].items()
                      if name.endswith(".calls")})
        spans = (tmp_path / f"{k}.jsonl").read_text().splitlines()
        assert len(spans) == out["spans"] == sum(calls[-1].values())
    assert calls[0] == calls[1]
    assert calls[0]["smooth.classify_smoothable.calls"] == out["attempted"]


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "classify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
