import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from hilbcheck.cli import COLENGTH_CAP, main
from hilbcheck.errors import PreconditionError
from hilbcheck.groebner import Ideal
from hilbcheck.poly import parse_ideal_file
from hilbcheck.reportschema import (ANALYZE_REPORT_SCHEMA, SchemaError,
                                    VERIFY_REPORT_SCHEMA, validate)
from hilbcheck.smooth import salmon_turnbull_pfaffian

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "hilbcheck" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_colength_and_hf(capsys):
    code, out, _ = run(capsys, "colength", str(DATA / "seven_quadrics_d4.ideal"))
    assert code == 0 and out.strip() == "8"
    code, out, _ = run(capsys, "hf", str(DATA / "squares_d3.ideal"))
    assert code == 0 and out.strip() == "(1,3,3,1)"
    code, out, _ = run(capsys, "hf", str(DATA / "squares_cube_d3.ideal"))
    assert code == 0 and out.strip() == "(1,3,3)"


def test_tangent_command(capsys):
    code, out, _ = run(capsys, "tangent", str(DATA / "seven_quadrics_d4.ideal"))
    assert code == 0 and out.strip() == "25"
    code, out, _ = run(capsys, "tangent", "--graded",
                       str(DATA / "seven_quadrics_d4.ideal"))
    assert code == 0 and "25" in out and "[-1]=4" in out and "[0]=21" in out
    code, out, _ = run(capsys, "tangent", str(DATA / "weight753_colength8.ideal"))
    assert out.strip() == "24"


def test_initial_command(capsys, tmp_path):
    src = tmp_path / "in.ideal"
    src.write_text("field Q\nvars x y z\n ideal:\n".replace(" ideal", "ideal")
                   + "y^2+z^2\nx+x^2+z^2\nz^3\ny*z^2\nx*z^2\nx*y*z\n")
    code, out, _ = run(capsys, "initial", "-w", "1,1,1", str(src))
    assert code == 0
    assert "x^2 + z^2" in out and "x +" not in out


@pytest.mark.parametrize("weights", [["-w", "-1,1,1,1"], ["-w=-1,1,1,1"]], ids=["-w W", "-w=W"])
def test_initial_command_takes_a_negative_weight_in_either_form(capsys, weights):
    code, out, _ = run(capsys, "initial", *weights, str(DATA / "salmon.ideal"))
    assert code == 0
    assert out.splitlines()[3:] == ["x3*x4", "x2*x4", "x3^2 - 3*x4^2", "x2*x3", "x1*x3",
                                    "x2^2", "x1*x2", "x4^3", "x1*x4^2", "x1^2*x4", "x1^3"]


def test_pfaffian_and_smoothable_commands(capsys):
    code, out, _ = run(capsys, "pfaffian", str(DATA / "seven_quadrics_d4.ideal"))
    assert code == 0 and "does not vanish" in out
    code, out, _ = run(capsys, "pfaffian", str(DATA / "salmon.ideal"))
    assert code == 0 and out.startswith("pfaffian 0")
    code, out, _ = run(capsys, "smoothable", str(DATA / "seven_quadrics_d4.ideal"))
    assert code == 0 and out.splitlines()[0] == "NotSmoothable"
    code, out, _ = run(capsys, "smoothable", str(DATA / "monomial_143.ideal"))
    assert code == 0 and out.splitlines()[0] == "Smoothable"


@pytest.mark.parametrize("name, text, message", [
    ("seven_quadrics_d5.ideal", None, "the Pfaffian criterion lives in 4 variables"),
    ("squares_cube_d3.ideal", None, "the Pfaffian criterion lives in 4 variables"),
    ("squares_cube_d4.ideal", "field Q\nvars x y z w\nideal:\nx^2\ny^2\nz^2\nx*y*z\nw\n",
     "wrong Hilbert function (1,3,3), need (1,4,3)"),
    ("off_origin.ideal", "field Q\nvars x1 x2 x3 x4\nideal:\nx1 - 1\nx2\nx3\nx4\n",
     "ideal is not primary at the origin"),
], ids=["five-variables", "three-variables", "wrong-hf", "not-primary"])
def test_pfaffian_refusals_keep_their_messages(capsys, tmp_path, name, text, message):
    path = DATA / name
    if text is not None:
        path = tmp_path / name
        path.write_text(text)
    ctx, polys = parse_ideal_file(path.read_text())
    with pytest.raises(PreconditionError) as exc:
        salmon_turnbull_pfaffian(Ideal(ctx, polys))
    assert str(exc.value) == message
    code, out, err = run(capsys, "pfaffian", str(path))
    assert code == 2 and not out
    assert err == f"error: {message}\n"


def test_points_ideal_command(capsys):
    code, out, _ = run(capsys, "points-ideal", str(DATA / "points8.pts"), "-d", "4")
    assert code == 0
    assert out.startswith("field Q")
    code2, out2, _ = run(capsys, "points-ideal", str(DATA / "points8.pts"),
                         "--ctx", str(DATA / "seven_quadrics_d4.ideal"))
    assert code2 == 0 and out2 == out


@pytest.mark.parametrize("tag, reason", [("4", "not prime"),
                                         ("3", "characteristic 2 and 3"),
                                         ("abc", "invalid literal")])
def test_points_ideal_bad_field_is_a_parse_error(capsys, tag, reason):
    code, out, err = run(capsys, "points-ideal", str(DATA / "points8.pts"),
                         "-d", "4", "--field", tag)
    assert code == 2 and not out
    assert err.startswith(f"parse error: bad --field {tag!r}") and reason in err


@pytest.mark.parametrize("d", ["0", "-1"])
def test_points_ideal_needs_a_positive_dimension(capsys, d):
    code, out, err = run(capsys, "points-ideal", str(DATA / "points8.pts"), "-d", d)
    assert code == 2 and not out
    assert err == f"parse error: -d must be at least 1, got {d}\n"


def test_census_command(capsys):
    code, out, _ = run(capsys, "census", "-d", "2", "-n", "4")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines == ["(1,1,1,1)", "(1,2,1)"]
    assert any("note" in l for l in out.splitlines())


def test_json_round_trips_schema(capsys):
    code, out, _ = run(capsys, "tangent", "--json",
                       str(DATA / "seven_quadrics_d4.ideal"))
    obj = json.loads(out)
    validate(obj, ANALYZE_REPORT_SCHEMA)
    assert obj["result"]["total"] == 25
    code, out, _ = run(capsys, "smoothable", "--json",
                       str(DATA / "monomial_143.ideal"))
    obj = json.loads(out)
    validate(obj, ANALYZE_REPORT_SCHEMA)
    assert obj["result"]["outcome"] == "Smoothable"


def test_verify_paper_single_case(capsys):
    code, out, _ = run(capsys, "verify-paper", "--case", "tangent-21")
    assert code == 0
    assert "PASS" in out and "tangent-21" in out
    assert "seed: 271828" in out


def test_verify_paper_json_schema(capsys):
    code, out, _ = run(capsys, "verify-paper", "--case", "dimension-formulas",
                       "--json")
    assert code == 0
    obj = json.loads(out)
    validate(obj, VERIFY_REPORT_SCHEMA)
    assert obj["all_pass"] is True
    assert obj["seed"] == 271828


def test_verify_paper_deterministic_output(capsys):
    _, out1, _ = run(capsys, "verify-paper", "--case", "tangent-2")
    _, out2, _ = run(capsys, "verify-paper", "--case", "tangent-2")
    assert out1 == out2


def test_verify_paper_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("HILBCHECK_SEED", "12345")
    _, out, _ = run(capsys, "verify-paper", "--case", "tangent-21")
    assert "seed: 12345" in out


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.ideal"
    bad.write_text("field Q\nvars x y\nideal:\nx + w\n")
    code, _, err = run(capsys, "smoothable", str(bad))
    assert code == 2
    assert "line 4" in err


@pytest.mark.parametrize("command, name, text, where", [
    (["smoothable"], "long.ideal", "field Q\nvars x\nideal:\nx - " + "1" * 5000 + "\n",
     "(line 4, column 5)"),
    (["colength"], "long.ideal", "field Q\nvars x\nideal:\nx^" + "9" * 4400 + "\n",
     "(line 4, column 3)"),
    (["points-ideal", "-d", "4"], "long.pts", "1, 2, 3, 4\n5, " + "7" * 4500 + ", 0, 1\n",
     "(line 2, column 4)"),
])
def test_an_oversized_integer_literal_is_a_parse_error(capsys, tmp_path, command, name,
                                                       text, where):
    # longer than Python's limit on converting a string to an int
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, *command, str(path))
    assert code == 2 and not out
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("parse error: integer literal of ") and err.rstrip().endswith(where)


def test_smoothable_over_function_field_says_why_splitting_failed(capsys, tmp_path):
    path = tmp_path / "qt.ideal"
    path.write_text("field Qt\nvars x y\nideal:\nx^2 - 1\ny^2 - 4\n")
    code, out, _ = run(capsys, "smoothable", str(path))
    assert code == 0
    assert out.splitlines() == ["Smoothable", "  - colength 4",
                                "  - splitting failed: root search is not available over Q(t)"]


@pytest.mark.parametrize("command, lines", [
    ("colength", ["1"]),
    ("smoothable", ["Smoothable", "  - colength 1",
                    "  - splitting failed: root search is not available over Q(t)"]),
    ("tangent", ["3"])], ids=["colength", "smoothable", "tangent"])
def test_function_field_commands_answer_fast(capsys, tmp_path, command, lines):
    # a small ideal over Q(t) whose Buchberger run reduces many Q(t)
    # coefficients: each gcd runs in Z[t]
    path = tmp_path / "qt.ideal"
    path.write_text("field Qt\nvars x y z\nideal:\nx^3 + t*z^2\n"
                    "(3 - 2*t)*x + (2*t - 1)*y - t - 2\n(2 - t)*y*z + (2*t - 2)*x\n"
                    "(t + 3)*x*y + (t + 2)*y*z + (2*t + 1)*z^2 + (t - 2)*x\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, command, str(path))
    assert time.perf_counter() - start < 0.5
    assert code == 0 and out.splitlines() == lines


@pytest.mark.parametrize("p", [1000003, 2 ** 61 - 1])
def test_smoothable_splits_support_over_a_large_prime_field(capsys, tmp_path, p):
    # x takes three values, one of them twice, and y two: six points, two of
    # them double, found by the root search mod p for any p
    rng = random.Random(p)
    a, b, c, d = (rng.randrange(1, p) for _ in range(4))
    path = tmp_path / "fp.ideal"
    path.write_text(f"field F {p}\nvars x y\nideal:\n"
                    f"(x - {a})*(x - {b})^2*(x - {c})\ny^2 - {d * d % p}\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "smoothable", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["Smoothable", "  - colength 8"]
    assert lines[2].startswith("  - split into colengths [")
    assert sorted(json.loads(lines[2].split("colengths ")[1])) == [1, 1, 1, 1, 2, 2]


def test_smoothable_fails_fast_above_colength_8(capsys, tmp_path):
    # x^100000000 has 10^8 standard monomials; the classifier counts only 9
    big = tmp_path / "big.ideal"
    big.write_text("field Q\nvars x\nideal:\nx^100000000\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "smoothable", str(big))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out
    assert "colength > 8: outside the supported range" in err


# colength and local Hilbert function of every bundled data file
BUNDLED = {
    "family_t1.ideal": (8, "(1,4,3)"),
    "monomial_143.ideal": (8, "(1,4,3)"),
    "pencil_deg8.ideal": (8, "(1,3,4)"),
    "salmon.ideal": (8, "(1,4,3)"),
    "seven_quadrics_d4.ideal": (8, "(1,4,3)"),
    "seven_quadrics_d5.ideal": (8, "(1,4,3)"),
    "squares_cube_d3.ideal": (7, "(1,3,3)"),
    "squares_d3.ideal": (8, "(1,3,3,1)"),
    "weight753_colength8.ideal": (8, "(1,3,2,1,1)"),
}


def test_colength_and_hf_fail_fast_above_the_cap(tmp_path):
    big = tmp_path / "big.ideal"
    big.write_text("field Q\nvars x\nideal:\nx^100000000\n")
    big4 = tmp_path / "big4.ideal"
    big4.write_text("field Q\nvars x1 x2 x3 x4\nideal:\nx1^100000000\nx2\nx3\nx4\n")
    src = str(DATA.parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for command, path in ((["colength"], big), (["hf"], big), (["initial", "-w=-1"], big),
                          (["pfaffian"], big4), (["tangent"], big4),
                          (["tangent", "--graded"], big4)):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "hilbcheck.cli", *command, str(path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert time.perf_counter() - start < 2.0, command
        assert proc.returncode == 2 and not proc.stdout, command
        assert f"colength > {COLENGTH_CAP}" in proc.stderr, command


def test_an_oversized_power_fails_fast_at_parse_time(tmp_path):
    big = tmp_path / "big.ideal"
    big.write_text("field Q\nvars x y z w\nideal:\n(x+y+z+w+1)^30\nx\n")
    src = str(DATA.parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hilbcheck.cli", "colength", str(big)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 2 and not proc.stdout
    assert "parse error" in proc.stderr and "line 4" in proc.stderr


def test_colength_and_hf_keep_their_output_under_the_cap(capsys, tmp_path):
    assert {p.name for p in DATA.glob("*.ideal")} == set(BUNDLED)
    for name, (colength, hf) in BUNDLED.items():
        assert run(capsys, "colength", str(DATA / name)) == (0, f"{colength}\n", "")
        assert run(capsys, "hf", str(DATA / name)) == (0, f"{hf}\n", "")
    at_cap = tmp_path / "at_cap.ideal"
    at_cap.write_text("field Q\nvars x y\nideal:\nx^32\ny^2\n")
    assert run(capsys, "colength", str(at_cap)) == (0, f"{COLENGTH_CAP}\n", "")
    above = tmp_path / "above.ideal"
    above.write_text("field Q\nvars x y\nideal:\nx^13\ny^5\n")
    code, out, err = run(capsys, "colength", str(above))
    assert code == 2 and not out and f"colength > {COLENGTH_CAP}" in err


def _pinned_commands():
    """colength, hf, smoothable, tangent --graded --json and pfaffian --json
    on each bundled .ideal file, points-ideal on points8.pts and a census,
    with paths relative to the repository root."""
    cmds = []
    for path in sorted(DATA.glob("*.ideal")):
        rel = f"src/hilbcheck/data/{path.name}"
        cmds += [["colength", rel], ["hf", rel], ["smoothable", rel],
                 ["tangent", "--graded", "--json", rel], ["pfaffian", "--json", rel]]
    return cmds + [["points-ideal", "src/hilbcheck/data/points8.pts", "-d", "4"],
                   ["census", "-d", "3", "-n", "6"]]


def test_cli_outputs_are_byte_identical_to_the_pinned_ones(capsys, monkeypatch):
    # stdout, stderr and exit code of each command, as pinned in
    # tests/data/cli_outputs.json; a change that alters any of them must
    # re-pin that file
    pinned = json.loads((ROOT / "tests" / "data" / "cli_outputs.json").read_text(encoding="utf-8"))
    assert [p["argv"] for p in pinned] == _pinned_commands()
    assert len(pinned) == 47 and sum(p["code"] == 2 for p in pinned) == 6
    monkeypatch.chdir(ROOT)
    differ = []
    for p in pinned:
        code, out, err = run(capsys, *p["argv"])
        if (code, out, err) != (p["code"], p["stdout"], p["stderr"]):
            differ.append(" ".join(p["argv"]))
    assert differ == []


def test_unknown_case_errors(capsys):
    code, _, err = run(capsys, "verify-paper", "--case", "nonexistent")
    assert code == 2 and "no verification case" in err


def test_schema_validator_rejects_bad_reports():
    with pytest.raises(SchemaError):
        validate({"seed": "x", "backend": "b", "all_pass": True, "cases": []},
                 VERIFY_REPORT_SCHEMA)
    with pytest.raises(SchemaError):
        validate({"seed": 1, "backend": "b", "all_pass": True,
                  "cases": [{"name": "a", "status": "MAYBE", "value": ""}]},
                 VERIFY_REPORT_SCHEMA)
    with pytest.raises(SchemaError):
        validate({"seed": 1, "backend": "b", "all_pass": 1, "cases": []},
                 VERIFY_REPORT_SCHEMA)
