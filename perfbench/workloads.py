"""Seeded request streams for the three benchmark workloads, the one call that
serves a request, and the pinned answer each request is checked against.

A request reaches the program the way a user's input does: as ideal-file text
written with ``format_ideal_file``, which the served call parses with
``parse_ideal_file`` before the computation starts.  The only exception is
``curve16``, whose input the paper fixes, so the served call takes none.

Program functions are always looked up through their module at call time, so
the outside-in tracer (``tracer.py``) sees every call the benchmark makes.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, zip_longest
from pathlib import Path

from hilbcheck import (apolarity, artin, fixtures, groebner, poly, smooth,
                       tangent)
from hilbcheck.fields import GF, QQ
from hilbcheck.scalars import rat

WORKLOADS = ("classify", "tangent", "curve16")

CLASSIFY_STRATA = ("points", "witness", "monomial143", "cubic", "bundled")

# Cycles of requests generated per timed run.  A run replays the stream from
# the start when it runs out, so these only need to exceed what one run of
# --seconds consumes today; more would only lengthen set-up.
STREAM_CYCLES = {"classify": 16, "tangent": 4, "curve16": 1}

# Cycles served in a traced run.  The traced run serves a fixed list, not a
# timed loop, so its call counts repeat exactly for one seed.
TRACE_CYCLES = {"classify": 2, "tangent": 1, "curve16": 1}

_LOCAL_143 = ("colength 8", "split into colengths [8]",
              "recentered colength-8 piece", "local Hilbert function (1,4,3)")
_NONZERO_PFAFFIAN = object()

# Verdict and full evidence of the bundled data files at the seed commit.
BUNDLED_EXPECTED = {
    "family_t1.ideal": ("NotSmoothable", _LOCAL_143 + ("pfaffian -1/64",)),
    "monomial_143.ideal": ("Smoothable", _LOCAL_143 + ("pfaffian zero",)),
    "pencil_deg8.ideal": ("Smoothable", (
        "colength 8", "split into colengths [8]", "recentered colength-8 piece",
        "local Hilbert function (1,3,4)")),
    "salmon.ideal": ("Smoothable", _LOCAL_143 + ("pfaffian zero",)),
    "seven_quadrics_d4.ideal": ("NotSmoothable", _LOCAL_143 + ("pfaffian 1/64",)),
    "seven_quadrics_d5.ideal": ("NotSmoothable", _LOCAL_143 + (
        "reduced to 4 variables", "pfaffian 1/64")),
    "squares_cube_d3.ideal": ("Smoothable", ("colength 7", "split into colengths [7]")),
    "squares_d3.ideal": ("Smoothable", (
        "colength 8", "split into colengths [8]", "recentered colength-8 piece",
        "local Hilbert function (1,3,3,1)")),
    "weight753_colength8.ideal": ("Smoothable", (
        "colength 8", "split into colengths [8]", "recentered colength-8 piece",
        "local Hilbert function (1,3,2,1,1)")),
}

# dim Hom(I, S/I)_{-1} of the graded (1,4,3) fixtures at the seed commit; the
# paper states only the lower bound 4.
GRADED_MINUS_ONE = {"seven-quadrics": 4, "family-t0": 12, "family-t1": 4,
                    "family-limit": 4, "monomial-143": 12}


@dataclass(frozen=True)
class Request:
    kind: str          # classify stratum or tangent fixture label
    op: str            # "classify" | "tangent" | "graded" | "curve" | "family_t1"
    text: str = ""     # ideal-file input
    degree: int = 0    # graded piece, for op "graded"
    expect: object = None


def data_dir():
    """The ``data`` directory of the package being benchmarked."""
    return Path(poly.__file__).resolve().parent / "data"


def _file(I, comment):
    return poly.format_ideal_file(I.ctx, I.gens, comment=comment)


def _ctx4():
    return poly.context(QQ, "x1 x2 x3 x4")


# --- classify -----------------------------------------------------------------


def _points_request(rng):
    ctx = _ctx4()
    G = groebner.points_ideal(fixtures.random_points(rng.randrange(10 ** 9)), ctx)
    I = groebner.Ideal(ctx, G.elements)
    return Request("points", "classify", _file(I, "8 rational points"), expect=(
        "Smoothable", ("colength 8", "split into colengths [1, 1, 1, 1, 1, 1, 1, 1]")))


def _changed(I, rng, field=QQ):
    g = fixtures.random_invertible_matrix(rng.randrange(10 ** 9), I.ctx.d, field)
    return smooth.change_coordinates(I, g)


def _witness_request(rng):
    I = _changed(fixtures.seven_quadrics_ideal(4), rng)
    return Request("witness", "classify", _file(I, "seven quadrics under GL_4"),
                   expect=("NotSmoothable", _LOCAL_143 + (_NONZERO_PFAFFIAN,)))


def _monomial143_request(rng):
    I = _changed(fixtures.monomial_143_ideal(), rng)
    return Request("monomial143", "classify", _file(I, "monomial (1,4,3) under GL_4"),
                   expect=("Smoothable", _LOCAL_143 + ("pfaffian zero",)))


_CUBIC_MONOMIALS = [tuple(c.count(i) for i in range(4))
                    for c in combinations_with_replacement(range(4), 3)]


def _diff(coeffs, i):
    out = {}
    for m, c in coeffs.items():
        if m[i]:
            mm = m[:i] + (m[i] - 1,) + m[i + 1:]
            out[mm] = out.get(mm, 0) + c * m[i]
    return out


def _rank(forms):
    """Rank over Q of polynomials given as {monomial: int} dicts."""
    monos = sorted({m for f in forms for m in f})
    rows = [[Fraction(f.get(m, 0)) for m in monos] for f in forms]
    rank = 0
    for col in range(len(monos)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _cubic_request(rng):
    # Redraw until the three partials span 3 quadrics whose own partials span
    # all 4 linear forms: then the apolar ideal has Hilbert function (1,4,3).
    while True:
        coeffs = {m: rng.randint(-3, 3) for m in _CUBIC_MONOMIALS}
        quadrics = [_diff(coeffs, i) for i in range(3)]
        if _rank(quadrics) == 3 and \
                _rank([_diff(q, j) for q in quadrics for j in range(4)]) == 4:
            break
    dctx = _ctx4().dual_context()
    cubic = poly.Polynomial(dctx, {m: QQ.from_int(c) for m, c in coeffs.items() if c})
    I = apolarity.ideal_from_inverse_system([cubic.partial(i) for i in range(3)])
    point = tuple(rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
    I = artin.translate_ideal(I, point)
    return Request("cubic", "classify", _file(I, "apolar ideal of cubic partials, translated"),
                   expect=("Smoothable", _LOCAL_143 + ("pfaffian zero",)))


def _bundled_request(name):
    text = (data_dir() / name).read_text()
    return Request("bundled", "classify", text, expect=BUNDLED_EXPECTED[name])


def classify_requests(seed, cycles):
    """``cycles`` rounds of the five strata, each round in a seeded order."""
    rng = random.Random(f"classify/{seed}")
    files = sorted(BUNDLED_EXPECTED)
    rng.shuffle(files)
    make = {"points": _points_request, "witness": _witness_request,
            "monomial143": _monomial143_request, "cubic": _cubic_request}
    out = []
    for k in range(cycles):
        order = list(CLASSIFY_STRATA)
        rng.shuffle(order)
        for stratum in order:
            if stratum == "bundled":
                out.append(_bundled_request(files[k % len(files)]))
            else:
                out.append(make[stratum](rng))
    return out


# --- tangent ------------------------------------------------------------------


def _tangent_kinds():
    """(label, ideal factory, op, degree, expected) for one round, with the
    groups of fixtures interleaved so that costly and cheap requests alternate
    and any prefix of a round holds a similar mix."""
    groups = [[], [], [], [], []]
    for field in (QQ, GF(5), GF(7)):
        for d in (4, 5, 6):
            groups[0].append((f"seven-quadrics-d{d}-{field}",
                              lambda d=d, field=field: fixtures.seven_quadrics_ideal(d, field),
                              "tangent", 0, 8 * d - 7))
    groups[1].append(("monomial-143", fixtures.monomial_143_ideal, "tangent", 0, 33))
    groups[1].append(("squares-cube", fixtures.squares_cube_ideal, "tangent", 0, 21))
    groups[1].append(("weight753", fixtures.weight753_ideal, "tangent", 0, 24))
    for name in GRADED_MINUS_ONE:
        build = lambda name=name: dict(fixtures.graded_143_fixtures())[name]
        groups[2].append((f"graded0-{name}", build, "graded", 0, 21))
        groups[3].append((f"graded-1-{name}", build, "graded", -1, GRADED_MINUS_ONE[name]))
    # Hom_{-2} = 0 along the family, as the paper states.  These three also
    # keep the round's median latency inside the cluster of graded requests
    # rather than in the gap between it and the costlier ungraded ones.
    for name in ("family-t0", "family-t1", "family-limit"):
        build = lambda name=name: dict(fixtures.graded_143_fixtures())[name]
        groups[4].append((f"graded-2-{name}", build, "graded", -2, 0))
    return [kind for layer in zip_longest(*groups) for kind in layer if kind]


def tangent_requests(seed, cycles):
    """``cycles`` rounds over every fixture, each under a fresh seeded GL_d
    change over the fixture's own field."""
    rng = random.Random(f"tangent/{seed}")
    out = []
    for _ in range(cycles):
        for label, build, op, degree, expected in _tangent_kinds():
            I = build()
            I = _changed(I, rng, I.ctx.field)
            out.append(Request(label, op, _file(I, label), degree, expected))
    return out


# --- curve16 ------------------------------------------------------------------


def curve_requests(seed, cycles):
    # The paper fixes the family, so the seed selects nothing.
    return [Request("curve16", "curve")] * cycles


GENERATORS = {"classify": classify_requests, "tangent": tangent_requests,
              "curve16": curve_requests}


def make_requests(workload, seed, cycles):
    return GENERATORS[workload](seed, cycles)


def cycle_length(workload):
    """Requests per round: a run serves whole rounds."""
    return {"classify": len(CLASSIFY_STRATA), "tangent": len(_tangent_kinds()),
            "curve16": 1}[workload]


def warmup_request(workload):
    """One untimed request, the same for every seed so that set-up time does
    not depend on which stratum a seed would draw first.

    For ``curve16`` it is the t = 1 member of the family, the cheap last step
    of the full request: a second full request would double the run.
    """
    if workload == "classify":
        return _bundled_request("seven_quadrics_d4.ideal")
    if workload == "tangent":
        I = fixtures.seven_quadrics_ideal(4)
        return Request("seven-quadrics-d4-Q", "tangent", _file(I, "warm-up"), expect=25)
    return Request("curve16-t1", "family_t1", expect=24)


# --- serving and checking -----------------------------------------------------


def serve(req):
    """Run one request through the program's public functions."""
    if req.op == "curve":
        return tangent.curve_multiplicity()
    if req.op == "family_t1":
        return tangent.family_machine(1)
    ctx, polys = poly.parse_ideal_file(req.text)
    I = groebner.Ideal(ctx, polys)
    if req.op == "classify":
        return smooth.classify_smoothable(I)
    if req.op == "tangent":
        return tangent.tangent_dimension(I)
    return tangent.graded_tangent_dimension(I, req.degree)


def check(req, result):
    """None when ``result`` is the pinned answer, else a description."""
    if req.op == "classify":
        outcome, evidence = req.expect
        got = tuple(result.evidence)
        if result.outcome != outcome:
            return f"verdict {result.outcome}, expected {outcome}"
        if evidence[-1] is _NONZERO_PFAFFIAN:
            if got[:-1] != evidence[:-1] or not got or not result.pfaffian \
                    or not got[-1].startswith("pfaffian ") or got[-1] == "pfaffian zero":
                return f"evidence {got}, expected a nonzero pfaffian"
        elif got != evidence:
            return f"evidence {got}, expected {evidence}"
        return None
    if req.op in ("tangent", "graded"):
        return None if result == req.expect else f"dimension {result}, expected {req.expect}"
    if req.op == "family_t1":
        return None if result.rank_psi == req.expect else f"rank {result.rank_psi} at t=1"
    gcd = tuple(result.sampled_gcd or ())
    if result.valuation != 16 or result.sampled_valuation != 16:
        return f"valuation {result.valuation}/{result.sampled_valuation}, expected 16"
    if len(gcd) != 17 or any(gcd[:16]) or not gcd[16]:
        return f"sampled gcd {gcd} is not c*t^16"
    if result.rank_at_one != 24 or result.syzygy_dimension != 8:
        return f"rank at t=1 {result.rank_at_one}, syzygies {result.syzygy_dimension}"
    return None
