"""The bundled verification suite: every exactly-reproducible quantity in
scope, as named cases with PASS / FAIL / INDETERMINATE outcomes.

Each case recomputes its values from scratch with exact arithmetic and
compares them to the frozen expected results.  Randomized cases draw from a
seed that is part of the report, so reports are reproducible byte for byte.
"""

import random
import time
from dataclasses import dataclass

from . import fixtures as fx
from .apolarity import apply_operator, ideal_from_inverse_system, perp
from .artin import centroid, multiplication_operators, quotient_model, translate_ideal
from .census import census_report, chain_stratum_dims, fiber_dim, \
    grassmannian_stratum_dim, pencil_cubic_stratum_dims
from .errors import HilbcheckError, PreconditionError
from .fields import GF, QQ
from .groebner import (buchberger, delta_ratio, ideal_equal, initial_ideal,
                       intersect, points_ideal)
from .linalg import DenseMatrix, determinant, pfaffian
from .poly import Polynomial, Substitution, context
from .scalars import RAT_BACKEND
from .smooth import (change_coordinates, classify_smoothable, project_to_graded,
                     salmon_turnbull_pfaffian)
from .tangent import (build_tangent_machine, curve_multiplicity,
                      graded_tangent_dimension, tangent_dimension)
from .upoly import zpoly_str


@dataclass
class CaseResult:
    name: str
    status: str
    value: str
    note: str = ""
    seconds: float = 0.0


def _case_tangent_8d_minus_7(seed):
    for field in (QQ, GF(5), GF(7)):
        for d in (4, 5, 6):
            td = tangent_dimension(fx.seven_quadrics_ideal(d, field))
            if td != 8 * d - 7:
                return "FAIL", f"d={d} over {field}: {td}", "expected 8d-7"
    return "PASS", "25/33/41", "over Q, F_5, F_7"


def _case_tangent_21(seed):
    td = tangent_dimension(fx.squares_cube_ideal())
    return ("PASS" if td == 21 else "FAIL"), str(td), "three squares and the cube"


def _case_tangent_24(seed):
    td = tangent_dimension(fx.weight753_ideal())
    return ("PASS" if td == 24 else "FAIL"), str(td), "quartic-tail colength 8"


def _case_tangent_33(seed):
    td = tangent_dimension(fx.monomial_143_ideal())
    return ("PASS" if td == 33 else "FAIL"), str(td), "monomial (1,4,3)"


def _degeneration_case(I, J1, J2, w, value, note, J=None):
    """PASS with value and note when in_w(J) = I for J the intersection of J1
    and J2, else FAIL; a J that the fixture gives is checked to be that
    intersection first."""
    if J is None:
        J = intersect(J1, J2)
    elif not ideal_equal(intersect(J1, J2), J):
        return "FAIL", "intersection", note
    if not ideal_equal(initial_ideal(J, w), I):
        return "FAIL", "initial", note
    return "PASS", value, note


def _case_initial_pencil(seed):
    I, J, (J1, J2), w = fx.degeneration_pencil_deg8()
    result = _degeneration_case(I, J1, J2, w, "in_(1,1,1) and 3+5 split", "", J)
    if result[0] != "PASS":
        return result
    n1 = buchberger(J1).colength()
    n2 = buchberger(J2).colength()
    if (n1, n2) != (3, 5):
        return "FAIL", f"colengths {n1}+{n2}", ""
    return result


def _case_initial_axis(seed):
    I, (J1, J2), w = fx.degeneration_axis_weight()
    return _degeneration_case(I, J1, J2, w, "in_(1,0,0)", "")


def _case_initial_753(seed):
    I, (J1, J2), w = fx.degeneration_753()
    return _degeneration_case(I, J1, J2, w, "in_(7,5,3)", "")


def _chain_case(d, m):
    """The case of the degeneration chain fixture of d and m."""
    def case(seed):
        I, J, (J1, J2), w = fx.degeneration_chain(d, m)
        return _degeneration_case(I, J1, J2, w, f"in_{w}", f"d={d}, m={m}", J)
    return case


def _case_initial_two_quadrics(seed):
    I, (J1, J2), w = fx.degeneration_two_quadrics()
    return _degeneration_case(I, J1, J2, w, "in_(1,1,1)", "pencil of quadrics stratum")


def _case_initial_cubic_socle(seed):
    I, (J1, J2), w = fx.degeneration_cubic_pair()
    return _degeneration_case(I, J1, J2, w, "in_(2,2,3)", "cubic-socle stratum")


def _case_initial_square_socle(seed):
    I, (J1, J2), w = fx.degeneration_square_pair()
    return _degeneration_case(I, J1, J2, w, "in_(2,3,3)", "square-socle stratum")


def _case_curve16(seed):
    rep = curve_multiplicity()
    if rep.valuation != 16:
        return "FAIL", str(rep.valuation), "valuation certificate"
    if rep.sampled_valuation != 16 or list(rep.sampled_gcd[:16]).count(0) != 16:
        return "FAIL", zpoly_str(rep.sampled_gcd), "sampled gcd is not c*t^16"
    if len(rep.sampled_gcd) != 17:
        return "FAIL", zpoly_str(rep.sampled_gcd), "sampled gcd is not c*t^16"
    if rep.rank_at_one != 24:
        return "FAIL", str(rep.rank_at_one), "rank at t=1"
    return "PASS", "16", f"sampled gcd {zpoly_str(rep.sampled_gcd)}"


def _case_pfaffian_nonzero(seed):
    rep = salmon_turnbull_pfaffian(fx.seven_quadrics_ideal(4))
    if rep.vanishes:
        return "FAIL", "0", "expected nonzero"
    return "PASS", f"value {rep.pfaffian_block}", "nonzero under the fixed basis convention"


def _case_pfaffian_salmon(seed):
    rep = salmon_turnbull_pfaffian(fx.salmon_ideal())
    return ("PASS" if rep.vanishes else "FAIL"), str(rep.pfaffian_block), \
        "partials of one cubic"


def _case_pfaffian_points(seed):
    rng = random.Random(seed)
    for k in range(20):
        pts = fx.random_points(rng.randint(0, 10 ** 9))
        ctx = context(QQ, "x1 x2 x3 x4")
        G = points_ideal(pts, ctx)
        center = centroid(multiplication_operators(G))
        graded = project_to_graded(translate_ideal(G, center))
        rep = salmon_turnbull_pfaffian(graded)
        if not rep.vanishes:
            return "FAIL", f"draw {k}: {rep.pfaffian_block}", "expected exact zero"
    return "PASS", "0 on 20 draws", "projections of random 8-point ideals"


def _case_pfaffian_ratio(seed):
    reps = [salmon_turnbull_pfaffian(I) for I in
            (fx.seven_quadrics_ideal(4), fx.family_member_ideal(1),
             fx.family_member_ideal(2), fx.family_limit_ideal())]
    ratios = {str(r.ratio()) for r in reps if not r.vanishes}
    zero_ok = all(bool(r.pfaffian_block) == bool(r.pfaffian_intrinsic) for r in reps)
    if not zero_ok:
        return "FAIL", "vanishing mismatch", ""
    if len(ratios) != 1:
        return "FAIL", f"ratios {sorted(ratios)}", "expected one constant"
    return "PASS", f"ratio {ratios.pop()}", "block vs intrinsic"


def _random_dual_quadric(rng, dctx):
    terms = {}
    for i in range(4):
        for j in range(i, 4):
            if rng.random() < 0.6:
                m = tuple(int(k == i) + int(k == j) for k in range(4))
                terms[m] = dctx.field.from_int(rng.randint(-9, 9))
    return Polynomial(dctx, terms)


def _case_pfaffian_covariance(seed):
    # g in GL_4 moves each dual quadric by Q(y) -> Q(g y), and h in GL_3 mixes
    # the three; the block matrix is sum_k F_k (x) A_k with F_k the 3 x 3 skew
    # blocks, and pf(P^T B P) = det(P) pf(B) gives the law below
    rng = random.Random(seed)
    draws = nonzero = 0
    for field in (QQ, GF(101)):
        dctx = context(field, "x1 x2 x3 x4").dual_context()
        ys = dctx.variables()
        for _ in range(10):
            qs = [_random_dual_quadric(rng, dctx) for _ in range(3)]
            try:
                pf = salmon_turnbull_pfaffian(qs).pfaffian_block
            except PreconditionError:
                continue        # dependent or zero quadrics have no Pfaffian
            g = fx.random_invertible_matrix(rng.randrange(10 ** 9), 4, field)
            h = fx.random_invertible_matrix(rng.randrange(10 ** 9), 3, field)
            sub = Substitution([sum((ys[j].scale(g[i][j]) for j in range(4)), dctx.zero())
                                for i in range(4)])
            moved = [q.substitute(sub) for q in qs]
            mixed = [sum((moved[l].scale(h[k][l]) for l in range(3)), dctx.zero())
                     for k in range(3)]
            law = determinant(DenseMatrix(field, g)) ** 3 * determinant(DenseMatrix(field, h)) ** 2
            if salmon_turnbull_pfaffian(mixed).pfaffian_block != law * pf:
                return "FAIL", f"draw {draws} over {field}", "pf(h.(g.Q)) != det(g)^3 det(h)^2 pf(Q)"
            draws += 1
            nonzero += bool(pf)
    return "PASS", f"{draws} draws, {nonzero} nonzero", \
        "pf(h.(g.Q)) = det(g)^3 det(h)^2 pf(Q) over Q and F_101"


def _case_graded_hom0(seed):
    for name, I in fx.graded_143_fixtures():
        dim = graded_tangent_dimension(I, 0)
        if dim != 21:
            return "FAIL", f"{name}: {dim}", "expected 21"
    return "PASS", "21 on 5 fixtures", "degree-0 tangent pieces"


def _case_graded_homm2(seed):
    for name, I in (("family-t0", fx.family_member_ideal(0)),
                    ("family-t1", fx.family_member_ideal(1)),
                    ("family-limit", fx.family_limit_ideal())):
        dim = graded_tangent_dimension(I, -2)
        if dim != 0:
            return "FAIL", f"{name}: {dim}", "expected 0"
    return "PASS", "0/0/0", "degree -2 pieces along the family"


def _case_graded_homm1(seed):
    dims = []
    for name, I in fx.graded_143_fixtures():
        dim = graded_tangent_dimension(I, -1)
        dims.append(dim)
        if dim < 4:
            return "FAIL", f"{name}: {dim}", "lower bound 4"
    return "PASS", "/".join(map(str, dims)), "degree -1 pieces, all >= 4"


def _case_hbar_corank(seed):
    m = build_tangent_machine(fx.monomial_143_ideal())
    s = build_tangent_machine(fx.salmon_ideal())
    if m.corank_hbar < 8:
        return "FAIL", str(m.corank_hbar), "monomial point of the divisor"
    if s.corank_hbar < 8:
        return "FAIL", str(s.corank_hbar), "salmon configuration"
    return "PASS", f"{m.corank_hbar} and {s.corank_hbar}", "coranks at two divisor points"


def _case_classify_not_smoothable(seed):
    for d in (4, 5):
        v = classify_smoothable(fx.seven_quadrics_ideal(d))
        if v.outcome != "NotSmoothable":
            return "FAIL", f"d={d}: {v.outcome}", ""
    return "PASS", "NotSmoothable for d=4,5", "seven-quadrics witness"


def _case_classify_monomials(seed):
    for I in fx.bundled_monomial_ideals():
        v = classify_smoothable(I)
        if v.outcome != "Smoothable":
            return "FAIL", f"{I}: {v.outcome}", ""
    return "PASS", f"{len(fx.bundled_monomial_ideals())} monomial ideals", \
        "all limits of distinct points"


def _case_classify_points(seed):
    rng = random.Random(seed)
    ctx = context(QQ, "x1 x2 x3 x4")
    for k in range(10):
        pts = fx.random_points(rng.randint(0, 10 ** 9))
        v = classify_smoothable(points_ideal(pts, ctx))
        if v.outcome != "Smoothable":
            return "FAIL", f"draw {k}: {v.outcome}", ""
    return "PASS", "Smoothable on 10 draws", "ideals of 8 distinct points"


def _case_classify_invariance(seed):
    rng = random.Random(seed)
    J = fx.seven_quadrics_ideal(4)
    M = fx.monomial_143_ideal()
    for k in range(25):
        g = fx.random_invertible_matrix(rng.randint(0, 10 ** 9), 4)
        if classify_smoothable(change_coordinates(J, g)).outcome != "NotSmoothable":
            return "FAIL", f"change {k} on the witness", ""
        g2 = fx.random_invertible_matrix(rng.randint(0, 10 ** 9), 4)
        if classify_smoothable(change_coordinates(M, g2)).outcome != "Smoothable":
            return "FAIL", f"change {k} on the monomial ideal", ""
    return "PASS", "50 coordinate changes", "verdicts invariant"


def _case_census(seed):
    rep = census_report()
    if not rep.all_match():
        bad = [r for r in rep.rows if not r.formulas_match or
               not (r.census_hit or r.h[1] > 4)]
        return "FAIL", f"{len(bad)} rows off, extras {rep.extra_functions}", ""
    return "PASS", f"{len(rep.rows)} rows", "; ".join(rep.notes)


def _case_dimension_formulas(seed):
    checks = [
        (pencil_cubic_stratum_dims(3), (5, 6)),
        (pencil_cubic_stratum_dims(4), (7, 11)),
        (chain_stratum_dims(3, 3), (2, 7)),
        (chain_stratum_dims(4, 4), (3, 15)),
        (grassmannian_stratum_dim(4, 3), 21),
        (grassmannian_stratum_dim(5, 2), 26),
        (fiber_dim(3, 2, 1), 4),
        (fiber_dim(4, 2, 1), 8),
    ]
    for got, want in checks:
        if got != want:
            return "FAIL", f"{got} != {want}", ""
    return "PASS", f"{len(checks)} closed-form checks", "stratum dimension arithmetic"


def _case_property_pf_det(seed):
    rng = random.Random(seed)
    for _ in range(100):
        m = DenseMatrix(QQ, fx.random_skew_matrix(rng, 8))
        if pfaffian(m) ** 2 != determinant(m):
            return "FAIL", "pf^2 != det", ""
    return "PASS", "pf^2 = det on 100 skew 8x8", ""


def _case_property_delta_ratio(seed):
    rng = random.Random(seed)
    for k in range(20):
        d = rng.choice((2, 3, 4))
        n = rng.randint(3, 8)
        pts = fx.random_points(rng.randint(0, 10 ** 9), n=n, d=d)
        ctx = context(QQ, [f"x{i+1}" for i in range(d)])
        G = points_ideal(pts, ctx)
        lam = list(G.quotient_basis())
        for g in G.elements:
            lt = g.lm(G.order)
            for mp in lam:
                coeff = -g.terms.get(mp, QQ.zero)
                ratio = delta_ratio(pts, lam, lt, mp, ctx)
                if coeff != ratio:
                    return "FAIL", f"draw {k}: {lt} vs {mp}", "chart coordinate mismatch"
    return "PASS", "20 point sets", "determinant ratios = elimination coefficients"


def _case_property_double_perp(seed):
    fixture_list = [I for _, I in fx.graded_143_fixtures()]
    fixture_list += [fx.squares_ideal(), fx.squares_cube_ideal(), fx.salmon_ideal()]
    for I in fixture_list:
        comps = []
        j = 0
        while j <= 10:
            basis = perp(I, j)
            if not basis and j > 0:
                break
            # perp read off the factorial pairing, checked by the action itself:
            # every generator of degree <= j kills each form of degree j
            if any(apply_operator(g, q) for g in I.gens if g.degree() <= j for q in basis):
                return "FAIL", f"{I}", "the ideal does not annihilate its perpendicular space"
            comps.extend(basis)
            j += 1
        back = ideal_from_inverse_system(comps)
        if not ideal_equal(back, I):
            return "FAIL", f"{I}", "double perpendicular is not the identity"
    return "PASS", f"{len(fixture_list)} homogeneous fixtures", ""


def _case_property_operators(seed):
    rng = random.Random(seed)
    ctx = context(QQ, "x1 x2 x3 x4")
    ideals = [fx.seven_quadrics_ideal(4), fx.monomial_143_ideal()]
    for k in range(3):
        pts = fx.random_points(rng.randint(0, 10 ** 9))
        ideals.append(points_ideal(pts, ctx))
    for I in ideals:
        G, model = quotient_model(I)
        # NF(x_i NF(x_j m)) = NF(x_j NF(x_i m)) on the standard monomials m:
        # the operators commute, checked apart from the model's own products
        xs = G.ctx.variables()
        for m in G.quotient_basis():
            once = [G.normal_form(x * G.ctx.monomial(m)) for x in xs]
            if any(G.normal_form(x * once[j]) != G.normal_form(xs[j] * once[i])
                   for i, x in enumerate(xs) for j in range(i)):
                return "FAIL", "operators do not commute", ""
        center = centroid(model)
        recentered = translate_ideal(I, center)
        _, model2 = quotient_model(recentered)
        if any(centroid(model2)):
            return "FAIL", "nonzero trace after recentering", ""
    return "PASS", f"{len(ideals)} algebras", "commuting operators, trace-zero recentering"


CASES = (
    ("tangent-8d-minus-7", _case_tangent_8d_minus_7),
    ("tangent-21", _case_tangent_21),
    ("tangent-24", _case_tangent_24),
    ("tangent-33", _case_tangent_33),
    ("initial-pencil-111", _case_initial_pencil),
    ("initial-axis-100", _case_initial_axis),
    ("initial-753", _case_initial_753),
    ("initial-chain-d2m3", _chain_case(2, 3)),
    ("initial-chain-d3m3", _chain_case(3, 3)),
    ("initial-chain-d3m4", _chain_case(3, 4)),
    ("initial-two-quadrics", _case_initial_two_quadrics),
    ("initial-cubic-socle", _case_initial_cubic_socle),
    ("initial-square-socle", _case_initial_square_socle),
    ("curve16", _case_curve16),
    ("pfaffian-nonzero", _case_pfaffian_nonzero),
    ("pfaffian-salmon", _case_pfaffian_salmon),
    ("pfaffian-points", _case_pfaffian_points),
    ("pfaffian-ratio", _case_pfaffian_ratio),
    ("pfaffian-covariance", _case_pfaffian_covariance),
    ("graded-hom0", _case_graded_hom0),
    ("graded-homm2", _case_graded_homm2),
    ("graded-homm1", _case_graded_homm1),
    ("hbar-corank", _case_hbar_corank),
    ("classify-not-smoothable", _case_classify_not_smoothable),
    ("classify-monomials", _case_classify_monomials),
    ("classify-points", _case_classify_points),
    ("classify-invariance", _case_classify_invariance),
    ("census", _case_census),
    ("dimension-formulas", _case_dimension_formulas),
    ("property-pf-det", _case_property_pf_det),
    ("property-delta-ratio", _case_property_delta_ratio),
    ("property-double-perp", _case_property_double_perp),
    ("property-operators", _case_property_operators),
)

CASE_NAMES = tuple(name for name, _ in CASES)


@dataclass
class Report:
    seed: int
    backend: str
    cases: list

    def all_pass(self):
        return all(c.status == "PASS" for c in self.cases)

    def to_json_obj(self, timings=False):
        cases = []
        for c in self.cases:
            item = {"name": c.name, "status": c.status, "value": c.value,
                    "note": c.note}
            if timings:
                item["seconds"] = round(c.seconds, 3)
            cases.append(item)
        return {"seed": self.seed, "backend": self.backend,
                "all_pass": self.all_pass(), "cases": cases}

    def to_text(self, timings=False):
        lines = [f"verification suite  seed: {self.seed}  backend: {self.backend}"]
        for c in self.cases:
            base = f"{c.status:<13} {c.name:<24} {c.value}"
            if c.note:
                base += f"  ({c.note})"
            if timings:
                base += f"  [{c.seconds:.2f}s]"
            lines.append(base)
        good = sum(1 for c in self.cases if c.status == "PASS")
        lines.append(f"{good}/{len(self.cases)} cases pass")
        return "\n".join(lines) + "\n"


def run_case(name, seed=fx.DEFAULT_SEED):
    fn = dict(CASES)[name]
    t0 = time.perf_counter()
    try:
        status, value, note = fn(seed)
    except HilbcheckError as exc:
        status, value, note = "INDETERMINATE", "", str(exc)
    return CaseResult(name, status, value, note, time.perf_counter() - t0)


def run_suite(case_filter=None, seed=fx.DEFAULT_SEED):
    selected = []
    for name, _ in CASES:
        if case_filter is None or name == case_filter or name.startswith(case_filter):
            selected.append(name)
    if not selected:
        raise HilbcheckError(f"no verification case matches {case_filter!r}")
    return Report(seed=seed, backend=RAT_BACKEND,
                  cases=[run_case(n, seed) for n in selected])