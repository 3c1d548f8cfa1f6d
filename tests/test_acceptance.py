"""Acceptance suite: every externally stated exact quantity, one test per
criterion, each printing a pass line.  All comparisons are exact equalities
of field elements, ideals, or integers; no tolerances anywhere.
"""

import random

from hilbcheck.fields import GF, QQ
from hilbcheck import fixtures as fx
from hilbcheck.apolarity import ideal_from_inverse_system, perp
from hilbcheck.artin import (centroid, multiplication_operators,
                             translate_ideal)
from hilbcheck.census import census_report
from hilbcheck.groebner import (Ideal, buchberger, delta_ratio, ideal_equal,
                                initial_ideal, intersect, points_ideal)
from hilbcheck.linalg import DenseMatrix, determinant, pfaffian
from hilbcheck.poly import context
from hilbcheck.smooth import (change_coordinates, classify_smoothable,
                              project_to_graded, salmon_turnbull_pfaffian)
from hilbcheck.tangent import (build_tangent_machine, curve_multiplicity,
                               graded_tangent_dimension, tangent_dimension)

SEED = 271828


def _field_rows(op, field):
    """The rows of field elements of the working operator op = (rows, den)."""
    rows, den = op
    if field.modulus is None:
        return rows
    return [[field.element(x, den) for x in row] for row in rows]


def _matmul(a, b, field):
    """The product of the matrices with rows of field elements a and b."""
    return [[sum((x * y for x, y in zip(row, col)), field.zero) for col in zip(*b)] for row in a]


def _report(criterion, text):
    print(f"ACCEPTANCE CRITERION {criterion}: PASS ({text})")


def test_criterion_1_tangent_dimensions_8d_minus_7():
    for field in (QQ, GF(5), GF(7)):
        for d, expected in ((4, 25), (5, 33), (6, 41)):
            assert tangent_dimension(fx.seven_quadrics_ideal(d, field)) == expected
    _report(1, "tangent dimensions 25/33/41 over Q, F_5, F_7")


def test_criterion_2_fixture_tangent_dimensions():
    assert tangent_dimension(fx.squares_cube_ideal()) == 21
    assert tangent_dimension(fx.weight753_ideal()) == 24
    assert tangent_dimension(fx.monomial_143_ideal()) == 33
    _report(2, "tangent dimensions 21, 24, 33")


def test_criterion_3_groebner_degenerations():
    I, J, (J1, J2), w = fx.degeneration_pencil_deg8()
    assert ideal_equal(intersect(J1, J2), J)
    assert ideal_equal(initial_ideal(J, w), I)
    assert buchberger(J1).colength() == 3 and buchberger(J2).colength() == 5
    I, (J1, J2), w = fx.degeneration_axis_weight()
    assert ideal_equal(initial_ideal(intersect(J1, J2), w), I)
    I, (J1, J2), w = fx.degeneration_753()
    assert ideal_equal(initial_ideal(intersect(J1, J2), w), I)
    for d, m in ((2, 3), (3, 3), (3, 4)):
        I, J, (J1, J2), w = fx.degeneration_chain(d, m)
        assert ideal_equal(intersect(J1, J2), J)
        assert ideal_equal(initial_ideal(J, w), I)
    for I, (J1, J2), w in (fx.degeneration_two_quadrics(),
                           fx.degeneration_cubic_pair(),
                           fx.degeneration_square_pair()):
        assert ideal_equal(initial_ideal(intersect(J1, J2), w), I)
    _report(3, "weight degenerations and intersection decompositions, all exact")


def test_criterion_4_curve_multiplicity_sixteen():
    rep = curve_multiplicity()
    assert rep.valuation == 16
    # the sampled gcd is a constant times t^16
    assert len(rep.sampled_gcd) == 17
    assert all(c == 0 for c in rep.sampled_gcd[:16]) and rep.sampled_gcd[16]
    _report(4, "valuation 16, sampled minor gcd c*t^16")


def test_criterion_5_pfaffian_fixtures():
    witness = salmon_turnbull_pfaffian(fx.seven_quadrics_ideal(4))
    assert not witness.vanishes
    salmon = salmon_turnbull_pfaffian(fx.salmon_ideal())
    assert salmon.vanishes
    rng = random.Random(SEED)
    ctx = context(QQ, "x1 x2 x3 x4")
    for _ in range(20):
        pts = fx.random_points(rng.randint(0, 10 ** 9))
        G = points_ideal(pts, ctx)
        I = Ideal(ctx, G.elements)
        center = centroid(multiplication_operators(G))
        rep = salmon_turnbull_pfaffian(project_to_graded(translate_ideal(I, center)))
        assert rep.pfaffian_block == QQ.zero and rep.vanishes
    ratios = set()
    for I in (fx.seven_quadrics_ideal(4), fx.family_member_ideal(1),
              fx.family_limit_ideal(), fx.salmon_ideal(), fx.monomial_143_ideal()):
        rep = salmon_turnbull_pfaffian(I)
        assert bool(rep.pfaffian_block) == bool(rep.pfaffian_intrinsic)
        if rep.pfaffian_block:
            ratios.add(repr(rep.ratio()))
    assert len(ratios) == 1
    _report(5, "nonzero on the witness, zero on salmon and on 20 point "
               "projections, constant block/intrinsic ratio")


def test_criterion_6_graded_tangent_facts():
    fixtures = fx.graded_143_fixtures()
    for name, I in fixtures:
        assert graded_tangent_dimension(I, 0) == 21, name
        assert graded_tangent_dimension(I, -1) >= 4, name
    for tval in (0, 1):
        assert graded_tangent_dimension(fx.family_member_ideal(tval), -2) == 0
    assert graded_tangent_dimension(fx.family_limit_ideal(), -2) == 0
    machine = build_tangent_machine(fx.monomial_143_ideal())
    assert machine.corank_hbar >= 8
    _report(6, "Hom_0 = 21 x5, Hom_-2 = 0 x3, Hom_-1 >= 4, corank >= 8")


def test_criterion_7_classifier_end_to_end():
    for d in (4, 5):
        assert classify_smoothable(fx.seven_quadrics_ideal(d)).outcome == "NotSmoothable"
    for I in fx.bundled_monomial_ideals():
        assert classify_smoothable(I).outcome == "Smoothable"
    rng = random.Random(SEED)
    ctx = context(QQ, "x1 x2 x3 x4")
    for _ in range(5):
        pts = fx.random_points(rng.randint(0, 10 ** 9))
        I = Ideal(ctx, points_ideal(pts, ctx).elements)
        assert classify_smoothable(I).outcome == "Smoothable"
    # every bundled degeneration target is smoothable
    targets = [fx.degeneration_pencil_deg8()[0], fx.degeneration_axis_weight()[0],
               fx.degeneration_753()[0], fx.degeneration_chain(3, 3)[0],
               fx.degeneration_two_quadrics()[0], fx.degeneration_cubic_pair()[0],
               fx.degeneration_square_pair()[0]]
    for I in targets:
        assert classify_smoothable(I).outcome == "Smoothable"
    # verdicts invariant under 50 seeded coordinate changes
    for k in range(25):
        g = fx.random_invertible_matrix(rng.randint(0, 10 ** 9), 4)
        moved = change_coordinates(fx.seven_quadrics_ideal(4), g)
        assert classify_smoothable(moved).outcome == "NotSmoothable"
        g2 = fx.random_invertible_matrix(rng.randint(0, 10 ** 9), 4)
        moved2 = change_coordinates(fx.monomial_143_ideal(), g2)
        assert classify_smoothable(moved2).outcome == "Smoothable"
    _report(7, "witness not smoothable; monomials, points, and degeneration "
               "targets smoothable; 50 coordinate changes invariant")


def test_criterion_8_census_and_dimension_columns():
    rep = census_report()
    assert rep.all_match()
    assert rep.extra_functions == ()
    # the text-vs-table discrepancy is flagged
    assert any("(N-e)*N" in note for note in rep.notes)
    # dimension columns reproduced by the closed formulas
    for row in rep.rows:
        assert row.formulas_match
    # census functions with h_1 >= 3 are exactly the rows with h_1 <= 4
    hit = {(r.colength, r.h) for r in rep.rows if r.census_hit}
    expect = {(r.colength, r.h) for r in rep.rows if r.h[1] <= 4}
    assert hit == expect
    _report(8, "staircase census equals the published rows (one known "
               "omission flagged) and the dimension columns match")


def test_criterion_9_property_suites():
    rng = random.Random(SEED)
    for _ in range(100):
        m = DenseMatrix(QQ, fx.random_skew_matrix(rng, 8))
        assert pfaffian(m) ** 2 == determinant(m)
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
                assert delta_ratio(pts, lam, lt, mp, ctx) == -g.terms.get(mp, QQ.zero)
    for I in [i for _, i in fx.graded_143_fixtures()] + [fx.squares_ideal(),
                                                         fx.squares_cube_ideal()]:
        comps = []
        j = 0
        while j <= 10:
            basis = perp(I, j)
            if not basis and j > 0:
                break
            comps.extend(basis)
            j += 1
        assert ideal_equal(ideal_from_inverse_system(comps), I)
    ctx = context(QQ, "x1 x2 x3 x4")
    models = [multiplication_operators(buchberger(fx.seven_quadrics_ideal(4)))]
    pts = fx.random_points(rng.randint(0, 10 ** 9))
    G = points_ideal(pts, ctx)
    models.append(multiplication_operators(G))
    for model in models:
        X = [_field_rows(op, QQ) for op in model.ops]
        for a in range(len(X)):
            for b in range(a + 1, len(X)):
                assert _matmul(X[a], X[b], QQ) == _matmul(X[b], X[a], QQ)
    I = Ideal(ctx, G.elements)
    center = centroid(models[1])
    model2 = multiplication_operators(buchberger(translate_ideal(I, center)))
    assert all(not sum(row[i] for i, row in enumerate(_field_rows(X, QQ)))
               for X in model2.ops)
    _report(9, "pf^2 = det x100, chart coordinates x20 point sets, double "
               "perpendicular, commuting operators, trace-zero recentering")
