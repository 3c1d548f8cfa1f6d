import pathlib
import random
import sys

import pytest

from hilbcheck.errors import PreconditionError
from hilbcheck.fields import GF, QQ, QT
from hilbcheck.fixtures import (bundled_monomial_ideals, degeneration_753,
                                family_limit_ideal, family_member_ideal,
                                monomial_143_ideal,
                                random_invertible_matrix, random_points,
                                salmon_ideal, seven_quadrics_ideal,
                                squares_cube_ideal)
from hilbcheck import apolarity, artin, groebner, linalg, smooth
from hilbcheck.apolarity import perp
from hilbcheck.artin import centroid, multiplication_operators, translate_ideal
from hilbcheck.groebner import Ideal, buchberger, ideal_equal, points_ideal
from hilbcheck.poly import (MonomialOrder, Polynomial, context, parse_ideal_file,
                            parse_polynomial)
from hilbcheck.scalars import rat
from hilbcheck.smooth import (change_coordinates, classify_smoothable,
                              project_to_graded, salmon_turnbull_pfaffian)
from hilbcheck.tangent import tangent_dimension

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "hilbcheck" / "data"


def test_pfaffian_nonzero_on_witness():
    rep = salmon_turnbull_pfaffian(seven_quadrics_ideal(4))
    assert not rep.vanishes
    assert rep.pfaffian_block and rep.pfaffian_intrinsic
    assert rep.block_matrix.nrows == 12
    assert rep.intrinsic_matrix.nrows == 12
    # frozen value under the declared basis normalization
    from hilbcheck.scalars import rat
    assert rep.pfaffian_block == rat(1, 64)


def test_pfaffian_zero_on_salmon_configuration():
    rep = salmon_turnbull_pfaffian(salmon_ideal())
    assert rep.vanishes
    assert not rep.pfaffian_block and not rep.pfaffian_intrinsic


def test_pfaffian_zero_for_three_variable_cubic():
    # a 3-space of dual quadrics using only three of the four variables,
    # fed directly as a quadric space (its ideal has Hilbert function (1,3,3))
    dctx = context(QQ, "x1 x2 x3 x4").dual_context()
    c = parse_polynomial("x1^3 + x2^3 + x3^3 + x1*x2*x3 + x1^2*x2", dctx)
    parts = [c.partial(i) for i in range(3)]
    assert all(m[3] == 0 for q in parts for m in q.terms)
    rep = salmon_turnbull_pfaffian(parts)
    assert rep.vanishes


def test_pfaffian_from_dual_quadrics_directly():
    dctx = context(QQ, "x1 x2 x3 x4").dual_context()
    qs = [parse_polynomial(s, dctx) for s in ("x1*x3", "x2*x4", "x1*x4 - x2*x3")]
    rep = salmon_turnbull_pfaffian(qs)
    assert not rep.vanishes
    with pytest.raises(PreconditionError):
        salmon_turnbull_pfaffian(qs[:2])


def test_pfaffian_block_intrinsic_ratio_constant():
    ratios = set()
    for I in (seven_quadrics_ideal(4), family_member_ideal(1),
              family_member_ideal(3), family_limit_ideal()):
        rep = salmon_turnbull_pfaffian(I)
        assert bool(rep.pfaffian_block) == bool(rep.pfaffian_intrinsic)
        if rep.pfaffian_block:
            ratios.add(repr(rep.ratio()))
    assert len(ratios) == 1


def test_pfaffian_prime_field():
    rep = salmon_turnbull_pfaffian(seven_quadrics_ideal(4, GF(7)))
    assert not rep.vanishes


def test_pfaffian_wrong_hilbert_function():
    with pytest.raises(PreconditionError):
        salmon_turnbull_pfaffian(squares_cube_ideal())


def test_pfaffian_vanishing_invariant_under_coordinate_changes():
    rng = random.Random(50)
    witness = seven_quadrics_ideal(4)
    vanishing = monomial_143_ideal()
    for _ in range(10):
        g = random_invertible_matrix(rng.randint(0, 10 ** 9), 4)
        assert not salmon_turnbull_pfaffian(change_coordinates(witness, g)).vanishes
        g2 = random_invertible_matrix(rng.randint(0, 10 ** 9), 4)
        assert salmon_turnbull_pfaffian(change_coordinates(vanishing, g2)).vanishes


def _random_dual_quadric(dctx, rng):
    field = dctx.field
    terms = {}
    for i in range(4):
        for j in range(i, 4):
            if rng.random() < 0.6:
                m = tuple(int(k == i) + int(k == j) for k in range(4))
                c = field.from_int(rng.randint(-9, 9))
                terms[m] = c + field.t * field.from_int(rng.randint(-2, 2)) if field == QT else c
    return Polynomial(dctx, terms)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7), GF(101), QT],
                         ids=["Q", "F5", "F7", "F101", "Qt"])
def test_intrinsic_matrix_is_the_negated_block_matrix(field):
    rng = random.Random(1515)
    dctx = context(field, "x1 x2 x3 x4").dual_context()
    reports = 0
    for _ in range(12):
        qs = [_random_dual_quadric(dctx, rng) for _ in range(3)]
        if not all(qs):
            continue
        a, b = field.from_int(rng.randint(1, 4)), field.from_int(rng.randint(-4, 4))
        for dependent in ([qs[0], qs[1], qs[0].scale(a) + qs[1].scale(b)],
                          [qs[2], qs[2], qs[0]]):
            with pytest.raises(PreconditionError, match="linearly dependent"):
                salmon_turnbull_pfaffian(dependent)
        try:
            rep = salmon_turnbull_pfaffian(qs)
        except PreconditionError as exc:
            assert "linearly dependent" in str(exc)
            continue
        reports += 1
        block, intrinsic = rep.block_matrix.rows, rep.intrinsic_matrix.rows
        assert all(intrinsic[r][c] == -block[r][c] for r in range(12) for c in range(12))
        assert rep.pfaffian_intrinsic == rep.pfaffian_block
        assert rep.vanishes == (not rep.pfaffian_block)
    assert reports >= 5


def test_pfaffian_reads_the_intrinsic_matrix_off_the_gram_matrices():
    # the intrinsic matrix needs no kernel, echelon span or determinant
    quadrics = perp(seven_quadrics_ideal(4), 2)
    watched = {fn.__code__: fn.__qualname__ for fn in
               (linalg.RowSpace.add, linalg.kernel_basis, linalg.determinant)}
    calls = dict.fromkeys(watched.values(), 0)

    def count(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls[watched[frame.f_code]] += 1

    sys.setprofile(count)
    try:
        rep = salmon_turnbull_pfaffian(quadrics)
    finally:
        sys.setprofile(None)
    assert not rep.vanishes
    assert calls == {"RowSpace.add": 0, "kernel_basis": 0, "determinant": 0}


def test_limit_transforms_to_witness():
    # negating the second variable takes the t = infinity member to the witness
    negate_x2 = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    moved = change_coordinates(family_limit_ideal(), negate_x2)
    assert ideal_equal(moved, seven_quadrics_ideal(4))


def test_change_coordinates_identity_and_errors():
    I = seven_quadrics_ideal(4)
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert ideal_equal(change_coordinates(I, eye), I)
    singular = [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(PreconditionError):
        change_coordinates(I, singular)


def test_project_to_graded_identity_on_homogeneous():
    I = seven_quadrics_ideal(4)
    assert ideal_equal(project_to_graded(I), I)


def test_project_to_graded_of_points():
    rng = random.Random(60)
    ctx = context(QQ, "x1 x2 x3 x4")
    pts = random_points(rng.randint(0, 10 ** 9))
    G = points_ideal(pts, ctx)
    I = Ideal(ctx, G.elements)
    center = centroid(multiplication_operators(G))
    graded = project_to_graded(translate_ideal(I, center))
    gb = buchberger(graded)
    degs = {}
    for m in gb.quotient_basis():
        degs[sum(m)] = degs.get(sum(m), 0) + 1
    assert degs == {0: 1, 1: 4, 2: 3}
    rep = salmon_turnbull_pfaffian(graded)
    assert rep.vanishes


def test_project_to_graded_wrong_hilbert_function():
    ctx = context(QQ, "x1 x2 x3 x4")
    bad = Ideal(ctx, [parse_polynomial(s, ctx) for s in
                      ("x1^2", "x2^2", "x3^2", "x4^2")])
    with pytest.raises(PreconditionError):
        project_to_graded(bad)


def test_classify_witness_not_smoothable():
    for d in (4, 5):
        v = classify_smoothable(seven_quadrics_ideal(d))
        assert v.outcome == "NotSmoothable"
        assert any("(1,4,3)" in e for e in v.evidence)
        assert v.pfaffian
    assert classify_smoothable(family_member_ideal(1)).outcome == "NotSmoothable"


def test_not_smoothable_piece_has_small_tangent_space():
    assert tangent_dimension(seven_quadrics_ideal(4)) < 32


def test_classify_monomial_ideals_smoothable():
    for I in bundled_monomial_ideals():
        assert classify_smoothable(I).outcome == "Smoothable"


def test_classify_monomial_143_smoothable_with_zero_pfaffian():
    v = classify_smoothable(monomial_143_ideal())
    assert v.outcome == "Smoothable"
    assert v.pfaffian is not None and not v.pfaffian


def test_classify_distinct_points():
    rng = random.Random(70)
    ctx = context(QQ, "x1 x2 x3 x4")
    pts = random_points(rng.randint(0, 10 ** 9))
    G = points_ideal(pts, ctx)
    v = classify_smoothable(Ideal(ctx, G.elements))
    assert v.outcome == "Smoothable"
    assert "split into colengths [1, 1, 1, 1, 1, 1, 1, 1]" in v.evidence


def test_classify_degeneration_fixture():
    I, pair, w = degeneration_753()
    assert classify_smoothable(I).outcome == "Smoothable"


def test_classify_invariance_small():
    rng = random.Random(80)
    for _ in range(5):
        g = random_invertible_matrix(rng.randint(0, 10 ** 9), 4)
        assert classify_smoothable(
            change_coordinates(seven_quadrics_ideal(4), g)).outcome == "NotSmoothable"


def test_classify_out_of_range_and_indeterminate():
    ctx = context(QQ, "x y")
    big = Ideal(ctx, [parse_polynomial("x^3", ctx), parse_polynomial("y^3", ctx)])
    with pytest.raises(PreconditionError):
        classify_smoothable(big)    # colength 9
    c1 = context(QQ, "x")
    irr = Ideal(c1, [parse_polynomial("x^2 - 2", c1)])
    v = classify_smoothable(irr)
    assert v.outcome == "Smoothable"
    assert any("support not rational" in e for e in v.evidence)
    # 3 is a square mod 10007: the support is two rational points
    cp = context(GF(10007), "x")
    v = classify_smoothable(Ideal(cp, [parse_polynomial("x^2 - 3", cp)]))
    assert v.outcome == "Smoothable"
    assert v.evidence == ("colength 2", "split into colengths [1, 1]")
    c2 = context(QQ, "x y")
    conj = Ideal(c2, [parse_polynomial(s, c2) for s in ("x^2 - 2", "y^4")])
    v = classify_smoothable(conj)
    assert v.outcome == "Smoothable"
    assert v.evidence == ("colength 8", "splitting failed: support not rational")


@pytest.mark.parametrize("digits", [4, 8, 12])
def test_classify_splits_points_with_large_integer_coordinates(digits):
    # the root search is complete: no coordinate is too large to split
    rng = random.Random(2600 + digits)
    ctx = context(QQ, "x1 x2 x3 x4")
    pts = [tuple(rat(rng.randint(-10 ** digits, 10 ** digits)) for _ in range(4))
           for _ in range(8)]
    v = classify_smoothable(Ideal(ctx, points_ideal(pts, ctx).gens))
    assert v.outcome == "Smoothable"
    assert v.evidence == ("colength 8", "split into colengths [1, 1, 1, 1, 1, 1, 1, 1]")


def test_classify_over_function_field_reports_no_root_search():
    ct = context(QT, "x y")
    v = classify_smoothable(Ideal(ct, [parse_polynomial(s, ct) for s in ("x^2 - 1", "y^2 - 4")]))
    assert v.outcome == "Smoothable"
    assert v.evidence == ("colength 4",
                          "splitting failed: root search is not available over Q(t)")


def test_classify_translated_witness_over_large_prime():
    # a single support point is the centroid, found without root search
    F = GF(10007)
    I = translate_ideal(seven_quadrics_ideal(4, F), [1, 2, 3, 4])
    v = classify_smoothable(I)
    assert v.outcome == "NotSmoothable"
    assert v.evidence[-1] == "pfaffian 3909"
    assert v.pfaffian == F.inv_int(64)


def test_classify_translated_witness():
    # the witness moved away from the origin must classify identically
    I = translate_ideal(seven_quadrics_ideal(4), [1, -2, 3, rat_half()])
    assert classify_smoothable(I).outcome == "NotSmoothable"


def test_classify_dense_five_variable_witness():
    # dense coordinates force nontrivial recentering and embedding reduction
    rng = random.Random(5150)
    g = random_invertible_matrix(rng.randint(0, 10 ** 9), 5)
    I = change_coordinates(seven_quadrics_ideal(5), g)
    from hilbcheck.scalars import rat
    I = translate_ideal(I, [rat(1), rat(-2), rat(1, 2), rat(0), rat(3)])
    v = classify_smoothable(I)
    assert v.outcome == "NotSmoothable"
    assert any("reduced to 4 variables" in e for e in v.evidence)


def rat_half():
    from hilbcheck.scalars import rat
    return rat(1, 2)



def _eight_points_ideal():
    ctx = context(QQ, "x1 x2 x3 x4")
    return Ideal(ctx, points_ideal(random_points(5), ctx).gens)


def _changed_seven_quadrics():
    return change_coordinates(seven_quadrics_ideal(4),
                              random_invertible_matrix(random.Random(3838).randrange(10 ** 9), 4))


@pytest.mark.parametrize("make, outcome, full_runs", [
    (lambda: seven_quadrics_ideal(4), "NotSmoothable", 0),
    (lambda: seven_quadrics_ideal(5), "NotSmoothable", 0),
    (monomial_143_ideal, "Smoothable", 0),
    (_eight_points_ideal, "Smoothable", 0),
    (_changed_seven_quadrics, "NotSmoothable", 1),
], ids=["seven-quadrics-4", "seven-quadrics-5", "monomial-143", "eight-points",
        "changed-seven-quadrics"])
def test_classify_computes_each_groebner_basis_once(monkeypatch, make, outcome, full_runs):
    # every full Buchberger run ends in _reduce_basis; an input that already
    # is a reduced basis is certified by its commuting operators and not
    # recomputed, a basis passed along the pipeline is never recomputed, and
    # one quotient model serves the support, the local Hilbert function and
    # the embedding reduction
    I = make()
    runs = []
    reduce_basis = groebner._reduce_basis
    monkeypatch.setattr(groebner, "_reduce_basis",
                        lambda *args: runs.append(1) or reduce_basis(*args))
    models = []
    build_model = artin.multiplication_operators
    monkeypatch.setattr(artin, "multiplication_operators",
                        lambda G: models.append(1) or build_model(G))
    assert classify_smoothable(I).outcome == outcome
    assert len(runs) == full_runs
    assert len(models) == 1


def test_classify_computes_one_pfaffian(monkeypatch):
    # the decision reads the block Pfaffian only; the intrinsic matrix and
    # its Pfaffian belong to the salmon_turnbull_pfaffian report
    calls = []
    pf = linalg.pfaffian
    monkeypatch.setattr(smooth, "pfaffian", lambda m: calls.append(m.nrows) or pf(m))
    verdict = classify_smoothable(seven_quadrics_ideal(4))
    assert verdict.outcome == "NotSmoothable" and verdict.pfaffian
    assert calls == [12]


def test_classify_orders_the_divisor_terms_once(monkeypatch):
    # a basis orders its divisors' terms once, when it is built, not once
    # per division
    I = seven_quadrics_ideal(4)
    calls = []
    key = MonomialOrder.key
    monkeypatch.setattr(MonomialOrder, "key", lambda self, m: calls.append(1) or key(self, m))
    assert classify_smoothable(I).outcome == "NotSmoothable"
    assert len(calls) <= 300


def _split_colengths(I):
    """Colengths of split_rational_support's pieces, in its order (by point)."""
    return [piece.colength() for _, piece in artin.split_rational_support(I)]


def _colength_samples():
    rng = random.Random(9090)
    out = []
    for field in (QQ, GF(101)):
        ctx = context(field, "x1 x2 x3 x4")
        out.append(Ideal(ctx, points_ideal(
            random_points(rng.randint(0, 10 ** 9), field=field), ctx).gens))
    # colength <= 7 with several points: a local piece beside points
    c3 = context(QQ, "x y z")
    piece = translate_ideal(Ideal(c3, [parse_polynomial(s, c3) for s in
                                       ("x^2", "x*y", "y^2", "z^2", "x*z", "y*z")]),
                            [1, -2, 3])
    for n in (1, 2, 3):
        pts = Ideal(c3, points_ideal(random_points(rng.randint(0, 10 ** 9), n=n, d=3), c3).gens)
        out.append(groebner.intersect(piece, pts))
    # the 5 + 3 mixed case: a colength-5 piece beside 3 points
    c4 = context(QQ, "x1 x2 x3 x4")
    five = translate_ideal(Ideal(c4, [parse_polynomial(s, c4) for s in
                                      ("x1^2", "x1*x2", "x2^2", "x3", "x4^2", "x1*x4")]),
                            [2, 0, -1, 1])
    pts = Ideal(c4, points_ideal(random_points(rng.randint(0, 10 ** 9), n=3), c4).gens)
    out.append(groebner.intersect(five, pts))
    # L = x1 + 2 x2 + 3 x3 + 4 x4 takes one value at two of the points, so
    # its double root is split variable by variable; over Q and over F_101
    for field in (QQ, GF(101)):
        ctx = context(field, "x1 x2 x3 x4")
        pts = random_points(rng.randint(0, 10 ** 9), n=5, field=field)
        two = field.from_int(2)
        pts.append((pts[0][0] + two, pts[0][1] - field.one, pts[0][2], pts[0][3]))
        out.append(Ideal(ctx, points_ideal(pts, ctx).gens))
    return out


def test_classify_colengths_match_split_rational_support():
    seen = set()
    for I in _colength_samples():
        v = classify_smoothable(I)
        colengths = _split_colengths(I)
        seen.add(tuple(colengths))
        assert v.evidence[1] == f"split into colengths {colengths}"
    # the samples cover parts of different sizes, not only points
    assert (1, 1, 1, 1, 1, 1, 1, 1) in seen
    assert any(len(set(c)) > 1 for c in seen)


def test_classify_splits_separated_points_with_one_charpoly(monkeypatch):
    rng = random.Random(9191)
    ctx = context(QQ, "x1 x2 x3 x4")
    while True:
        pts = random_points(rng.randint(0, 10 ** 9))
        if len({sum((i + 1) * c for i, c in enumerate(p)) for p in pts}) == 8:
            break
    I = Ideal(ctx, points_ideal(pts, ctx).gens)
    calls = {"charpoly": 0, "kernel_basis": 0, "cyclic_annihilator_gb": 0}
    for name in calls:
        fn = getattr(artin, name)
        monkeypatch.setattr(artin, name, lambda *a, fn=fn, name=name:
                            calls.__setitem__(name, calls[name] + 1) or fn(*a))
    v = classify_smoothable(I)
    assert v.evidence == ("colength 8", "split into colengths [1, 1, 1, 1, 1, 1, 1, 1]")
    assert calls == {"charpoly": 1, "kernel_basis": 0, "cyclic_annihilator_gb": 0}


def test_classify_builds_no_dense_matrix_in_the_quotient_model(monkeypatch):
    # the model's operators, shifts and splits are all working operators, and
    # the dual quadrics come from working rows: on eight seeded points and on
    # the witness moved to a seeded point, neither artin nor apolarity builds
    # a DenseMatrix; the Pfaffian of the witness still does
    rng = random.Random(9292)
    ctx = context(QQ, "x1 x2 x3 x4")
    points = Ideal(ctx, points_ideal(random_points(rng.randint(0, 10 ** 9)), ctx).gens)
    local = translate_ideal(seven_quadrics_ideal(4), [rng.randint(-5, 5) for _ in range(4)])
    built = []
    init = linalg.DenseMatrix.__init__

    def recorded(self, field, rows):
        built.append(sys._getframe(1).f_globals["__name__"])
        init(self, field, rows)

    monkeypatch.setattr(linalg.DenseMatrix, "__init__", recorded)
    assert classify_smoothable(points).evidence == \
        ("colength 8", "split into colengths [1, 1, 1, 1, 1, 1, 1, 1]")
    assert classify_smoothable(local).outcome == "NotSmoothable"
    assert "hilbcheck.artin" not in built and "hilbcheck.apolarity" not in built
    assert built


@pytest.mark.parametrize("name, reduced", [
    ("family_t1", False), ("monomial_143", False), ("salmon", False),
    ("seven_quadrics_d4", False), ("seven_quadrics_d5", True)])
def test_classify_reads_the_dual_quadrics_off_the_model(monkeypatch, name, reduced):
    # a (1,4,3) piece is decided from its model's products: no second
    # Groebner basis of the piece and no perp of its degree-2 part
    calls = {"cyclic_annihilator_gb": 0, "perp": 0}
    for module, fname in ((artin, "cyclic_annihilator_gb"), (groebner, "cyclic_annihilator_gb"),
                          (apolarity, "perp")):
        fn = getattr(module, fname)
        monkeypatch.setattr(module, fname, lambda *a, fn=fn, fname=fname:
                            calls.__setitem__(fname, calls[fname] + 1) or fn(*a))
    ctx, polys = parse_ideal_file((DATA / f"{name}.ideal").read_text())
    v = classify_smoothable(Ideal(ctx, polys))
    assert v.evidence[3] == "local Hilbert function (1,4,3)"
    assert ("reduced to 4 variables" in v.evidence) == reduced
    assert calls == {"cyclic_annihilator_gb": 0, "perp": 0}


def test_classify_computes_the_linear_forms_charpoly_once(monkeypatch):
    # L has one root of multiplicity 7 here: its eigenspaces come from the
    # roots of the shortcut, and the d = 3 variables take one charpoly each
    ctx, polys = parse_ideal_file((DATA / "squares_cube_d3.ideal").read_text())
    calls = []
    charpoly = artin.charpoly
    monkeypatch.setattr(artin, "charpoly",
                        lambda op, field: calls.append(len(op[0])) or charpoly(op, field))
    v = classify_smoothable(Ideal(ctx, polys))
    assert v.evidence == ("colength 7", "split into colengths [7]")
    assert calls == [7] * 4


def test_project_to_graded_builds_one_quotient_model(monkeypatch):
    calls = []
    build = artin.multiplication_operators
    monkeypatch.setattr(artin, "multiplication_operators", lambda G: calls.append(1) or build(G))
    I = seven_quadrics_ideal(4)
    assert ideal_equal(project_to_graded(I), I)
    assert calls == [1]


@pytest.mark.parametrize("field", [QQ, GF(101), GF(7), QT], ids=str)
def test_block_pfaffian_is_covariant(field):
    # g in GL_4 acts on each Gram matrix by A -> g^T A g, that is on each dual
    # quadric by Q(y) -> Q(g y), and h in GL_3 mixes the three quadrics.  The
    # block matrix is sum_k F_k (x) A_k with F_k the 3 x 3 skew blocks, and
    # pf(P^T B P) = det(P) pf(B), so pf(h.(g.Q)) = det(g)^3 det(h)^2 pf(Q).
    # Unlike the verdict, this pins the Pfaffian's value.
    rng = random.Random(2203 + (field.modulus or 0))
    dctx = context(field, "x1 x2 x3 x4").dual_context()
    ys = dctx.variables()
    nonzero = 0
    for _ in range(14):
        qs = [_random_dual_quadric(dctx, rng) for _ in range(3)]
        g = random_invertible_matrix(rng.randrange(10 ** 9), 4, field)
        h = random_invertible_matrix(rng.randrange(10 ** 9), 3, field)
        try:
            pf = salmon_turnbull_pfaffian(qs).pfaffian_block
        except PreconditionError as exc:
            assert "linearly dependent" in str(exc) or "nonzero quadrics" in str(exc)
            continue
        images = [sum((ys[j].scale(g[i][j]) for j in range(4)), dctx.zero()) for i in range(4)]
        moved = [q.substitute(images) for q in qs]
        mixed = [sum((moved[l].scale(h[k][l]) for l in range(3)), dctx.zero()) for k in range(3)]
        det_g = linalg.determinant(linalg.DenseMatrix(field, g))
        det_h = linalg.determinant(linalg.DenseMatrix(field, h))
        assert salmon_turnbull_pfaffian(mixed).pfaffian_block == det_g ** 3 * det_h ** 2 * pf
        nonzero += bool(pf)
    assert nonzero >= 8


def test_classify_makes_few_fractions_on_the_bundled_witness(monkeypatch):
    # the local decision runs in working integers: the Fraction objects left
    # are the centroid, the reduced bases' coefficients, the dual quadrics,
    # the Gram and block matrices and the verdict's Pfaffian
    import fractions
    from hilbcheck import scalars
    if scalars.RAT_BACKEND != "fractions":
        pytest.skip("counts Fraction objects of the fractions backend")
    ctx, polys = parse_ideal_file((DATA / "seven_quadrics_d4.ideal").read_text())
    I = Ideal(ctx, polys)
    made = []
    new = fractions.Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counted)
    verdict = classify_smoothable(I)
    monkeypatch.undo()
    assert verdict.outcome == "NotSmoothable"
    assert verdict.evidence[-1] == "pfaffian 1/64"
    assert len(made) <= 300     # 243; 1,615 with the Fraction echelon, chain and Pfaffian


def _verdict_or_error(I):
    try:
        v = classify_smoothable(I)
    except PreconditionError as exc:
        return str(exc)
    return v.outcome, v.evidence, v.pfaffian


def _field_rows(op, field):
    """The rows of field elements of the working operator op = (rows, den)."""
    rows, den = op
    if field.modulus is None:
        return rows
    return [[field.element(x, den) for x in row] for row in rows]


def _model_or_error(make):
    try:
        G, model = make()
    except PreconditionError as exc:
        return str(exc)
    return G.gens, model.qb.monomials, [_field_rows(X, G.ctx.field) for X in model.ops]


def _perturbed_points_bases():
    # a points basis with one tail coefficient moved: the shape of a reduced
    # basis, the same staircase, and operators that do not commute
    rng = random.Random(4747)
    out = []
    for field in (QQ, GF(101)):
        ctx = context(field, "x1 x2 x3 x4")
        for _ in range(6):
            gens = list(points_ideal(random_points(rng.randrange(10 ** 9), field=field), ctx).gens)
            k = rng.randrange(len(gens))
            terms = dict(gens[k].terms)
            m = rng.choice([m for m in terms if m != gens[k].lm()])
            terms[m] = terms[m] + field.from_int(rng.randint(1, 5))
            gens[k] = Polynomial(ctx, terms)
            out.append(Ideal(ctx, gens))
    return out


def test_certificate_refuses_a_reduced_shape_that_is_not_a_basis(monkeypatch):
    colengths = set()
    for I in _perturbed_points_bases():
        candidate = groebner._reduced_candidate(I.ctx, groebner.GREVLEX,
                                                groebner._input_records(I, groebner.GREVLEX))
        assert not artin._commuting(multiplication_operators(candidate))
        B = buchberger(I)
        colengths.add(B.colength())
        certified = _model_or_error(lambda: artin.quotient_model(I))
        assert certified == _model_or_error(lambda: (B, multiplication_operators(B)))
        verdict = _verdict_or_error(I)
        with monkeypatch.context() as m:
            # the path with no certificate: every input goes to buchberger
            m.setattr(artin, "_reduced_candidate", lambda *args: None)
            assert _verdict_or_error(I) == verdict
    # the samples reach the unit ideal and proper quotients
    assert 0 in colengths and max(colengths) > 0


def test_certificate_accepts_reduced_bases(monkeypatch):
    rng = random.Random(4848)
    inputs = []
    for field in (QQ, GF(101)):
        ctx = context(field, "x1 x2 x3 x4")
        for _ in range(3):
            inputs.append(Ideal(ctx, points_ideal(
                random_points(rng.randrange(10 ** 9), field=field), ctx).gens))
    for name in ("family_t1", "monomial_143", "pencil_deg8", "seven_quadrics_d4",
                 "seven_quadrics_d5", "squares_cube_d3", "squares_d3"):
        ctx, polys = parse_ideal_file((DATA / f"{name}.ideal").read_text())
        inputs.append(Ideal(ctx, polys))
    runs = []
    complete = artin._complete
    monkeypatch.setattr(artin, "_complete", lambda *args: runs.append(1) or complete(*args))
    for I in inputs:
        B = buchberger(I)
        assert _model_or_error(lambda: artin.quotient_model(I)) == \
            _model_or_error(lambda: (B, multiplication_operators(B)))
    assert runs == []


def _colliding_points(rng, field, step):
    """Eight points, the last one the first moved by step."""
    pts = random_points(rng.randint(0, 10 ** 9), n=7, field=field)
    moved = tuple(c + field.from_int(s) for c, s in zip(pts[0], step))
    assert moved not in pts
    return pts + [moved]


def test_a_second_form_separates_points_that_l_does_not(monkeypatch):
    # (2, -1, 0, 0) keeps L = x1 + 2 x2 + 3 x3 + 4 x4 and moves
    # L' = x1 + 3 x2 + 9 x3 + 27 x4: where L' separates the eight points, it
    # alone splits them
    rng = random.Random(6161)
    calls = {"charpoly": 0, "kernel_basis": 0}
    for name in calls:
        fn = getattr(artin, name)
        monkeypatch.setattr(artin, name, lambda *a, fn=fn, name=name:
                            calls.__setitem__(name, calls[name] + 1) or fn(*a))
    for field in (QQ, GF(101)):
        ctx = context(field, "x1 x2 x3 x4")
        weights = [field.from_int(3 ** i) for i in range(4)]
        for _ in range(3):
            while True:
                pts = _colliding_points(rng, field, (2, -1, 0, 0))
                if len({repr(sum((w * c for w, c in zip(weights, p)), field.zero))
                        for p in pts}) == 8:
                    break
            _, model = artin.quotient_model(Ideal(ctx, points_ideal(pts, ctx).gens))
            calls.update(charpoly=0, kernel_basis=0)
            assert artin.support_colengths(model) == [1] * 8
            assert calls == {"charpoly": 2, "kernel_basis": 0}


def test_colengths_past_both_forms_match_split_rational_support():
    # (9, -6, 1, 0) keeps both L and L', so the variables refine L's
    # eigenspaces; and a fat point beside points repeats both forms' values
    rng = random.Random(6262)
    samples = []
    for field in (QQ, GF(101)):
        ctx = context(field, "x1 x2 x3 x4")
        for _ in range(2):
            pts = _colliding_points(rng, field, (9, -6, 1, 0))
            samples.append(Ideal(ctx, points_ideal(pts, ctx).gens))
    c4 = context(QQ, "x1 x2 x3 x4")
    fat = translate_ideal(Ideal(c4, [parse_polynomial(s, c4) for s in
                                     ("x1^2", "x1*x2", "x2^2", "x3", "x4")]), [1, 1, 0, 2])
    for n in (2, 5):
        pts = Ideal(c4, points_ideal(random_points(rng.randint(0, 10 ** 9), n=n), c4).gens)
        samples.append(groebner.intersect(fat, pts))
    seen = set()
    for I in samples:
        _, model = artin.quotient_model(I)
        colengths = artin.support_colengths(model)
        assert colengths == _split_colengths(I)
        seen.add(tuple(sorted(colengths)))
    assert seen == {(1,) * 8, (1, 1, 3), (1, 1, 1, 1, 1, 3)}
