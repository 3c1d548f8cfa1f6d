"""Randomized cross-validations between independently implemented layers:
the skew-form criterion, the 24 x 24 syzygy reduction, the classifier, and
the splitting machinery must tell one consistent story."""

import pathlib
import random

import pytest

from hilbcheck.fields import GF, QQ
from hilbcheck.fixtures import (graded_143_fixtures, monomial_143_ideal,
                                random_invertible_matrix, random_points, salmon_ideal,
                                seven_quadrics_ideal)
from hilbcheck.apolarity import ideal_from_inverse_system, perp
from hilbcheck.artin import (embedding_reduction,
                             local_hilbert_function, split_rational_support,
                             translate_ideal)
from hilbcheck.groebner import Ideal, buchberger, ideal_equal, intersect, points_ideal
from hilbcheck.linalg import determinant, mat_rank
from hilbcheck.poly import Polynomial, context, parse_ideal_file
from hilbcheck.scalars import rat
from hilbcheck.smooth import (change_coordinates, classify_smoothable,
                              salmon_turnbull_pfaffian)
from hilbcheck.tangent import build_tangent_machine, family_machine, tangent_dimension


def random_quadric_span_ideal(rng, ctx):
    """A (1,4,3) ideal from a random 7-dimensional span of quadrics, or None
    when the draw is degenerate."""
    from hilbcheck.groebner import _monomials_of_degree
    deg2 = list(_monomials_of_degree(4, 2))
    gens = []
    for _ in range(7):
        terms = {m: rat(rng.randint(-3, 3)) for m in deg2}
        p = Polynomial(ctx, {m: c for m, c in terms.items() if c})
        if p:
            gens.append(p)
    gens += [ctx.monomial(m) for m in _monomials_of_degree(4, 3)]
    I = Ideal(ctx, gens)
    G = buchberger(I)
    if G.colength() != 8:
        return None
    from hilbcheck.artin import local_hilbert_function
    if tuple(local_hilbert_function(G)) != (1, 4, 3):
        return None
    return Ideal(ctx, G.elements)


def random_salmon_ideal(rng, dctx):
    """Apolar ideal of three partials of a random cubic, or None when the
    partials fail to span a 3-space with Hilbert function (1,4,3)."""
    from hilbcheck.groebner import _monomials_of_degree
    deg3 = list(_monomials_of_degree(4, 3))
    terms = {m: rat(rng.randint(-2, 2)) for m in deg3}
    c = Polynomial(dctx, {m: x for m, x in terms.items() if x})
    if not c:
        return None
    parts = [c.partial(i) for i in range(3)]
    if any(not p for p in parts):
        return None
    I = ideal_from_inverse_system(parts)
    from hilbcheck.artin import local_hilbert_function
    try:
        hf = local_hilbert_function(I)
    except Exception:
        return None
    if tuple(hf) != (1, 4, 3):
        return None
    return I


def test_pfaffian_determinant_and_classifier_agree():
    """det(hbar) = 0, the skew-form Pfaffian = 0, and the Smoothable verdict
    coincide on ideals generated in degree 2."""
    rng = random.Random(314)
    ctx = context(QQ, "x1 x2 x3 x4")
    dctx = ctx.dual_context()
    samples = []
    while len(samples) < 6:
        I = random_quadric_span_ideal(rng, ctx)
        if I is not None:
            samples.append(I)
    while len(samples) < 10:
        I = random_salmon_ideal(rng, dctx)
        if I is not None:
            samples.append(I)
    for I in samples:
        rep = salmon_turnbull_pfaffian(I)
        verdict = classify_smoothable(I)
        assert (verdict.outcome == "Smoothable") == rep.vanishes
        assert verdict.pfaffian == rep.pfaffian_block
        try:
            machine = build_tangent_machine(I)
        except Exception:
            continue
        assert bool(determinant(machine.hbar)) == bool(rep.pfaffian_block)
        assert machine.singular == rep.vanishes
        # the second component has dimension 25 at its smooth points
        if not rep.vanishes:
            assert tangent_dimension(I) == 25


def test_split_of_composite_supports():
    rng = random.Random(315)
    ctx = context(QQ, "x y z")
    local = Ideal(ctx, [ctx.monomial((2, 0, 0)), ctx.monomial((0, 2, 0)),
                        ctx.monomial((1, 1, 0)), ctx.monomial((0, 0, 1))])
    for _ in range(4):
        pts = random_points(rng.randint(0, 10 ** 9), n=3, d=3)
        if any(all(not c for c in q) for q in pts):
            continue
        I = intersect(Ideal(ctx, points_ideal(pts, ctx).elements), local)
        pieces = split_rational_support(I)
        assert sorted(buchberger(p).colength() for _, p in pieces) == [1, 1, 1, 3]
        back = None
        for _, p in pieces:
            back = p if back is None else intersect(back, p)
        assert ideal_equal(back, I)
        # pairwise coprime: the sum of any two pieces is the unit ideal
        for a in range(len(pieces)):
            for b in range(a + 1, len(pieces)):
                both = Ideal(ctx, list(pieces[a][1].gens) + list(pieces[b][1].gens))
                assert not buchberger(both).normal_form(ctx.one())
        assert classify_smoothable(I).outcome == "Smoothable"


def test_classifier_prime_field():
    from hilbcheck.fixtures import seven_quadrics_ideal, monomial_143_ideal
    for p in (5, 7):
        assert classify_smoothable(seven_quadrics_ideal(4, GF(p))).outcome == \
            "NotSmoothable"
        assert classify_smoothable(monomial_143_ideal(GF(p))).outcome == "Smoothable"


def split_reference(I):
    """(outcome, evidence, pfaffian) by splitting over rational support and
    recentring each colength-8 piece, through the public functions only."""
    G = buchberger(I)
    evidence = [f"colength {G.colength()}"]
    pieces = split_rational_support(G)
    evidence.append("split into colengths " + str([p.colength() for _, p in pieces]))
    pf = None
    for point, piece in pieces:
        if piece.colength() <= 7:
            continue
        local = buchberger(translate_ideal(piece, point))
        evidence.append("recentered colength-8 piece")
        hf = local_hilbert_function(local)
        evidence.append(f"local Hilbert function {hf}")
        if tuple(hf) != (1, 4, 3):
            continue
        reduced = embedding_reduction(local)
        if reduced.ctx != local.ctx:
            evidence.append("reduced to 4 variables")
        rep = salmon_turnbull_pfaffian(perp(reduced, 2))
        pf = rep.pfaffian_block
        evidence.append("pfaffian zero" if rep.vanishes else f"pfaffian {pf}")
        if not rep.vanishes:
            return "NotSmoothable", tuple(evidence), pf
    return "Smoothable", tuple(evidence), pf


def _moved(I, rng):
    """I under a seeded GL_4 change and a seeded rational translation."""
    g = random_invertible_matrix(rng.randint(0, 10 ** 9), 4)
    point = [rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
    return translate_ideal(change_coordinates(I, g), point)


def test_classifier_agrees_with_split_reference():
    """The classifier, which splits only to report, gives the outcome,
    evidence and Pfaffian of the split-and-recentre reference on random
    colength-8 ideals: 8 points, moved (1,4,3) pieces, and a moved
    colength-5 piece beside 3 points."""
    rng = random.Random(316)
    ctx = context(QQ, "x1 x2 x3 x4")
    dctx = ctx.dual_context()
    samples = [Ideal(ctx, points_ideal(random_points(rng.randint(0, 10 ** 9)), ctx).gens)
               for _ in range(2)]
    for make, arg, count in ((random_quadric_span_ideal, ctx, 3),
                             (random_salmon_ideal, dctx, 3)):
        drawn = 0
        while drawn < count:
            I = make(rng, arg)
            if I is not None:
                samples.append(_moved(I, rng))
                drawn += 1
    while len(samples) < 10:
        # apolar ideal of a quadric in three variables: Hilbert function (1,3,1)
        q = {m: rat(rng.randint(-2, 2)) for m in ((2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0),
                                                   (0, 1, 1, 0), (0, 0, 2, 0))}
        quadric = Polynomial(dctx, {m: c for m, c in q.items() if c})
        if not quadric:
            continue
        piece = _moved(ideal_from_inverse_system([quadric]), rng)
        pts = Ideal(ctx, points_ideal(random_points(rng.randint(0, 10 ** 9), n=3), ctx).gens)
        I = intersect(piece, pts)
        if buchberger(I).colength() == 8:
            samples.append(I)
    for I in samples:
        verdict = classify_smoothable(I)
        assert (verdict.outcome, verdict.evidence, verdict.pfaffian) == split_reference(I)


@pytest.mark.parametrize("field", [QQ, GF(101), GF(10007)], ids=str)
def test_classifier_agrees_with_split_reference_on_moved_witnesses(field):
    """The same agreement on the seven-quadrics witness in 5 and 6
    variables, which the classifier reduces to 4, as it is, under a seeded
    GL_d change, and under a change and a seeded translation."""
    rng = random.Random(317)
    for d in (5, 6):
        witness = seven_quadrics_ideal(d, field)
        g, h = (random_invertible_matrix(rng.randint(0, 10 ** 9), d, field) for _ in range(2))
        point = [field.from_int(rng.randint(-4, 4)) * field.inv_int(rng.randint(1, 3))
                 for _ in range(d)]
        for I in (witness, change_coordinates(witness, g),
                  translate_ideal(change_coordinates(witness, h), point)):
            verdict = classify_smoothable(I)
            assert verdict.outcome == "NotSmoothable"
            assert "reduced to 4 variables" in verdict.evidence
            assert (verdict.outcome, verdict.evidence, verdict.pfaffian) == split_reference(I)


def _classify_inputs():
    """The nine bundled ideal files and one seeded round of each classify
    stratum: 8 rational points, the seven quadrics and the monomial (1,4,3)
    ideal under GL_4, and a translated apolar ideal of cubic partials."""
    data = pathlib.Path(__file__).resolve().parent.parent / "src" / "hilbcheck" / "data"
    out = []
    for path in sorted(data.glob("*.ideal")):
        ctx, polys = parse_ideal_file(path.read_text())
        out.append((path.name, Ideal(ctx, polys)))
    rng = random.Random(1819)
    ctx = context(QQ, "x1 x2 x3 x4")
    out.append(("points", Ideal(ctx, points_ideal(random_points(rng.randint(0, 10 ** 9)),
                                                  ctx).gens)))
    for name, I in (("witness", seven_quadrics_ideal(4)), ("monomial143", monomial_143_ideal())):
        out.append((name, change_coordinates(I, random_invertible_matrix(
            rng.randint(0, 10 ** 9), 4))))
    while True:
        I = random_salmon_ideal(rng, ctx.dual_context())
        if I is not None:
            break
    point = [rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
    out.append(("cubic", translate_ideal(I, point)))
    return out


def test_verdict_and_tangent_dimension_agree():
    """At colength 8 in d variables the smoothable component has dimension
    8d and every component at least 8d - 7: a Smoothable verdict needs
    T >= 8d for the tangent dimension T, and T >= 8d - 7 always."""
    samples = _classify_inputs()
    assert len(samples) == 13
    outcomes = set()
    for name, I in samples:
        if buchberger(I).colength() != 8:
            continue
        d = I.ctx.d
        T = tangent_dimension(I)
        verdict = classify_smoothable(I)
        outcomes.add(verdict.outcome)
        assert T >= 8 * d - 7, name
        if verdict.outcome == "Smoothable":
            assert T >= 8 * d, name
        if T < 8 * d:
            assert verdict.outcome == "NotSmoothable", name
    assert outcomes == {"Smoothable", "NotSmoothable"}


def test_verdict_and_tangent_dimension_agree_over_a_prime_field():
    """The same bounds over F_10007, on 8 seeded points, the witness and the
    monomial (1,4,3) ideal under seeded GL_4 changes, and 4 seeded points
    with a local ideal of colength 4 translated off the origin."""
    field = GF(10007)
    rng = random.Random(4002)
    ctx = context(field, "x1 x2 x3 x4")

    def points(n):
        return Ideal(ctx, points_ideal(random_points(rng.randint(0, 10 ** 9), n=n, field=field),
                                       ctx).gens)

    samples = [("points", points(8))]
    for name, I in (("witness", seven_quadrics_ideal(4, field)),
                    ("monomial143", monomial_143_ideal(field))):
        samples.append((name, change_coordinates(I, random_invertible_matrix(
            rng.randint(0, 10 ** 9), 4, field))))
    local = Ideal(ctx, [ctx.monomial(m) for m in ((2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0),
                                                   (0, 0, 2, 0), (1, 0, 1, 0), (0, 1, 1, 0),
                                                   (0, 0, 0, 1))])
    point = [field.from_int(rng.randint(-5, 5)) for _ in range(4)]
    samples.append(("mixed", intersect(points(4), translate_ideal(local, point))))
    outcomes = set()
    for name, I in samples:
        assert buchberger(I).colength() == 8, name
        T = tangent_dimension(I)
        verdict = classify_smoothable(I)
        outcomes.add(verdict.outcome)
        assert T >= 8 * 4 - 7, name
        if verdict.outcome == "Smoothable":
            assert T >= 8 * 4, name
        if T < 8 * 4:
            assert verdict.outcome == "NotSmoothable", name
    assert outcomes == {"Smoothable", "NotSmoothable"}


def _random_staircase(rng, d, n, field=QQ):
    """The monomial ideal over field whose standard monomials are a random
    order ideal of n monomials in d variables: each step adds a monomial all
    of whose divisors are already in."""
    inside = {(0,) * d}

    def border():
        # the monomials outside all of whose divisors are inside: the
        # candidates for the next step, and the ideal's minimal generators
        up = {m[:k] + (m[k] + 1,) + m[k + 1:] for m in inside for k in range(d)} - inside
        return sorted(m for m in up if all(m[:k] + (m[k] - 1,) + m[k + 1:] in inside
                                           for k in range(d) if m[k]))

    while len(inside) < n:
        inside.add(rng.choice(border()))
    ctx = context(field, " ".join(f"x{i + 1}" for i in range(d)))
    return Ideal(ctx, [ctx.monomial(m) for m in border()])


def test_colength_at_most_seven_is_smoothable_with_large_tangent_space():
    """For n <= 7 every ideal of colength n is a limit of n distinct points,
    so it is classified Smoothable and its tangent dimension is at least
    n d, the dimension of the smoothable component."""
    rng = random.Random(2503)
    samples = []
    for d, n in [(d, n) for d in (3, 4) for n in range(3, 8)] * 2:
        I = _random_staircase(rng, d, n)
        I = change_coordinates(I, random_invertible_matrix(rng.randint(0, 10 ** 9), d))
        point = [rat(rng.randint(-2, 2)) for _ in range(d)]
        samples.append((n, translate_ideal(I, point)))
    # mixed support: points and one local piece at the origin
    for d, npoints, n in ((3, 2, 3), (3, 1, 4), (4, 3, 3)):
        local = _random_staircase(rng, d, n)
        points = Ideal(local.ctx, points_ideal(
            random_points(rng.randint(0, 10 ** 9), npoints, d), local.ctx).gens)
        samples.append((n + npoints, intersect(local, points)))
    for n, I in samples:
        assert buchberger(I).colength() == n
        assert classify_smoothable(I).outcome == "Smoothable"
        assert tangent_dimension(I) >= n * I.ctx.d, (n, I)


def test_colength_at_most_seven_is_smoothable_with_large_tangent_space_over_a_prime_field():
    """The same over F_10007: seeded staircases under a GL_d change and a
    translation, and points beside a local piece, all over F_10007."""
    field = GF(10007)
    rng = random.Random(2504)
    samples = []
    for d, n in [(d, n) for d in (3, 4) for n in range(3, 8)] * 2:
        I = _random_staircase(rng, d, n, field)
        I = change_coordinates(I, random_invertible_matrix(rng.randint(0, 10 ** 9), d, field))
        point = [field.from_int(rng.randint(-2, 2)) for _ in range(d)]
        samples.append((n, translate_ideal(I, point)))
    for d, npoints, n in ((3, 2, 3), (3, 1, 4), (4, 3, 3)):
        local = _random_staircase(rng, d, n, field)
        points = Ideal(local.ctx, points_ideal(
            random_points(rng.randint(0, 10 ** 9), npoints, d, field=field), local.ctx).gens)
        samples.append((n + npoints, intersect(local, points)))
    assert len(samples) == 23
    for n, I in samples:
        assert I.ctx.field == field
        assert buchberger(I).colength() == n
        assert classify_smoothable(I).outcome == "Smoothable"
        assert tangent_dimension(I) >= n * I.ctx.d, (n, I)


def _machines():
    """54 (1,4,3) machines: the graded fixtures and salmon over Q, F_101 and
    F_7, each also under a seeded GL_4 change; the family at t = None, 0, 1,
    2, 3 and -1; and 12 seeded quadric-span ideals."""
    out = []
    for field in (QQ, GF(101), GF(7)):
        ideals = [I for _, I in graded_143_fixtures(field)] + [salmon_ideal(field)]
        rng = random.Random(2718)
        ideals += [change_coordinates(I, random_invertible_matrix(rng.randint(0, 10 ** 9), 4, field))
                   for I in ideals]
        out += [build_tangent_machine(I) for I in ideals]
    out += [family_machine(tval) for tval in (None, 0, 1, 2, 3, -1)]
    rng = random.Random(314)
    ctx = context(QQ, "x1 x2 x3 x4")
    spans = []
    while len(spans) < 12:
        I = random_quadric_span_ideal(rng, ctx)
        if I is not None:
            spans.append(I)
    return out + [build_tangent_machine(I) for I in spans]


def test_hbar_corank_is_read_off_the_rank_of_psi():
    # hbar keeps the columns of psi off the derivative columns' pivots, and
    # each dropped column is a combination of the kept ones: the rank of
    # hbar is that of psi, so no second rank is needed
    machines = _machines()
    assert len(machines) == 54 and {m.singular for m in machines} == {False, True}
    for m in machines:
        assert m.corank_hbar == m.hbar.ncols - mat_rank(m.hbar)
        assert m.singular == (m.corank_hbar > 0)
