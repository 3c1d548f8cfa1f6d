import random

import pytest

from hilbcheck.artin import embedding_reduction, split_rational_support
from hilbcheck.errors import InfiniteColengthError, PreconditionError
from hilbcheck.fields import GF, QQ, QT
from hilbcheck.fixtures import (degeneration_753, degeneration_axis_weight,
                                degeneration_chain, degeneration_cubic_pair,
                                degeneration_pencil_deg8,
                                degeneration_square_pair,
                                degeneration_two_quadrics, random_invertible_matrix,
                                random_points, salmon_ideal, seven_quadrics_ideal)
from hilbcheck import groebner
from hilbcheck.groebner import (Ideal, SyzygyBasis, _divide, _division_record,
                                _field_terms, _monomials_of_degree, _working_terms,
                                buchberger, delta_ratio, ideal_equal, initial_ideal,
                                intersect, linear_syzygies, points_ideal,
                                schreyer_syzygies)
from hilbcheck.linalg import RowSpace
from hilbcheck.poly import (GREVLEX, LEX, MonomialOrder, Polynomial, context,
                            mono_divides, parse_ideal_file, parse_polynomial, weight_order)
from hilbcheck.scalars import rat
from hilbcheck.smooth import change_coordinates


def P(s, ctx):
    return parse_polynomial(s, ctx)


def monic(g, order):
    """g divided by its leading coefficient in the order."""
    return g.scale(g.ctx.field.one / g.terms[g.lm(order)])


def ideal(ctx, *texts):
    return Ideal(ctx, [P(s, ctx) for s in texts])


def test_buchberger_trivial():
    c1 = context(QQ, "x")
    G = buchberger(ideal(c1, "x - 1"))
    assert [str(g) for g in G.elements] == ["x - 1"]
    c2 = context(QQ, "x y")
    G2 = buchberger(ideal(c2, "x^2", "x*y", "y^2"))
    assert len(G2.elements) == 3
    assert G2.colength() == 3


def test_buchberger_pencil_colength_8():
    I, J, (J1, J2), w = degeneration_pencil_deg8()
    assert buchberger(J).colength() == 8
    assert buchberger(J1).colength() == 3
    assert buchberger(J2).colength() == 5


def test_colength_limit_stops_counting_and_caches_only_complete_bases():
    c2 = context(QQ, "x y")
    G = buchberger(ideal(c2, "x^5", "y^4"))
    assert G.colength(limit=9) == 9
    assert G._qb is None
    assert G.colength() == 20
    H = buchberger(ideal(c2, "x^2", "y^3"))
    assert H.colength(limit=9) == 6
    assert len(H._qb) == 6
    assert G.colength(limit=9) == 20


def test_quotient_basis_examples():
    c2 = context(QQ, "x y")
    assert list(buchberger(ideal(c2, "x", "y")).quotient_basis()) == [(0, 0)]
    qb = buchberger(ideal(c2, "x^2", "y^2")).quotient_basis()
    assert set(qb) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert buchberger(seven_quadrics_ideal(4)).colength() == 8
    c3 = context(QQ, "x y z")
    with pytest.raises(InfiniteColengthError):
        buchberger(ideal(c3, "x^2", "y^2")).quotient_basis()


def test_normal_form_membership_property():
    rng = random.Random(21)
    ctx = context(QQ, "x y z")
    I = ideal(ctx, "x^2 - y", "y^2 - z", "z^2")
    G = buchberger(I)
    for _ in range(15):
        f = ctx.zero()
        for g in I.gens:
            coeffs = {tuple(rng.randint(0, 2) for _ in range(3)): rat(rng.randint(-3, 3))
                      for _ in range(2)}
            mult = type(f)(ctx, {m: c for m, c in coeffs.items() if c})
            f = f + mult * g
        assert not G.normal_form(f)
    assert G.normal_form(P("x", ctx))           # x is not a member
    assert not G.normal_form(P("x^2 - y", ctx))


def test_ideal_equal():
    ctx = context(QQ, "x y")
    assert ideal_equal(ideal(ctx, "x", "y"), ideal(ctx, "y", "x"))
    assert not ideal_equal(ideal(ctx, "x"), ideal(ctx, "x^2"))


def test_intersect_examples():
    ctx = context(QQ, "x y")
    I = ideal(ctx, "x")
    Jy = ideal(ctx, "y")
    assert ideal_equal(intersect(I, Jy), ideal(ctx, "x*y"))
    assert ideal_equal(intersect(I, I), I)
    # containment by membership and colength additivity for disjoint points
    A = ideal(ctx, "x", "y")
    B = ideal(ctx, "x - 1", "y - 2")
    C = intersect(A, B)
    GA, GB, GC = buchberger(A), buchberger(B), buchberger(C)
    for g in C.gens:
        assert not GA.normal_form(g) and not GB.normal_form(g)
    assert GC.colength() == GA.colength() + GB.colength()


def test_intersection_identity_pencil():
    I, J, (J1, J2), w = degeneration_pencil_deg8()
    assert ideal_equal(intersect(J1, J2), J)


def test_initial_ideal_identities():
    I, J, pair, w = degeneration_pencil_deg8()
    assert ideal_equal(initial_ideal(J, w), I)
    I, (J1, J2), w = degeneration_axis_weight()
    assert ideal_equal(initial_ideal(intersect(J1, J2), w), I)
    I, (J1, J2), w = degeneration_753()
    assert ideal_equal(initial_ideal(intersect(J1, J2), w), I)


def test_initial_753_printed_form_needs_sign_change():
    # with the cubic tail as x*y - z^3 the limit is the y -> -y image of the
    # target, so the two printed sides differ exactly by that relabeling
    ctx = context(QQ, "x y z")
    J1 = ideal(ctx, "x", "y", "z - 1")
    J2_printed = ideal(ctx, "x^2", "x*y - z^3", "y^2 - x*z", "y*z")
    got = initial_ideal(intersect(J1, J2_printed), (7, 5, 3))
    target = ideal(ctx, "x^2", "x*y - z^4", "y^2 - x*z", "y*z")
    flipped = ideal(ctx, "x^2", "x*y + z^4", "y^2 - x*z", "y*z")
    assert not ideal_equal(got, target)
    assert ideal_equal(got, flipped)


def test_initial_ideal_chain_and_strata():
    for d, m in ((2, 3), (3, 3), (3, 4)):
        I, J, (J1, J2), w = degeneration_chain(d, m)
        assert ideal_equal(intersect(J1, J2), J)
        assert ideal_equal(initial_ideal(J, w), I)
    for I, (J1, J2), w in (degeneration_two_quadrics(),
                           degeneration_cubic_pair(),
                           degeneration_square_pair()):
        assert ideal_equal(initial_ideal(intersect(J1, J2), w), I)


def test_initial_ideal_monomial_fixed_point():
    ctx = context(QQ, "x y z")
    I = ideal(ctx, "x^2", "y^3", "x*z")
    for w in ((1, 1, 1), (1, 0, 0), (5, 2, 7)):
        assert ideal_equal(initial_ideal(I, w), I)


def test_initial_ideal_negative_weights():
    ctx = context(QQ, "x y")
    # x - y^2 cuts a parabola; at the origin the lowest forms start with x
    I = ideal(ctx, "x - y^2", "y^3")
    gr = initial_ideal(I, (-1, -1))
    assert ideal_equal(gr, ideal(ctx, "x", "y^3"))
    J = ideal(ctx, "x^2 - x")   # not primary at the origin
    with pytest.raises(PreconditionError):
        initial_ideal(J, (-1, -1))


def test_initial_ideal_negative_weights_vs_local_hf():
    from hilbcheck.artin import local_hilbert_function
    ctx = context(QQ, "x y z")
    I = ideal(ctx, "x^2 - y^3", "y*x", "z^2 - x", "z*y")
    gr = initial_ideal(I, (-1, -1, -1))
    hf = local_hilbert_function(I)
    G = buchberger(gr)
    counts = {}
    for m in G.quotient_basis():
        counts[sum(m)] = counts.get(sum(m), 0) + 1
    assert tuple(counts.get(j, 0) for j in range(len(hf))) == tuple(hf)


def _echelon_initial_ideal(I, w):
    """The reference: every basis element times every monomial up to the
    colength n, truncated at degree n and echelonized in the columns of all
    monomials of degree <= n, by w-weight and then grevlex, descending; the
    initial forms of the echelon rows."""
    ctx, field = I.ctx, I.ctx.field
    G = buchberger(I)
    n = G.colength()
    monos = [m for j in range(n + 1) for m in _monomials_of_degree(ctx.d, j)]
    cols = sorted(monos, key=lambda m: (-sum(a * e for a, e in zip(w, m)),
                                        -sum(m), tuple(reversed(m))))
    col_of = {m: i for i, m in enumerate(cols)}
    rs = RowSpace(field)
    for g in G.gens:
        low = min(sum(m) for m in g.terms)
        for a in range(n - low + 1):
            for am in _monomials_of_degree(ctx.d, a):
                vec = [field.zero] * len(cols)
                for m, c in g.mul_term(am, field.one).terms.items():
                    if sum(m) <= n:
                        vec[col_of[m]] = c
                rs.add(vec)
    return Ideal(ctx, [Polynomial(ctx, {cols[i]: c for i, c in row.items()})
                       .weight_initial_form(w) for _, row, _ in rs.rows])


def _random_local_ideal(rng, field, d):
    """m^(top+1) plus random polynomials with terms of degree 1 to top, so a
    local ideal with mixed-degree generators."""
    ctx = context(field, [f"x{i+1}" for i in range(d)])
    top = 3 if d < 4 else 2
    monos = [m for j in range(1, top + 1) for m in _monomials_of_degree(d, j)]
    gens = [ctx.monomial(m) for m in _monomials_of_degree(d, top + 1)]
    for _ in range(rng.randint(d - 1, d + 2)):
        terms = {m: field.from_int(rng.randint(-3, 3))
                 for m in rng.sample(monos, rng.randint(1, 4))}
        gens.append(Polynomial(ctx, {m: c for m, c in terms.items() if c}))
    return Ideal(ctx, gens)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_negative_weight_initial_ideal_matches_the_echelon(field):
    # colength 3 to 6 keeps the reference echelon cheap; each weight vector
    # has a negative entry, so initial_ideal reads the normal-form kernel
    rng = random.Random(2121)
    for d in (2, 3, 4):
        for _ in range(5):
            I = _random_local_ideal(rng, field, d)
            while not 3 <= buchberger(I).colength() <= 6:
                I = _random_local_ideal(rng, field, d)
            w = tuple(rng.randint(-3, 3) for _ in range(d))
            if min(w) >= 0:
                w = (-1,) + w[1:]
            got = buchberger(initial_ideal(I, w))
            assert got.gens == buchberger(_echelon_initial_ideal(I, w)).gens, (I, w)


def test_negative_weight_initial_ideal_has_few_generators():
    # the kernel basis and the monomials one degree above the socle; the
    # all-degrees echelon gave 487 generators here
    assert len(initial_ideal(salmon_ideal(), (-1, 1, 1, 1)).gens) <= 30


def test_negative_weight_initial_ideal_drops_divisible_monomials():
    # x^32 divides 529 of the 531 monomials that the read-off finds; only the
    # two minimal generators go on to buchberger
    I = ideal(context(QQ, "x y"), "x^32", "y^2")
    out = initial_ideal(I, (-1, 1))
    assert sorted(map(str, out.gens)) == ["x^32", "y^2"]
    assert ideal_equal(buchberger(out), I)
    for I in (salmon_ideal(), seven_quadrics_ideal(4)):
        monos = [next(iter(g.terms)) for g in initial_ideal(I, (-1, 1, 1, 1)).gens
                 if len(g.terms) == 1]
        assert not [(a, b) for a in monos for b in monos if a != b and mono_divides(a, b)]


def test_schreyer_syzygies():
    ctx = context(QQ, "x y")
    G = buchberger(ideal(ctx, "x"))
    assert len(schreyer_syzygies(G)) == 0
    G2 = buchberger(ideal(ctx, "x", "y"))
    syz = schreyer_syzygies(G2)
    assert len(syz) == 1
    rel = syz.relations[0]
    # the Koszul relation, up to basis order and overall sign
    vals = sorted(str(p) for p in rel)
    assert vals in (["-x", "y"], ["-y", "x"])
    # relations verify against the generators by construction; spot-check one
    acc = ctx.zero()
    for r, g in zip(rel, syz.generators):
        acc = acc + r * g
    assert not acc


def test_schreyer_syzygies_generate_constraints():
    # the syzygy check inside SyzygyBasis would raise on any bad relation
    G = buchberger(seven_quadrics_ideal(4))
    syz = schreyer_syzygies(G)
    assert len(syz) >= len(G.elements) - 1


def test_linear_syzygies():
    ctx = context(QQ, "x1 x2 x3 x4")
    quads = list(seven_quadrics_ideal(4).gens)
    syz = linear_syzygies(quads, ctx)
    assert len(syz) == 8
    dependent = quads[:6] + [quads[0] + quads[1]]
    with pytest.raises(PreconditionError):
        linear_syzygies(dependent, ctx)
    with pytest.raises(PreconditionError):
        linear_syzygies(quads[:6] + [P("x1^3", ctx)], ctx)
    # seven quadrics needing a cubic generator: products of x1 with everything
    bad = [P(s, ctx) for s in
           ["x1^2", "x1*x2", "x1*x3", "x1*x4", "x2^2", "x2*x3", "x2*x4"]]
    with pytest.raises(PreconditionError):
        linear_syzygies(bad, ctx)


def test_points_ideal_examples():
    ctx1 = context(QQ, "x")
    G = points_ideal([(0,), (1,)], ctx1)
    assert [str(g) for g in G.elements] == ["x^2 - x"]
    ctx3 = context(QQ, "x y z")
    G0 = points_ideal([(0, 0, 0)], ctx3)
    assert sorted(str(g) for g in G0.elements) == ["x", "y", "z"]
    with pytest.raises(PreconditionError):
        points_ideal([(0, 0, 0), (0, 0, 0)], ctx3)


def test_points_ideal_against_intersection_oracle():
    rng = random.Random(8)
    ctx = context(QQ, "x y")
    for _ in range(5):
        pts = random_points(rng.randint(0, 10 ** 9), n=4, d=2)
        G = points_ideal(pts, ctx)
        acc = None
        for q in pts:
            pt_ideal = Ideal(ctx, [ctx.variable(0) - ctx.const(q[0]),
                                   ctx.variable(1) - ctx.const(q[1])])
            acc = pt_ideal if acc is None else intersect(acc, pt_ideal)
        assert ideal_equal(Ideal(ctx, G.elements), acc)
        assert G.colength() == len(pts)
        for g in G.elements:
            for q in pts:
                assert not g.evaluate(list(q))


def test_points_ideal_prime_field():
    F = GF(7)
    ctx = context(F, "x y")
    pts = [(F.from_int(0), F.from_int(1)), (F.from_int(2), F.from_int(3)),
           (F.from_int(5), F.from_int(5))]
    G = points_ideal(pts, ctx)
    assert G.colength() == 3


def test_delta_ratio_examples():
    ctx1 = context(QQ, "x")
    # one point: the chart coordinate of m is its value
    assert delta_ratio([(rat(5),)], [(0,)], (3,), (0,), ctx1) == rat(125)
    # two points 0, 1: the ratio for x^2 over the basis {1, x}
    assert delta_ratio([(0,), (1,)], [(0,), (1,)], (2,), (1,), ctx1) == rat(1)
    with pytest.raises(PreconditionError):
        delta_ratio([(0,), (0,)], [(0,), (1,)], (2,), (1,), ctx1)


def test_delta_ratio_matches_elimination_coefficients():
    rng = random.Random(12)
    for k in range(6):
        d = rng.choice((2, 3))
        n = rng.randint(3, 6)
        pts = random_points(rng.randint(0, 10 ** 9), n=n, d=d)
        ctx = context(QQ, [f"x{i+1}" for i in range(d)])
        G = points_ideal(pts, ctx)
        lam = list(G.quotient_basis())
        for g in G.elements:
            lt = g.lm(GREVLEX)
            for mp in lam:
                assert delta_ratio(pts, lam, lt, mp, ctx) == -g.terms.get(mp, QQ.zero)


def test_elimination_order_is_global_weight_order():
    w = weight_order((1, 0, 0))
    assert w.is_global(3)
    ctx = context(QQ, "u x y")
    G = buchberger(ideal(ctx, "u*x - 1", "y - u"), w)
    assert G.colength


def test_buchberger_returns_a_basis_in_its_own_order():
    _, J, _, _ = degeneration_chain(3, 3)
    G = buchberger(J)
    assert isinstance(G, Ideal) and G.elements == G.gens
    assert buchberger(G) is G
    for order in (LEX, weight_order((3, 2, 1))):
        H = buchberger(G, order)
        assert H.order is order
        assert H.gens == buchberger(Ideal(J.ctx, G.gens), order).gens
        assert buchberger(H, order) is H
        assert buchberger(H).gens == G.gens


def test_bases_built_by_linear_algebra_are_reduced():
    # points_ideal and the split pieces skip Buchberger; buchberger returns
    # them as they are, so they must already be its reduced, sorted output
    rng = random.Random(2024)
    bases = []
    for d, n, field in ((2, 5, QQ), (3, 6, QQ), (4, 8, QQ), (3, 6, GF(101))):
        ctx = context(field, [f"x{i+1}" for i in range(d)])
        G = points_ideal(random_points(rng.randint(0, 10 ** 9), n=n, d=d, field=field), ctx)
        bases.append(G)
        bases.extend(piece for _, piece in split_rational_support(Ideal(ctx, G.gens)))
    for d, m in ((2, 3), (3, 3), (4, 2)):
        _, J, _, _ = degeneration_chain(d, m)
        bases.extend(piece for _, piece in split_rational_support(J))
    # embedding reduction reads its basis off the multiplication operators
    bases.append(embedding_reduction(seven_quadrics_ideal(5)))
    bases.append(embedding_reduction(seven_quadrics_ideal(5, GF(7))))
    # initial forms of a reduced basis: equal weights (grevlex), positive
    # weights, and weights with a zero
    _, J, _, w = degeneration_pencil_deg8()
    bases.append(initial_ideal(J, w))
    for _, (J1, J2), w in (degeneration_753(), degeneration_axis_weight()):
        bases.append(initial_ideal(intersect(J1, J2), w))
    for G in bases:
        assert G.gens == buchberger(Ideal(G.ctx, G.gens), G.order).gens


def _random_polynomial(rng, ctx, nterms, degree):
    terms = {}
    for _ in range(nterms):
        m = [0] * ctx.d
        for _ in range(rng.randint(0, degree)):
            m[rng.randrange(ctx.d)] += 1
        terms[tuple(m)] = ctx.field.from_int(rng.randint(-5, 5))
    return Polynomial(ctx, terms)


def _division(f, divisors, order):
    """(remainder, quotients) of f by the divisors, as polynomials: f is the
    sum of the quotients times the monic divisors, plus the remainder."""
    ctx, field = f.ctx, f.ctx.field
    records = [_division_record(g, order) for g in divisors]
    # f = s * work, and _divide returns the quotients of work; _divide keys
    # every term by the order's coordinates
    work, (num, den) = _working_terms(f, order)
    s = field.from_int(num) / field.from_int(den)
    rem, quots, (lam_num, lam_den) = _divide(work, records, order, field, track=True)
    r = Polynomial(ctx, _field_terms(rem, order, field, num * lam_den, den * lam_num))
    return r, [Polynomial(ctx, {order.monomial(k): c for k, c in q.items()}).scale(s)
               for q in quots]


def _divisor_lists(field, make_order, rng):
    """(divisors, basis) pairs: the reduced bases of the seven quadrics, of
    seeded points and of seeded random generators, then those generators
    themselves with basis None.  They are neither monic nor a basis, so over
    Q the division also scales the dividend by leading coefficients other
    than 1."""
    I = seven_quadrics_ideal(5, field)
    bases = [buchberger(I, make_order(I.ctx.d))]
    ctx = context(field, "x y z")
    pts = random_points(rng.randrange(10 ** 6), n=6, d=3, field=field)
    bases.append(buchberger(points_ideal(pts, ctx), make_order(3)))
    while True:
        gens = [g for g in (_random_polynomial(rng, ctx, 3, 3) for _ in range(3)) if g]
        if len(gens) == 3 and all(g.degree() for g in gens):
            break
    bases.append(buchberger(Ideal(ctx, gens), make_order(3)))
    return [(G.gens, G) for G in bases] + [(gens, None)]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("make_order", [lambda d: GREVLEX, lambda d: LEX,
                                        lambda d: weight_order((2, 1, 3, 1, 2)[:d])],
                         ids=["grevlex", "lex", "weight"])
def test_division_property(field, make_order):
    # f = sum q_i g_i + r exactly, and no term of r is divisible by a leading
    # term; against a reduced basis that r is the normal form, a fixed point
    rng = random.Random(909)
    for divisors, G in _divisor_lists(field, make_order, rng):
        ctx = divisors[0].ctx
        order = make_order(ctx.d)
        lts = [g.lm(order) for g in divisors]
        for _ in range(6):
            f = _random_polynomial(rng, ctx, 6, 5)
            r, quots = _division(f, divisors, order)
            total = r
            for q, g in zip(quots, divisors):
                total = total + q * monic(g, order)
            assert total == f
            assert not any(mono_divides(lt, m) for m in r.terms for lt in lts)
            if G is not None:
                assert G.normal_form(f) == r
                assert G.normal_form(r) == r


def test_reduce_basis_sees_a_tail_rewritten_in_mid_pass(monkeypatch):
    # a lex Groebner basis of <z^2, y + z, x> with unreduced tails: the
    # second element's tail holds z^2, and the third is divided after the
    # second has been rewritten to y + z
    ctx = context(QQ, "x y z")
    basis = [P(s, ctx) for s in ("z^2", "y - z^2 + z", "x - y*z + 2*z^2")]
    seen = []
    divide = groebner._divide
    monkeypatch.setattr(groebner, "_divide",
                        lambda work, records, *args: seen.append(records)
                        or divide(work, records, *args))
    records = groebner._reduce_basis([_division_record(g, LEX) for g in basis], LEX, QQ)
    kept = [groebner._monic(ctx, LEX, r) for r in records]
    assert [str(g) for g in kept] == [str(P(s, ctx)) for s in ("z^2", "y + z", "x")]
    y_plus_z = _division_record(P("y + z", ctx), LEX)
    assert y_plus_z in seen[2]
    lts = [g.lm(LEX) for g in kept]
    for g, lt in zip(kept, lts):
        assert g.terms[lt] == QQ.one
        assert not any(mono_divides(other, m) for m in g.terms for other in lts if other != lt)
    assert tuple(kept) == buchberger(Ideal(ctx, basis), LEX).gens


def test_normal_form_reads_no_leading_monomial(monkeypatch):
    G = buchberger(seven_quadrics_ideal(4))
    rng = random.Random(910)
    fs = [_random_polynomial(rng, G.ctx, 6, 4) for _ in range(5)]
    calls = []
    lm = Polynomial.lm
    monkeypatch.setattr(Polynomial, "lm",
                        lambda self, order=GREVLEX: calls.append(1) or lm(self, order))
    for f in fs:
        G.normal_form(f)
    assert calls == []


def test_buchberger_evaluates_few_order_keys(monkeypatch):
    # division works in the order's coordinates: a monomial is keyed when it
    # enters the working dicts and once per S-pair, not at every reduction
    # step
    I = change_coordinates(seven_quadrics_ideal(6, GF(7)),
                           random_invertible_matrix(1919, 6, GF(7)))
    calls = []
    key = MonomialOrder.key
    monkeypatch.setattr(MonomialOrder, "key", lambda self, m: calls.append(1) or key(self, m))
    G = buchberger(Ideal(I.ctx, I.gens))
    assert len(calls) <= 250
    assert G.colength() == 8


QT_IDEAL = "field Qt\nvars x y\nideal:\nx^2 - t*y\nt*x*y + y^2 - (t+1)*x\n"


def test_buchberger_over_the_function_field():
    # the reduced grevlex basis over Q(t), as sympy gives it over QQ(t); the
    # generators are not monic, so their records divide by t
    ctx, gens = parse_ideal_file(QT_IDEAL)
    G = buchberger(Ideal(ctx, gens))
    assert [str(g) for g in G.gens] == [
        "x*y + (1/(t))*y^2 + ((-t - 1)/(t))*x",
        "x^2 + (-t)*y",
        "y^3 + ((-t^4 + t + 1)/(t))*y^2 + ((-t^2 - 2*t - 1)/(t))*x + (t^3 + t^2)*y"]
    assert G.colength() == 4
    f = P("x^3*y - (t^2 + 1)*x^2*y + x*y^2 - 3*t*y^3 + x + t", ctx)
    for divisors in (gens, G.gens):
        r, quots = _division(f, divisors, GREVLEX)
        total = r
        for q, g in zip(quots, divisors):
            total = total + q * monic(g, GREVLEX)
        assert total == f
        assert not any(mono_divides(g.lm(GREVLEX), m) for m in r.terms for g in divisors)
    # by the reduced basis, the remainder is the normal form
    assert r and G.normal_form(f) == r
    # two S-pair traces and the Koszul relation of x^2 and y^3
    assert len(schreyer_syzygies(G)) == 3


@pytest.mark.parametrize("field", [QQ, GF(7), QT], ids=str)
def test_syzygy_basis_rejects_a_relation_that_does_not_annihilate(field):
    ctx = context(field, "x y")
    third = field.one / field.from_int(3)
    f = P("x^2", ctx) + P("y", ctx).scale(third)
    g = P("x*y - 1", ctx).scale(field.from_int(2))
    half = field.one / field.from_int(2)
    SyzygyBasis([f, g], [[g, -f], [g.scale(half), -f.scale(half)]])
    for bad in ([g, f], [g.scale(half), -f.scale(third)], [g + f, -f]):
        with pytest.raises(ArithmeticError):
            SyzygyBasis([f, g], [[g, -f], bad])
