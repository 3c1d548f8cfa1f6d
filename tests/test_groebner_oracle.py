"""Cross-check the Buchberger engine against an independent implementation
on randomized inputs (skipped when sympy is unavailable)."""

import random

import pytest

sympy = pytest.importorskip("sympy")

from hilbcheck.fields import GF, QQ
from hilbcheck.groebner import Ideal, buchberger, intersect
from hilbcheck.poly import GREVLEX, LEX, Polynomial, context, parse_ideal_file
from hilbcheck.scalars import rat


def to_sympy(p, syms):
    expr = 0
    for m, c in p.terms.items():
        if p.ctx.field == QQ:
            term = sympy.Rational(int(c.numerator), int(c.denominator))
        else:
            term = sympy.Integer(c.v)
        for x, e in zip(syms, m):
            term *= x ** e
        expr += term
    return expr


def from_sympy(expr, ctx, syms):
    field = ctx.field
    poly = sympy.Poly(expr, *syms)
    terms = {}
    for mono, coeff in poly.terms():
        q = sympy.Rational(coeff)
        terms[tuple(int(e) for e in mono)] = (field.from_int(int(q.p))
                                              / field.from_int(int(q.q)))
    return Polynomial(ctx, terms)


def monic(g, order):
    """g divided by its leading coefficient in the order."""
    return g.scale(g.ctx.field.one / g.terms[g.lm(order)])


def random_ideal(ctx, rng, ngens=3, maxdeg=2):
    gens = []
    d = ctx.d
    while len(gens) < ngens:
        terms = {}
        for _ in range(rng.randint(2, 4)):
            m = tuple(rng.randint(0, maxdeg) for _ in range(d))
            if sum(m) > maxdeg + 1:
                continue
            c = rat(rng.randint(-4, 4))
            if c:
                terms[m] = c
        p = Polynomial(ctx, terms)
        if p:
            gens.append(p)
    return Ideal(ctx, gens)


def dense_ideal(ctx, rng, coeff, ngens=3, degree=3):
    """ngens nonconstant generators of 3 to 5 terms of degree <= degree,
    with coefficients coeff(rng)."""
    gens = []
    while len(gens) < ngens:
        terms = {}
        for _ in range(rng.randint(3, 5)):
            m = [0] * ctx.d
            for _ in range(rng.randint(0, degree)):
                m[rng.randrange(ctx.d)] += 1
            terms[tuple(m)] = coeff(rng)
        p = Polynomial(ctx, terms)
        if p.degree():
            gens.append(p)
    return Ideal(ctx, gens)


def sympy_basis(I, order, syms, **options):
    """sympy's reduced basis of I, as our monic polynomials in our order."""
    theirs = sympy.groebner([to_sympy(g, syms) for g in I.gens], *syms,
                            order=str(order), **options)
    return sorted((monic(from_sympy(e, I.ctx, syms), order) for e in theirs.exprs),
                  key=lambda g: order.key(g.lm(order)))


def test_reduced_bases_match_sympy():
    rng = random.Random(106)
    ctx = context(QQ, "x y z")
    syms = sympy.symbols("x y z")
    for _ in range(12):
        I = random_ideal(ctx, rng)
        ours = buchberger(I, GREVLEX)
        theirs = sympy.groebner([to_sympy(g, syms) for g in I.gens],
                                *syms, order="grevlex")
        converted = sorted((monic(from_sympy(e, ctx, syms), GREVLEX)
                            for e in theirs.exprs),
                           key=lambda g: GREVLEX.key(g.lm(GREVLEX)))
        assert list(ours.elements) == converted


def test_intersection_matches_sympy():
    ctx = context(QQ, "x y")
    syms = sympy.symbols("x y u")
    rng = random.Random(107)
    for _ in range(4):
        I = random_ideal(ctx, rng, ngens=2)
        J = random_ideal(ctx, rng, ngens=2)
        ours = buchberger(intersect(I, J), GREVLEX)
        u = syms[2]
        gens = [u * to_sympy(g, syms[:2]) for g in I.gens]
        gens += [(1 - u) * to_sympy(g, syms[:2]) for g in J.gens]
        gb = sympy.groebner(gens, u, *syms[:2], order="lex")
        kept = [e for e in gb.exprs if u not in e.free_symbols]
        theirs = buchberger(Ideal(ctx, [from_sympy(e, ctx, syms[:2]) for e in kept]),
                            GREVLEX)
        assert list(ours.elements) == list(theirs.elements)


@pytest.mark.parametrize("p", [7, 10007])
def test_reduced_bases_over_prime_fields_match_sympy(p):
    rng = random.Random(108)
    field = GF(p)
    ctx = context(field, "x y z")
    syms = sympy.symbols("x y z")
    for _ in range(8):
        I = dense_ideal(ctx, rng, lambda rng: field.from_int(rng.randint(-4, 4)))
        assert list(buchberger(I, GREVLEX).elements) == \
            sympy_basis(I, GREVLEX, syms, modulus=p)


def test_reduced_lex_bases_match_sympy():
    rng = random.Random(109)
    ctx = context(QQ, "x y z")
    syms = sympy.symbols("x y z")
    for _ in range(6):
        I = dense_ideal(ctx, rng, lambda rng: rat(rng.randint(-4, 4)), degree=2)
        assert list(buchberger(I, LEX).elements) == sympy_basis(I, LEX, syms)


def test_reduced_bases_of_rational_generators_match_sympy():
    # coefficients with unlike denominators: the primitive integer form of
    # each generator clears them, and the monic basis brings them back
    rng = random.Random(110)
    ctx = context(QQ, "x y z")
    syms = sympy.symbols("x y z")

    def coeff(rng):
        return rat(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 35)))

    for _ in range(8):
        I = dense_ideal(ctx, rng, coeff)
        assert any(c.denominator != 1 for g in I.gens for c in g.terms.values())
        assert list(buchberger(I, GREVLEX).elements) == sympy_basis(I, GREVLEX, syms)


# coefficients of degree <= 1 in t and colength 1, yet a gcd of the Q(t)
# coefficients by a Euclid over Fractions made buchberger take 2 s in grevlex
# and 8 s in lex
QT_IDEAL = ("field Qt\nvars x y z\nideal:\nx^3 + t*z^2\n"
            "(3 - 2*t)*x + (2*t - 1)*y - t - 2\n(2 - t)*y*z + (2*t - 2)*x\n"
            "(t + 3)*x*y + (t + 2)*y*z + (2*t + 1)*z^2 + (t - 2)*x\n")


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=str)
def test_reduced_bases_over_the_function_field_match_sympy(order):
    ctx, gens = parse_ideal_file(QT_IDEAL)
    t, *syms = sympy.symbols("t x y z")

    def qt_poly(p):
        def value(zpoly):
            return sum(c * t ** i for i, c in enumerate(zpoly))
        return sympy.Poly(sum(value(c.num) / value(c.den) * sympy.prod(
            x ** e for x, e in zip(syms, m)) for m, c in p.terms.items()),
            *syms, domain="QQ(t)")

    theirs = sympy.groebner([qt_poly(g) for g in gens], *syms, order=str(order),
                            domain="QQ(t)")
    assert {qt_poly(g) for g in buchberger(Ideal(ctx, gens), order).gens} == set(theirs.polys)
