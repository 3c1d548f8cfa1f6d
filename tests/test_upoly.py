import random
from math import gcd

import pytest

from hilbcheck import upoly
from hilbcheck.scalars import rat
from hilbcheck.upoly import (RATFUNC_T as t, RatFunc, zdeg, zdiv_exact, zeval, zgcd, zmul,
                             zneg, zpoly_str, ztrim, zval)


def test_zpoly_basics():
    assert ztrim([1, 2, 0, 0]) == (1, 2)
    assert zmul((1, 1), (1, -1)) == (1, 0, -1)
    assert zval((0, 0, 3, 1)) == 2
    assert zval(()) is None
    assert zdiv_exact((1, 0, -1), (1, 1)) == (1, -1)
    with pytest.raises(ArithmeticError):
        zdiv_exact((1, 0, 1), (1, 1))


def test_zgcd():
    assert zgcd((0, 0, 1), (-1, 0, 1)) == (1,)
    assert zgcd((0, 0, 2), (0, 0, 0, 4)) == (0, 0, 1)
    # gcd of (t^2-1)(t+2) and (t+1)(t+2) is (t+1)(t+2)
    a = zmul((-1, 0, 1), (2, 1))
    b = zmul((1, 1), (2, 1))
    assert zgcd(a, b) == zmul((1, 1), (2, 1))


def test_ratfunc_normal_form():
    x = RatFunc((2, 2), (4,))       # (2t+2)/4 -> (t+1)/2
    assert x.num == (1, 1) and x.den == (2,)
    y = RatFunc((-1, 0, 1), (1, 1))  # (t^2-1)/(t+1) = t-1
    assert y.num == (-1, 1) and y.den == (1,)
    z = RatFunc((1,), (-2,))
    assert z.num == (-1,) and z.den == (2,)


def test_ratfunc_field_axioms_random():
    rng = random.Random(5)

    def rnd():
        while True:
            num = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
            den = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 3)))
            if any(den):
                return RatFunc(num, den)

    one = RatFunc.from_int(1)
    for _ in range(60):
        a, b, c = rnd(), rnd(), rnd()
        assert (a + b) * c == a * c + b * c
        assert a - a == RatFunc.from_int(0)
        if a:
            assert a / a == one
        assert (a * b) * c == a * (b * c)


def _reduce_through_the_gcd(num, den):
    """`upoly._reduce` with the polynomial gcd run whenever either side is
    non-constant, as it was before a constant side skipped it."""
    if not num:
        return (), (1,)
    if den[-1] < 0:
        num, den = zneg(num), zneg(den)
    if len(den) > 1 or len(num) > 1:
        g = zgcd(num, den)
        if zdeg(g) > 0 or g != (1,):
            num = zdiv_exact(num, g)
            den = zdiv_exact(den, g)
            if den[-1] < 0:
                num, den = zneg(num), zneg(den)
    c = gcd(*num, *den)
    if c > 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    return num, den


def test_reduce_with_a_constant_side_matches_the_gcd_path():
    rng = random.Random(2302)

    def constant():
        return (rng.choice((-12, -6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 12)),)

    def poly():
        # non-constant, with an integer content at times
        while True:
            p = ztrim(rng.randint(-4, 4) for _ in range(rng.randint(2, 4)))
            if len(p) > 1:
                return tuple(c * rng.choice((1, 1, 2, -3, 6)) for c in p)

    seen = set()
    for _ in range(400):
        kind = rng.choice(("constant den", "constant num", "zero num", "both constant"))
        num = () if kind == "zero num" else constant() if kind != "constant den" else poly()
        den = constant() if kind != "constant num" else poly()
        assert upoly._reduce(num, den) == _reduce_through_the_gcd(num, den), (num, den)
        seen.add((kind, den[-1] < 0))
    assert len(seen) == 8


def test_ratfunc_eval_and_valuation():
    def value(f, x):
        # the normalized numerator and denominator, each evaluated by zeval
        return rat(zeval(f.num, x)) / zeval(f.den, x)

    f = (t ** 2 - RatFunc.from_int(1)) / (t + RatFunc.from_int(1))
    assert f == t - RatFunc.from_int(1)
    assert value(f, rat(3)) == rat(2)
    # an int point divides exactly too
    g = t / (t + RatFunc.from_int(1))
    assert value(g, 3) == rat(3, 4) and type(value(g, 3)) is type(rat(1))
    assert value(g, rat(1, 2)) == rat(1, 3)
    assert (t ** 3).valuation() == 3
    assert (RatFunc.from_int(1) / t).valuation() == -1
    assert RatFunc.from_int(0).valuation() is None


def test_zpoly_str():
    assert zpoly_str(()) == "0"
    assert zpoly_str((0, -1, 2)) == "2*t^2 - t"
    assert zpoly_str((5,)) == "5"


def test_zgcd_against_a_monomial_matches_the_euclid(monkeypatch):
    # c t^k against b: t^min(k, val b), with no Euclid; checked against the
    # Euclid for monomials, constants, zero and either sign, with the other
    # valuation above and below k
    rng = random.Random(2828)
    cases = []
    for _ in range(300):
        k = rng.randint(0, 6)
        mono = (0,) * k + (rng.choice((-1, 1)) * rng.randint(1, 9),)
        v = rng.randint(0, 9)
        other = ztrim([0] * v + [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
                      + [rng.choice((-1, 1)) * rng.randint(1, 9)])
        cases.append((mono, other, (0,) * min(k, zval(other)) + (1,)))
    expected = [(upoly._euclid(a, b), upoly._euclid(b, a)) for a, b, _ in cases]
    assert all(e == (want, want) for e, (_, _, want) in zip(expected, cases))
    assert {len(a) - 1 < zval(b) for a, b, _ in cases} == {False, True}
    euclids = []
    monkeypatch.setattr(upoly, "_euclid", lambda a, b: euclids.append(1))
    for a, b, want in cases:
        assert zgcd(a, b) == zgcd(b, a) == want
        assert zgcd(a, ()) == zgcd((), a) == (0,) * (len(a) - 1) + (1,)
    assert euclids == []


def test_zgcd_matches_sympy_over_the_integers():
    # sympy's gcd over ZZ[t] keeps the integer content; zgcd is the primitive
    # part with a positive leading coefficient
    sympy = pytest.importorskip("sympy")
    T = sympy.Symbol("t")
    rng = random.Random(3107)

    def poly(deg, bound):
        return ztrim([rng.randint(-bound, bound) for _ in range(deg)]
                     + [rng.choice((-1, 1)) * rng.randint(1, bound)])

    def to_sympy(p):
        return sympy.Poly(list(reversed(p)), T, domain="ZZ")

    digits = []
    for _ in range(300):
        common = poly(rng.randint(0, 5), 10 ** 15)
        a = zmul(zmul(common, poly(rng.randint(0, 7 - len(common)), 10 ** 13)),
                 (rng.choice((1, 1, 6, -6)),))
        b = zmul(common, poly(rng.randint(0, 13 - len(common)), 10 ** 13))
        assert len(a) <= 13 and len(b) <= 13
        digits.extend(len(str(abs(c))) for c in a + b)
        _, prim = to_sympy(a).gcd(to_sympy(b)).primitive()
        if prim.LC() < 0:
            prim = -prim
        want = tuple(int(c) for c in reversed(prim.all_coeffs()))
        assert zgcd(a, b) == zgcd(b, a) == want, (a, b)
    assert 25 <= max(digits) <= 30


def test_zdiv_exact_divides_over_the_integers():
    rng = random.Random(3108)

    def poly(deg):
        return ztrim([rng.randint(-99, 99) for _ in range(deg)] + [rng.randint(1, 99)])

    for _ in range(200):
        q, d = poly(rng.randint(0, 6)), poly(rng.randint(0, 6))
        n = zmul(q, d)
        quot = zdiv_exact(n, d)
        assert quot == q and zmul(quot, d) == n
        # a divisor with content c divides q d in Q[t], with the quotient
        # q / c outside Z[t] when c does not divide q's content
        c = rng.choice((2, 3, 5, 7))
        if gcd(*q) % c:
            with pytest.raises(ArithmeticError):
                zdiv_exact(n, zmul(d, (c,)))
