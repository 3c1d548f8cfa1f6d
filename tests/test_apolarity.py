import random

import pytest

from hilbcheck.errors import PreconditionError
from hilbcheck.fields import GF, QQ
from hilbcheck.fixtures import salmon_ideal, salmon_partials
from hilbcheck.apolarity import apply_operator, ideal_from_inverse_system, perp
from hilbcheck.artin import local_hilbert_function
from hilbcheck.groebner import Ideal, ideal_equal
from hilbcheck.poly import context, parse_polynomial
from hilbcheck.scalars import rat


def dual_pair(names="y1 y2 y3", field=QQ):
    d = context(field, names).dual_context()
    return d.dual_context(), d   # (primal, dual)


def test_apply_operator_examples():
    pctx, dctx = dual_pair()
    x1 = parse_polynomial("y1", pctx)
    g = parse_polynomial("y1^2", dctx)
    assert apply_operator(x1, g) == parse_polynomial("2*y1", dctx)
    assert not apply_operator(x1, parse_polynomial("y2", dctx))
    # x^a acting on y^a gives the constant a!
    f = parse_polynomial("y1^2*y2", pctx)
    assert apply_operator(f, parse_polynomial("y1^2*y2", dctx)) == dctx.const(2)
    f3 = parse_polynomial("y1^3", pctx)
    assert apply_operator(f3, parse_polynomial("y1^3", dctx)) == dctx.const(6)


def test_apply_operator_argument_checks():
    pctx, dctx = dual_pair()
    with pytest.raises(PreconditionError):
        apply_operator(parse_polynomial("y1", pctx), parse_polynomial("y1", pctx))


def test_pairing_gram_matrix_is_diagonal_factorial():
    pctx, dctx = dual_pair()
    from hilbcheck.groebner import _monomials_of_degree
    for j in (1, 2, 3):
        monos = list(_monomials_of_degree(3, j))
        for a in monos:
            for b in monos:
                val = apply_operator(pctx.monomial(a), dctx.monomial(b))
                if a == b:
                    expected = 1
                    for e in a:
                        for k in range(2, e + 1):
                            expected *= k
                    assert val == dctx.const(rat(expected))
                else:
                    assert not val


def test_characteristic_guard():
    F = GF(5)
    pctx, dctx = dual_pair(field=F)
    high = dctx.monomial((5, 0, 0))
    with pytest.raises(PreconditionError):
        apply_operator(pctx.monomial((1, 0, 0)), high)
    I = Ideal(pctx, [pctx.monomial((1, 0, 0))])
    with pytest.raises(PreconditionError):
        perp(I, 5)


def test_perp_examples():
    pctx, dctx = dual_pair()
    unit = Ideal(pctx, [pctx.one()])
    assert perp(unit, 2) == []
    I = Ideal(pctx, [parse_polynomial(s, pctx) for s in ("y1^2", "y2^2", "y3^2")])
    dims = [len(perp(I, j)) for j in range(5)]
    assert dims == [1, 3, 3, 1, 0]
    with pytest.raises(PreconditionError):
        perp(Ideal(pctx, [parse_polynomial("y1^2 - y2", pctx)]), 2)


def test_perp_dimension_is_143_for_seven_quadrics():
    from hilbcheck.fixtures import seven_quadrics_ideal
    I = seven_quadrics_ideal(4)
    assert len(perp(I, 2)) == 3
    assert len(perp(I, 1)) == 4
    assert len(perp(I, 0)) == 1


def test_perp_matches_local_hilbert_function_random():
    rng = random.Random(23)
    pctx, dctx = dual_pair("y1 y2 y3")
    from hilbcheck.groebner import _monomials_of_degree
    deg2 = list(_monomials_of_degree(3, 2))
    for trial in range(10):
        # random homogeneous ideal: a few quadrics plus all cubics
        k = rng.randint(2, 5)
        gens = []
        for _ in range(k):
            terms = {m: rat(rng.randint(-3, 3)) for m in deg2}
            p = type(pctx.zero())(pctx, {m: c for m, c in terms.items() if c})
            if p:
                gens.append(p)
        gens += [pctx.monomial(m) for m in _monomials_of_degree(3, 3)]
        I = Ideal(pctx, gens)
        hf = local_hilbert_function(I)
        dims = tuple(len(perp(I, j)) for j in range(len(hf)))
        assert dims == tuple(hf)


def test_ideal_from_inverse_system_examples():
    pctx, dctx = dual_pair()
    cube = parse_polynomial("(y1 + 2*y2 - y3)^3", dctx)
    I = ideal_from_inverse_system([cube])
    assert local_hilbert_function(I) == (1, 1, 1, 1)
    I2 = ideal_from_inverse_system([parse_polynomial("y1*y2*y3", dctx)])
    assert local_hilbert_function(I2) == (1, 3, 3, 1)
    I3 = salmon_ideal()
    assert local_hilbert_function(I3) == (1, 4, 3)
    assert len(salmon_partials()) == 3


def test_double_perp_identity():
    pctx, dctx = dual_pair()
    I = Ideal(pctx, [parse_polynomial(s, pctx) for s in ("y1^2", "y2^2", "y3^2")])
    comps = []
    for j in range(5):
        comps.extend(perp(I, j))
    back = ideal_from_inverse_system(comps)
    assert ideal_equal(back, I)


def test_ideal_from_inverse_system_refuses_generators_from_another_context():
    _, three = dual_pair()
    _, four = dual_pair("y1 y2 y3 y4")
    _, mod = dual_pair(field=GF(101))
    for gens in ([parse_polynomial("y1^2", three), parse_polynomial("y4^2", four)],
                 [parse_polynomial("y4^2", four), parse_polynomial("y1^2", three)],
                 [parse_polynomial("y1^2", three), parse_polynomial("y2^2", mod)]):
        with pytest.raises(PreconditionError, match="different context"):
            ideal_from_inverse_system(gens)
    # a zero generator carries no form, whatever its context
    I = ideal_from_inverse_system([parse_polynomial("y1^2", three), four.zero()])
    assert local_hilbert_function(I) == (1, 1, 1)
