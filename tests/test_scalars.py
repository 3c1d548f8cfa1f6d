import pytest

from hilbcheck.scalars import is_prime, prime_field_element_class, rat
from hilbcheck.fields import GF, QQ, QT, field_from_tag


def test_rat_normalization():
    x = rat(2, -4)
    assert x.numerator == -1 and x.denominator == 2
    assert rat(0, 5) == rat(0)


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 101, 1009, 104729]
    for p in primes:
        assert is_prime(p)
    for n in [1, 4, 9, 91, 1001, 104730]:
        assert not is_prime(n)


def test_prime_field_arithmetic():
    F = prime_field_element_class(7)
    a, b = F(3), F(5)
    assert (a + b).v == 1
    assert (a * b).v == 1
    assert (a - b).v == 5
    assert (a / b).v == 2  # 3 * 5^{-1} = 3 * 3 = 9 = 2
    assert (a ** 6).v == 1
    assert -F(0) == F(0)
    assert bool(F(7)) is False


def test_prime_field_rejects_small_characteristic():
    for p in (2, 3):
        with pytest.raises(ValueError):
            prime_field_element_class(p)
    with pytest.raises(ValueError):
        prime_field_element_class(6)


def test_field_descriptors():
    assert QQ.characteristic == 0
    assert GF(11).characteristic == 11
    assert QT.characteristic == 0
    assert field_from_tag("Q") == QQ
    assert field_from_tag("F", 13) == GF(13)
    assert field_from_tag("Qt") == QT
    assert QQ.one / QQ.from_int(4) == rat(1, 4)
    with pytest.raises(ZeroDivisionError):
        QQ.inv_int(0)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(10007), QT], ids=str)
def test_field_constants_are_shared(field):
    # zero and one are built once per field; arithmetic leaves them intact
    zero, one = field.zero, field.one
    assert field.zero is zero and field.one is one
    assert type(zero) is field.elem and type(one) is field.elem
    assert zero == field.from_int(0) and one == field.from_int(1)
    assert (one + one) - one == one and -zero == zero
    assert field.zero == field.from_int(0) and field.one == field.from_int(1)


def test_working_integers_round_trip():
    # over Q: den is the lcm of the denominators, ints den times the values
    values = [rat(1, 2), rat(-3, 4), rat(0), rat(5), rat(-7, 6)]
    ints, den = QQ.integers(values)
    assert (ints, den) == ([6, -9, 0, 60, -14], 12)
    assert all(type(c) is int for c in ints)
    assert [QQ.element(c, den) for c in ints] == values
    assert QQ.integers([]) == ([], 1)
    assert QQ.integers([rat(0), rat(-2)]) == ([0, -2], 1)
    # over F_p: den is 1 and ints are the residues
    for p in (7, 10007):
        F = GF(p)
        values = [F.from_int(n) for n in (3, 0, -1, p + 2, 10 ** 9)]
        ints, den = F.integers(values)
        assert den == 1 and ints == [3, 0, p - 1, 2, 10 ** 9 % p]
        assert [F.element(c, den) for c in ints] == values
        assert F.element(-1) == F.from_int(p - 1)
        assert F.element(1, 3) * F.from_int(3) == F.one
        assert F.element(p + 5, 2) == F.from_int(5) / F.from_int(2)
    assert (QQ.modulus, GF(7).modulus, QT.modulus) == (0, 7, None)
    with pytest.raises(TypeError):
        QT.integers([QT.one])
    with pytest.raises(TypeError):
        QT.element(1)

