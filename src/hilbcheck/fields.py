"""Coefficient field descriptors: Q, F_p (p >= 5), and Q(t).

Each field names the Python type of its elements as `elem`, so a value can
be checked for membership by one type comparison.

The field also owns the working-coefficient format of the integer kernels
(Groebner division, the `RowSpace` echelon behind every rank, span, kernel
and determinant, the Pfaffian, characteristic polynomial, root search, and
the quotient model's operator products that the maximal-ideal chain and the
tangent Hom system are built from).
`modulus` is 0 over Q, p over F_p and None over Q(t), which has no integer
format.  A list of elements becomes `(ints, den)` with `integers`: over Q,
den is the lcm of the denominators and ints are den times the elements; over
F_p, den is 1 and ints are the residues.  `element(num, den)` maps back.  A
kernel reduces its integers mod p over F_p and not at all over Q, where it
divides them by their gcd itself when it wants a primitive vector.
"""

from math import lcm

from .scalars import RAT_ONE, RAT_ZERO, rat, prime_field_element_class
from .upoly import RatFunc, RATFUNC_T


class Field:
    """Common interface: constants, coercion, characteristic, and the
    working-coefficient format (module docstring).  `zero` and `one` are
    built once: elements have no in-place operators, so readers share them."""

    modulus = None

    def from_int(self, n):
        raise NotImplementedError

    def coerce(self, x):
        """x, an int or an element of this field, as an element of it."""
        if isinstance(x, int):
            return self.from_int(x)
        raise TypeError(f"mixed coefficient domains: {x!r} is not in {self}")

    def integers(self, values):
        """(ints, den) with ints den times the sequence values."""
        raise TypeError(f"{self} has no integer working coefficients")

    def element(self, num, den=1):
        """The field element num / den of integers num and den."""
        raise TypeError(f"{self} has no integer working coefficients")

    def inv_int(self, n):
        """1/n as a field element; raises when n vanishes in the field."""
        nf = self.from_int(n)
        if not nf:
            raise ZeroDivisionError(f"{n} is zero in {self}")
        return self.one / nf


class RationalField(Field):
    characteristic = 0
    modulus = 0
    tag = "Q"
    elem = type(RAT_ZERO)
    zero = RAT_ZERO
    one = RAT_ONE

    def from_int(self, n):
        return rat(n)

    def coerce(self, x):
        if isinstance(x, int):
            return rat(x)
        if hasattr(x, "numerator") and hasattr(x, "denominator") and not isinstance(x, RatFunc):
            return rat(int(x.numerator), int(x.denominator))
        raise TypeError(f"mixed coefficient domains: {x!r} is not rational")

    def integers(self, values):
        den = lcm(*[int(x.denominator) for x in values])
        return [int(x.numerator) * (den // int(x.denominator)) for x in values], den

    element = staticmethod(rat)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    tag = "F"

    def __init__(self, p):
        self.p = self.modulus = p
        self.elem = prime_field_element_class(p)
        self.zero = self.elem(0)
        self.one = self.elem(1)

    @property
    def characteristic(self):
        return self.p

    def from_int(self, n):
        return self.elem(n)

    def integers(self, values):
        return [x.v for x in values], 1

    def element(self, num, den=1):
        return self.elem(num if den == 1 else num * pow(den, -1, self.p))

    def __repr__(self):
        return f"F_{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("F", self.p))


class FunctionField(Field):
    """Q(t), the rational functions in one parameter."""

    characteristic = 0
    tag = "Qt"
    elem = RatFunc
    zero = RatFunc.from_int(0)
    one = RatFunc.from_int(1)

    def from_int(self, n):
        return RatFunc.from_int(n)

    def coerce(self, x):
        if isinstance(x, int):
            return RatFunc.from_int(x)
        if isinstance(x, RatFunc):
            return x
        if hasattr(x, "numerator") and hasattr(x, "denominator"):
            return RatFunc((int(x.numerator),), (int(x.denominator),))
        raise TypeError(f"mixed coefficient domains: {x!r} is not in Q(t)")

    @property
    def t(self):
        return RATFUNC_T

    def __repr__(self):
        return "Q(t)"

    def __eq__(self, other):
        return isinstance(other, FunctionField)

    def __hash__(self):
        return hash("Qt")


QQ = RationalField()
QT = FunctionField()


def GF(p):
    return PrimeField(p)


def field_from_tag(tag, p=None):
    if tag == "Q":
        return QQ
    if tag == "Qt":
        return QT
    if tag == "F":
        if p is None:
            raise ValueError("prime field needs a prime: 'field F <p>'")
        return GF(p)
    raise ValueError(f"unknown field tag {tag!r}")
