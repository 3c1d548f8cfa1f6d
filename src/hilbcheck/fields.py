"""Coefficient field descriptors: Q, F_p (p >= 5), and Q(t).

Each field names the Python type of its elements as `elem`, so a value can
be checked for membership by one type comparison.
"""

from .scalars import RAT_ZERO, rat, prime_field_element_class
from .upoly import RatFunc, RATFUNC_T


class Field:
    """Common interface: constants, coercion from int, characteristic."""

    def from_int(self, n):
        raise NotImplementedError

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def inv_int(self, n):
        """1/n as a field element; raises when n vanishes in the field."""
        nf = self.from_int(n)
        if not nf:
            raise ZeroDivisionError(f"{n} is zero in {self}")
        return self.one / nf


class RationalField(Field):
    characteristic = 0
    tag = "Q"
    elem = type(RAT_ZERO)

    def from_int(self, n):
        return rat(n)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    tag = "F"

    def __init__(self, p):
        self.p = p
        self.elem = prime_field_element_class(p)

    @property
    def characteristic(self):
        return self.p

    def from_int(self, n):
        return self.elem(n)

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

    def from_int(self, n):
        return RatFunc.from_int(n)

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
