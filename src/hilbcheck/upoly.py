"""Univariate polynomials in the parameter t, and the fraction field Q(t).

Z[t] polynomials are tuples of int coefficients, ascending degree, no trailing
zeros, () for zero.  RatFunc is a reduced ratio of two such tuples; it is the
coefficient type for computations along one-parameter families.  Its
reduction makes no fraction: the gcd and the division by it stay in Z[t].
"""

from math import gcd


def ztrim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def zdeg(p):
    return len(p) - 1


def zadd(a, b):
    n = max(len(a), len(b))
    return ztrim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def zneg(a):
    return tuple(-c for c in a)


def zsub(a, b):
    return zadd(a, zneg(b))


def zmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return ztrim(out)


def zprim(a):
    """The primitive part of a, with a positive leading coefficient."""
    g = gcd(*a) if not a or a[-1] > 0 else -gcd(*a)
    return a if g == 1 else tuple(c // g for c in a)


def zval(a):
    """t-adic valuation; None for the zero polynomial."""
    for i, c in enumerate(a):
        if c:
            return i
    return None


def zeval(a, x):
    """a(x) by Horner's rule; an int at an int point."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def zdiv_exact(n, d):
    """Quotient n/d in Z[t]; ArithmeticError when d does not divide n there.
    A primitive d that divides n in Q[t] divides it in Z[t] (Gauss's lemma)."""
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    if not n:
        return ()
    num = list(n)
    q = [0] * (len(n) - len(d) + 1)
    lead = d[-1]
    for i in range(len(q) - 1, -1, -1):
        c, r = divmod(num[i + len(d) - 1], lead)
        if r:
            raise ArithmeticError("non-integer quotient in Z[t] division")
        q[i] = c
        if c:
            for j, dc in enumerate(d):
                num[i + j] -= c * dc
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return ztrim(q)


def zgcd(a, b):
    """Primitive gcd in Z[t], positive leading coefficient."""
    if not a:
        return zprim(b)
    if not b:
        return zprim(a)
    # against a monomial c t^k the gcd is t^min(k, val(other))
    va, vb = zval(a), zval(b)
    if va is not None and vb is not None and (va == len(a) - 1 or vb == len(b) - 1):
        return (0,) * min(va, vb) + (1,)
    return _euclid(a, b)


def _euclid(a, b):
    """zgcd of nonzero a and b by the primitive pseudo-remainder sequence
    (Knuth, TAOCP vol. 2, 4.6.1; Brown, JACM 1971): each remainder's content
    is divided out, which keeps its coefficients from growing exponentially."""
    a, b = zprim(a), zprim(b)
    if zdeg(a) < zdeg(b):
        a, b = b, a
    while b:
        a, b = b, zprim(_prem(a, b))
    return a


def _prem(a, b):
    """Pseudo-remainder of a by b, len(a) >= len(b): the remainder of
    lc(b)^(deg a - deg b + 1) a, which stays in Z[t]."""
    r = list(a)
    lead, n = b[-1], len(b)
    while len(r) >= n:
        c = r.pop()
        off = len(r) - n + 1
        r = [lead * x for x in r]
        for j in range(n - 1):
            r[off + j] -= c * b[j]
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def zpoly_str(p):
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            mono = ""
        elif i == 1:
            mono = "t"
        else:
            mono = f"t^{i}"
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


class RatFunc:
    """Element of Q(t): reduced ratio of integer polynomials.

    Numerator and denominator share no polynomial factor and no integer
    content; the denominator has positive leading coefficient.  This makes
    equality a tuple comparison.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,), _reduced=False):
        num = ztrim(num)
        den = ztrim(den)
        if not den:
            raise ZeroDivisionError("zero denominator in Q(t)")
        if not _reduced:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def from_int(n):
        return RatFunc((n,), (1,), _reduced=True) if n else RatFunc((), (1,), _reduced=True)

    def __add__(self, other):
        return RatFunc(zadd(zmul(self.num, other.den), zmul(other.num, self.den)),
                       zmul(self.den, other.den))

    def __sub__(self, other):
        return RatFunc(zsub(zmul(self.num, other.den), zmul(other.num, self.den)),
                       zmul(self.den, other.den))

    def __neg__(self):
        return RatFunc(zneg(self.num), self.den, _reduced=True)

    def __mul__(self, other):
        return RatFunc(zmul(self.num, other.num), zmul(self.den, other.den))

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError("division by zero in Q(t)")
        return RatFunc(zmul(self.num, other.den), zmul(self.den, other.num))

    def __pow__(self, e):
        if e < 0:
            return RatFunc(self.den, self.num) ** (-e)
        out = RatFunc.from_int(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def valuation(self):
        """t-adic valuation; None for zero."""
        if not self.num:
            return None
        return zval(self.num) - zval(self.den)

    def __repr__(self):
        if self.den == (1,):
            return zpoly_str(self.num)
        ns = zpoly_str(self.num)
        ds = zpoly_str(self.den)
        if len(self.num) > 1 or self.num and self.num[-1] < 0:
            ns = f"({ns})"
        if len(self.den) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"


def _reduce(num, den):
    if not num:
        return (), (1,)
    if den[-1] < 0:
        num, den = zneg(num), zneg(den)
    # a constant side has gcd 1 with the other in Q[t]: only content is shared
    if len(den) > 1 and len(num) > 1:
        # g is primitive with lc > 0: integral quotients, and den's lc stays > 0
        g = zgcd(num, den)
        if g != (1,):
            num, den = zdiv_exact(num, g), zdiv_exact(den, g)
    c = gcd(*num, *den)
    if c > 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    return num, den


RATFUNC_T = RatFunc((0, 1), (1,), _reduced=True)
