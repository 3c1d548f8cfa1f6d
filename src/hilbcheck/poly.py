"""Multivariate monomials, monomial orders, polynomials, and the text format.

Monomials are bare exponent tuples.  Polynomials are dicts from exponent
tuple to a nonzero field element, tagged with a VariableContext that fixes
the field and the variable names.  A context may be flagged dual, in which
case its elements are differential polynomials acting on the primal ring.
"""

import re
import sys
from math import comb, inf
from operator import add, ge, le, mul, neg

from .errors import ParseError, PreconditionError
from .fields import QT, field_from_tag

# --- monomial helpers (exponent tuples) ------------------------------------


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_deg(a):
    return sum(a)


def mono_coprime(a, b):
    # exponents are nonnegative, so min is 0 exactly when one of them is
    return not any(map(min, a, b))


class MonomialOrder:
    """Total order on monomials: grevlex, lex, or a weight order refined by
    grevlex.

    key(m) is the monomial's coordinates in the order: a flat tuple, linear
    in the exponents, that sorts as the order does.

    - grevlex: (|m|, -m_d, ..., -m_1);
    - lex: m;
    - weight w: (w.m, |m|, -m_d, ..., -m_1).

    So max() over coordinates picks the leading monomial with no key
    function, key(a b) = key(a) + key(b) entrywise, and a quotient is a
    difference of coordinates.  monomial(k) inverts key.  Divisibility
    reads the last d coordinates: a divides b exactly when
    all(map(order.within, key(b), order.divisor_bound(key(a)))).
    """

    __slots__ = ("kind", "weight", "within", "_prefix")

    def __init__(self, kind, weight=None):
        if kind not in ("grevlex", "lex", "weight"):
            raise ValueError(f"unknown order kind {kind!r}")
        if kind == "weight" and weight is None:
            raise ValueError("weight order needs a weight vector")
        self.kind = kind
        self.weight = tuple(weight) if weight is not None else None
        # the coordinates are a prefix of order data (weight, degree), then
        # the exponents: as they are under lex, else negated and reversed,
        # so that a multiple has the larger or the smaller ones
        self._prefix = ("lex", "grevlex", "weight").index(kind)
        self.within = ge if kind == "lex" else le

    def key(self, m):
        if self.kind == "grevlex":
            return (sum(m), *map(neg, reversed(m)))
        if self.kind == "lex":
            return m
        return (sum(map(mul, self.weight, m)), sum(m), *map(neg, reversed(m)))

    def monomial(self, k):
        """The monomial whose coordinates are k: the inverse of key."""
        p = self._prefix
        if not p:   # lex: the exponents as they are
            return tuple(k)
        return tuple(map(neg, k[:p - 1:-1]))

    def divisor_bound(self, k):
        """The coordinates k with their order prefix made unbounded: the
        multiples of monomial(k) are the coordinates c with
        all(map(self.within, c, bound))."""
        p = self._prefix
        return (inf,) * p + tuple(k[p:])

    def is_global(self, d):
        """True when every variable exceeds 1, i.e. the order is a well-order."""
        one = self.key((0,) * d)
        for i in range(d):
            e = [0] * d
            e[i] = 1
            if self.key(tuple(e)) <= one:
                return False
        return True

    def __repr__(self):
        if self.kind == "weight":
            return f"weight{self.weight}/grevlex"
        return self.kind

    def __eq__(self, other):
        return (isinstance(other, MonomialOrder) and self.kind == other.kind
                and self.weight == other.weight)

    def __hash__(self):
        return hash((self.kind, self.weight))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def weight_order(w):
    return MonomialOrder("weight", weight=w)


class VariableContext:
    """A polynomial ring presentation: coefficient field plus named variables."""

    __slots__ = ("field", "names", "dual")

    def __init__(self, field, names, dual=False):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if not names:
            raise ValueError("need at least one variable")
        self.field = field
        self.names = names
        self.dual = dual

    @property
    def d(self):
        return len(self.names)

    def dual_context(self):
        return VariableContext(self.field, self.names, dual=not self.dual)

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {(0,) * self.d: self.field.one})

    def const(self, c):
        if isinstance(c, int):
            c = self.field.from_int(c)
        if not c:
            return self.zero()
        return Polynomial(self, {(0,) * self.d: c})

    def variable(self, i):
        e = [0] * self.d
        e[i] = 1
        return Polynomial(self, {tuple(e): self.field.one})

    def variables(self):
        return [self.variable(i) for i in range(self.d)]

    def monomial(self, mono, coeff=1):
        if isinstance(coeff, int):
            coeff = self.field.from_int(coeff)
        if not coeff:
            return self.zero()
        return Polynomial(self, {tuple(mono): coeff})

    def __eq__(self, other):
        return (isinstance(other, VariableContext) and self.field == other.field
                and self.names == other.names and self.dual == other.dual)

    def __hash__(self):
        return hash((self.field, self.names, self.dual))

    def __repr__(self):
        star = "*" if self.dual else ""
        return f"{self.field}[{', '.join(self.names)}]{star}"


def context(field, names):
    if isinstance(names, str):
        names = names.split()
    return VariableContext(field, names)


def _mul_terms(a, b):
    """The term dict of the product of the term dicts a and b."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            c = c1 * c2
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
    return out


def _pow_terms(terms, e, ctx):
    """The term dict of terms^e, e >= 0, by square-and-multiply."""
    if len(terms) == 1:
        ((m, c),) = terms.items()
        return {tuple(e * x for x in m): c ** e}
    out, base = {(0,) * ctx.d: ctx.field.one}, terms
    while e:
        if e & 1:
            out = _mul_terms(out, base)
        e >>= 1
        if e:
            base = _mul_terms(base, base)
    return out


class Polynomial:
    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = {m: c for m, c in terms.items() if c}

    def _check(self, other):
        if self.ctx != other.ctx:
            raise PreconditionError("polynomials from different contexts")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.ctx == other.ctx and self.terms == other.terms

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return Polynomial(self.ctx, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = -c if s is None else s - c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return Polynomial(self.ctx, out)

    def __neg__(self):
        return Polynomial(self.ctx, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        return Polynomial(self.ctx, _mul_terms(self.terms, other.terms))

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative polynomial power")
        return Polynomial(self.ctx, _pow_terms(self.terms, e, self.ctx))

    def scale(self, c):
        if isinstance(c, int):
            c = self.ctx.field.from_int(c)
        if not c:
            return self.ctx.zero()
        return Polynomial(self.ctx, {m: c * x for m, x in self.terms.items()})

    def mul_term(self, mono, coeff):
        if not coeff:
            return self.ctx.zero()
        return Polynomial(self.ctx, {mono_mul(m, mono): coeff * c for m, c in self.terms.items()})

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(mono_deg(m) for m in self.terms)

    def is_homogeneous(self):
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) <= 1

    def weight_initial_form(self, w):
        """Sum of the terms of maximal w-weight; requires a nonzero input."""
        if not self.terms:
            raise PreconditionError("initial form of the zero polynomial")
        w = tuple(w)
        best = max(sum(wi * ei for wi, ei in zip(w, m)) for m in self.terms)
        return Polynomial(self.ctx, {
            m: c for m, c in self.terms.items()
            if sum(wi * ei for wi, ei in zip(w, m)) == best})

    def lm(self, order=GREVLEX):
        if not self.terms:
            return None
        return max(self.terms, key=order.key)

    def partial(self, i):
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                mm = list(m)
                mm[i] = e - 1
                mm = tuple(mm)
                add = c * self.ctx.field.from_int(e)
                s = out.get(mm)
                s = add if s is None else s + add
                if s:
                    out[mm] = s
                elif mm in out:
                    del out[mm]
        return Polynomial(self.ctx, out)

    def substitute(self, images):
        """Evaluate at polynomial images of the variables (same context).

        images is a list of them, or a `Substitution` of them, whose cache
        of their powers is then shared with every polynomial it is passed to."""
        sub = images if isinstance(images, Substitution) else Substitution(images)
        if len(sub.images) != self.ctx.d:
            raise PreconditionError("need one image per variable")
        # the terms' expansions accumulate into one term dict, as
        # Polynomial.__add__ would merge them, without copying the sum per term
        target = sub.target
        out = {}
        for m, c in self.terms.items():
            term = target.const(c)
            for i, e in enumerate(m):
                if e:
                    term = term * sub.power(i, e)
            for mm, x in term.terms.items():
                s = out.get(mm)
                s = x if s is None else s + x
                if s:
                    out[mm] = s
                elif mm in out:
                    del out[mm]
        return Polynomial(target, out)

    def evaluate(self, point):
        if len(point) != self.ctx.d:
            raise PreconditionError("need one value per variable")
        acc = self.ctx.field.zero
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                for _ in range(e):
                    v = v * point[i]
            acc = acc + v
        return acc

    def __repr__(self):
        return poly_str(self)


class Substitution:
    """Images of the variables, x_i -> images[i], for `Polynomial.substitute`,
    with a cache of their powers: each is built once, as the one before it
    times the image, however many polynomials are substituted."""

    def __init__(self, images):
        self.images = images
        self.target = images[0].ctx
        self.powers = [{0: self.target.one()} for _ in images]

    def power(self, i, e):
        cache = self.powers[i]
        if e not in cache:
            cache[e] = self.power(i, e - 1) * self.images[i]
        return cache[e]


# --- printing ----------------------------------------------------------------

_SIMPLE_COEFF = re.compile(r"^-?[0-9]+(/[0-9]+)?$")


def _mono_str(m, names):
    parts = []
    for name, e in zip(names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_str(p):
    """The text of p, its terms in decreasing grevlex order."""
    if not p.terms:
        return "0"
    names = p.ctx.names
    chunks = []
    for m, c in sorted(p.terms.items(), key=lambda mc: GREVLEX.key(mc[0]), reverse=True):
        mono = _mono_str(m, names)
        cs = str(c)
        simple = bool(_SIMPLE_COEFF.match(cs))
        if not mono:
            body = cs if simple else f"({cs})"
        elif simple and cs == "1":
            body = mono
        elif simple and cs == "-1":
            body = f"-{mono}"
        elif simple:
            body = f"{cs}*{mono}"
        else:
            body = f"({cs})*{mono}"
        if not chunks:
            chunks.append(body)
        elif body.startswith("-"):
            chunks.append("- " + body[1:])
        else:
            chunks.append("+ " + body)
    return " ".join(chunks)


# --- parsing -----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|[()+\-*/^])")
_BAD_CHAR = re.compile(r"[^\s\dA-Za-z_()+\-*/^]")      # no space, starts no token
_END = "$"      # the tokens past the last one: no token is "$"

# Fail-fast caps of the expression parser, checked before a power or a
# product is built, so that an input such as (x+y+z+w+1)^30 raises
# ParseError at once:
# - a power whose base is not a single monomial with coefficient +-1 takes an
#   exponent of at most EXPONENT_CAP;
# - no sum, product or power has more than TERM_CAP terms (for a power, by
#   the bound of `_power_cost`);
# - no product or power multiplies more than PRODUCT_CAP pairs of terms:
#   (x+1)^256*(x+3)^256, 66k pairs, took 0.6-0.75 s on a 2-core VM with the
#   pure-Python `fractions` backend.
# x^100000000 still parses.
EXPONENT_CAP = 256
TERM_CAP = 2_000
PRODUCT_CAP = 100_000


def _power_cost(p, d, e):
    """Bounds on the number of terms of p^e, p a term dict in d variables,
    and on the pairs of terms that `_pow_terms` multiplies to build it, along
    its square-and-multiply chain.  A power p^a has at most as many terms as
    there are multisets of a terms of p, and as monomials of degree at most
    a * deg p."""
    k, deg = len(p), max(map(sum, p))

    def terms(a):
        return min(comb(k + a - 1, a), comb(a * deg + d, d))

    pairs, a, b = 0, 0, 1       # the chain holds p^a and p^b
    while e:
        if e & 1:
            pairs += terms(a) * terms(b)
            a += b
        e >>= 1
        if e:
            pairs += terms(b) ** 2
            b *= 2
    return terms(a), pairs


class _Parser:
    """One pass over expr := ('+' | '-')* term (('+' | '-') term)*,
    term := factor (('*' | '/') factor)*, factor := '-' factor | atom ['^' int],
    atom := int | name | '(' expr ')' in one context.  The tokens are the
    strings of one `findall`; a value is a term dict {monomial: coefficient}
    with no zero coefficient, and `parse` makes the one Polynomial.  A
    token's column is found only for a ParseError, by tokenizing again.  An
    integer literal above Python's limit on the digits of a string that
    `int` converts (`sys.get_int_max_str_digits`) is refused first."""

    def __init__(self, ctx):
        self.ctx, field = ctx, ctx.field
        self.one, self.p, self.zero = field.one, field.modulus, (0,) * ctx.d
        # num / den for integers num and den, den nonzero in the field
        self.element = field.element if self.p is not None else \
            lambda num, den: field.from_int(num) / field.from_int(den)
        self.index = {name: i for i, name in enumerate(ctx.names)}

    def parse(self, text):
        bad = _BAD_CHAR.search(text)
        if bad:
            raise ParseError(f"unexpected character {bad.group()!r}", column=bad.start() + 1)
        self.text, self.toks, self.i = text, _TOKEN.findall(text) + [_END, _END], 0
        limit = sys.get_int_max_str_digits()
        if limit and len(max(self.toks, key=len)) > limit:
            for k, tok in enumerate(self.toks):
                if tok[0].isdecimal() and len(tok) > limit:
                    self.fail(f"integer literal of {len(tok)} digits, above the limit "
                              f"of {limit}", k)
        terms = self.expr()
        if self.toks[self.i] != _END:
            self.fail(None, self.i)
        return Polynomial(self.ctx, terms)

    def fail(self, message, k):
        """Raise a ParseError, "unexpected token" for message None, at the
        k-th token or past the end of the text."""
        tok = self.toks[k]
        if message is None:
            val = None if tok == _END else int(tok) if tok[0].isdecimal() else tok
            message = f"unexpected token {val!r}"
        ms = list(_TOKEN.finditer(self.text))
        raise ParseError(message, column=ms[k].start(1) + 1 if k < len(ms) else len(self.text) + 1)

    def expr(self):
        toks = self.toks
        sign = 1
        while toks[self.i] in ("+", "-"):
            sign = -sign if toks[self.i] == "-" else sign
            self.i += 1
        acc = self.term(sign)
        while toks[self.i] in ("+", "-"):
            k = self.i
            self.i += 1
            for m, c in self.term(1 if toks[k] == "+" else -1).items():
                s = acc.get(m)
                s = c if s is None else s + c
                if s:
                    acc[m] = s
                elif m in acc:
                    del acc[m]
            if len(acc) > TERM_CAP:
                self.fail(f"sum of more than {TERM_CAP} terms", k)
        return acc

    def term(self, sign):
        """The product of factors times sign: while they are single terms, the
        monomial exps times num / den * c, integer literals in num and den and
        other coefficients in the field element c (None for 1); else `terms`."""
        toks, index, zero = self.toks, self.index, self.zero
        exps, num, den, c, terms = [0] * len(zero), sign, 1, None, None
        op = k = None   # the operator before the factor and its token
        while True:
            i = self.i
            tok, after = toks[i], toks[i + 1]
            v = index.get(tok) if terms is None and op != "/" else None
            if v is not None and after != "^":
                exps[v] += 1
                self.i = i + 1
            elif v is not None and "0" <= toks[i + 2][0] <= "9":
                exps[v] += int(toks[i + 2])
                self.i = i + 3
            elif terms is None and "0" <= tok[0] <= "9" and after != "^":
                n = int(tok)
                self.i = i + 1
                if op != "/":
                    num *= n
                elif n % self.p if self.p else n:
                    den *= n
                else:
                    self.fail("division by zero", k)
            else:
                q = self.factor()
                if op == "/":
                    if len(q) > 1 or q and zero not in q:
                        self.fail("division by a non-constant", k)
                    if not q:
                        self.fail("division by zero", k)
                    if terms is None:
                        c = self.one / q[zero] if c is None else c / q[zero]
                    else:
                        terms = {m: x / q[zero] for m, x in terms.items()}
                elif terms is None and len(q) == 1:
                    ((m, x),) = q.items()
                    exps = list(map(add, exps, m))
                    c = x if c is None else c * x
                else:
                    # the first factor meets no cap: it has at most TERM_CAP terms
                    if terms is None:
                        terms = self.single(exps, num, den, c)
                    if len(terms) * len(q) > PRODUCT_CAP:
                        self.fail(f"product of more than {PRODUCT_CAP} pairs of terms", k)
                    terms = _mul_terms(terms, q)
                    if len(terms) > TERM_CAP:
                        self.fail(f"product of more than {TERM_CAP} terms", k)
            op = toks[self.i]
            if op != "*" and op != "/":
                return self.single(exps, num, den, c) if terms is None else terms
            k = self.i
            self.i += 1

    def single(self, exps, num, den, c):
        x = self.one if num == den else self.element(num, den)
        x = x if c is None else x * c
        return {tuple(exps): x} if x else {}

    def factor(self):
        toks = self.toks
        if toks[self.i] == "-":
            self.i += 1
            return {m: -c for m, c in self.factor().items()}
        p = self.atom()
        k = self.i
        if toks[k] != "^":
            return p
        if not toks[k + 1][0].isdecimal():
            self.fail("exponent must be a nonnegative integer", k + 1)
        e, self.i = int(toks[k + 1]), k + 2
        one = self.one
        if len(p) > 1 or any(c != one and c != -one for c in p.values()):
            if e > EXPONENT_CAP:
                self.fail(f"exponent {e} above {EXPONENT_CAP} on a base that is "
                          "not a monomial with coefficient +-1", k)
            terms, pairs = _power_cost(p, len(self.zero), e)
            if terms > TERM_CAP or pairs > PRODUCT_CAP:
                self.fail(f"power may have more than {TERM_CAP} terms or "
                          f"multiply more than {PRODUCT_CAP} pairs of terms", k)
        return _pow_terms(p, e, self.ctx)

    def atom(self):
        k = self.i
        tok, self.i = self.toks[k], k + 1
        v = self.index.get(tok)
        if v is not None:
            return {self.zero[:v] + (1,) + self.zero[v + 1:]: self.one}
        if tok[0].isdecimal():
            x = self.ctx.field.from_int(int(tok))
            return {self.zero: x} if x else {}
        if tok == "t" and self.ctx.field == QT:
            return {self.zero: QT.t}
        if tok[0] == "_" or tok[0].isalpha():
            self.fail(f"unknown variable {tok!r}", k)
        if tok != "(":
            self.fail(None, k)
        p = self.expr()
        if self.toks[self.i] != ")":
            self.fail("expected ')'", self.i)
        self.i += 1
        return p


def parse_polynomial(text, ctx):
    """Parse one polynomial in the ideal-file expression grammar."""
    return _Parser(ctx).parse(text)


# --- ideal file format --------------------------------------------------------


# words on the field line of each field tag: 'field Q' | 'field F <p>' | 'field Qt'
_FIELD_LINE_WORDS = {"Q": 2, "F": 3, "Qt": 2}


def parse_ideal_file(text):
    """Parse the ideal file format; returns (ctx, [Polynomial])."""
    lines = text.splitlines()
    meat = []
    for lineno, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            meat.append((lineno, body))
    if len(meat) < 3:
        raise ParseError("ideal file needs a field line, a vars line, and 'ideal:'")
    (_, field_line), (_, vars_line), (hdrno, header) = meat[0], meat[1], meat[2]
    ftok = field_line.split()
    if not ftok or ftok[0] != "field":
        raise ParseError("first line must be 'field Q' | 'field F <p>' | 'field Qt'", line=meat[0][0])
    if len(ftok) < 2 or len(ftok) != _FIELD_LINE_WORDS.get(ftok[1]):
        raise ParseError(f"bad field line {field_line!r}", line=meat[0][0])
    try:
        field = field_from_tag(ftok[1], *map(int, ftok[2:]))
    except ValueError as exc:
        raise ParseError(str(exc), line=meat[0][0])
    vtok = vars_line.split()
    if not vtok or vtok[0] != "vars" or len(vtok) < 2:
        raise ParseError("second line must be 'vars <name_1> ... <name_d>'", line=meat[1][0])
    names = vtok[1:]
    if field == QT and "t" in names:
        raise ParseError("'t' is the field parameter and cannot be a variable", line=meat[1][0])
    try:
        ctx = VariableContext(field, names)
    except ValueError as exc:
        raise ParseError(str(exc), line=meat[1][0]) from None
    if header != "ideal:":
        raise ParseError("expected 'ideal:' line", line=hdrno)
    polys, parser = [], _Parser(ctx)
    for lineno, body in meat[3:]:
        try:
            polys.append(parser.parse(body))
        except ParseError as exc:
            raise ParseError(f"{exc.args[0].split(' (line')[0]}", line=lineno,
                             column=exc.column) from None
    return ctx, polys


def format_ideal_file(ctx, polys, comment=None):
    lines = []
    if comment:
        for c in comment.splitlines():
            lines.append(f"# {c}")
    field = ctx.field
    lines.append(f"field {field.tag} {field.modulus}" if field.modulus else f"field {field.tag}")
    lines.append("vars " + " ".join(ctx.names))
    lines.append("ideal:")
    for p in polys:
        lines.append(poly_str(p))
    return "\n".join(lines) + "\n"


def parse_points_file(text, field, d=None):
    """One point per line, comma-separated field literals.  A ParseError in
    a coordinate gives its line, and its column in that line."""
    pts = []
    scratch = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        coords = body.split(",")
        if d is not None and len(coords) != d:
            raise ParseError(f"expected {d} coordinates, got {len(coords)}", line=lineno)
        if scratch is None:
            scratch = VariableContext(field, [f"_p{i}" for i in range(len(coords))])
        vals = []
        start = 0       # the column before the coordinate's text
        for c in coords:
            try:
                p = parse_polynomial(c, scratch)
            except ParseError as exc:
                raise ParseError(exc.args[0], line=lineno, column=start + exc.column) from None
            start += len(c) + 1
            c = c.strip()
            if p.degree() not in (None, 0):
                raise ParseError(f"coordinate {c!r} is not a constant", line=lineno)
            vals.append(p.terms.get((0,) * scratch.d, field.zero))
        pts.append(tuple(vals))
    if pts and len({len(p) for p in pts}) != 1:
        raise ParseError("points have inconsistent dimensions")
    return pts
