import pathlib
import random
import re
from math import comb

import pytest

from hilbcheck.errors import ParseError, PreconditionError
from hilbcheck.fields import GF, QQ, QT
from hilbcheck.poly import (EXPONENT_CAP, GREVLEX, LEX, PRODUCT_CAP, TERM_CAP, Polynomial,
                            Substitution, context, format_ideal_file, mono_divides, mono_mul,
                            parse_ideal_file, parse_points_file, parse_polynomial, poly_str,
                            weight_order)
from hilbcheck.scalars import rat


def test_parse_examples():
    ctx = context(QQ, "x1 x2 x3 x4")
    p = parse_polynomial("x1*x4 + x2*x3", ctx)
    assert p.terms == {(1, 0, 0, 1): QQ.one, (0, 1, 1, 0): QQ.one}
    assert not parse_polynomial("0", ctx)
    q = parse_polynomial("x1^2 - 2/3*x2", ctx)
    assert q.terms[(2, 0, 0, 0)] == QQ.one
    assert q.terms[(0, 1, 0, 0)] == rat(-2, 3)


def test_parse_errors():
    ctx = context(QQ, "x y")
    with pytest.raises(ParseError):
        parse_polynomial("x + w", ctx)
    with pytest.raises(ParseError):
        parse_polynomial("x^y", ctx)
    with pytest.raises(ParseError):
        parse_polynomial("x/(y+1)", ctx)
    with pytest.raises(ParseError):
        parse_polynomial("t*x", ctx)   # t only under the function field
    with pytest.raises(ParseError):
        parse_polynomial("x +", ctx)


def test_parse_caps_refuse_large_powers_and_products():
    ctx = context(QQ, "x y z w")
    # a power of a monomial with coefficient +-1 is never capped
    assert parse_polynomial("x^100000000", ctx).terms == {(100000000, 0, 0, 0): QQ.one}
    assert len(parse_polynomial("(-x*y)^1000001", ctx).terms) == 1
    assert len(parse_polynomial("(x+y+z+w+1)^12", ctx).terms) == 1820
    assert len(parse_polynomial(f"(x+1)^{EXPONENT_CAP}", ctx).terms) == EXPONENT_CAP + 1
    assert len(parse_polynomial(f"(2*x)^{EXPONENT_CAP}", ctx).terms) == 1
    with pytest.raises(ParseError, match="exponent"):
        parse_polynomial(f"(2*x)^{EXPONENT_CAP + 1}", ctx)
    with pytest.raises(ParseError, match=str(TERM_CAP)):
        parse_polynomial("(x+y+z+w+1)^30", ctx)
    with pytest.raises(ParseError, match=str(PRODUCT_CAP)):
        parse_polynomial("(x+y+z+w+1)^8*(x-y+z-w+2)^8", ctx)
    with pytest.raises(ParseError, match=str(TERM_CAP)):
        parse_polynomial(" + ".join(f"x^{i}" for i in range(TERM_CAP + 1)), ctx)
    assert len(parse_polynomial(" + ".join(f"x^{i}" for i in range(TERM_CAP)), ctx).terms) \
        == TERM_CAP

def test_parse_a_sum_without_adding_polynomials(monkeypatch):
    ctx = context(QQ, "x y")
    text = " + ".join(f"x^{i}*y" for i in range(100))
    expected = {(i, 1): QQ.one for i in range(100)}
    calls = []
    for name in ("__add__", "__sub__"):
        fn = getattr(Polynomial, name)
        monkeypatch.setattr(Polynomial, name, lambda p, q, fn=fn, name=name:
                            calls.append(name) or fn(p, q))
    p = parse_polynomial(text, ctx)
    assert p.terms == expected and list(p.terms) == list(expected)
    assert calls == []
    # a power of one term is that term, as square-and-multiply would build it
    q = parse_polynomial("(-2/3*x*y^2)^5", ctx)
    assert q.terms == {(5, 10): rat(-32, 243)}


def random_poly(ctx, rng, nterms=5, maxdeg=3):
    terms = {}
    for _ in range(nterms):
        m = tuple(rng.randint(0, maxdeg) for _ in range(ctx.d))
        c = rat(rng.randint(-9, 9), rng.randint(1, 4))
        if c:
            terms[m] = c
    return ctx.zero() + ctx.monomial((0,) * ctx.d, 0) if not terms else \
        type(ctx.zero())(ctx, terms)


def test_print_parse_roundtrip_random():
    rng = random.Random(99)
    ctx = context(QQ, "x y z")
    for _ in range(40):
        p = random_poly(ctx, rng)
        assert parse_polynomial(poly_str(p), ctx) == p
    ctxp = context(GF(11), "a b")
    for _ in range(20):
        terms = {(rng.randint(0, 3), rng.randint(0, 3)): ctxp.field.from_int(rng.randint(1, 10))
                 for _ in range(4)}
        p = type(ctxp.zero())(ctxp, terms)
        assert parse_polynomial(poly_str(p), ctxp) == p


def test_roundtrip_function_field():
    ctx = context(QT, "x1 x2")
    for text in ["x1 + (t)*x2", "(t^2 - 1)/(t + 2)*x1^3 - 5*x2",
                 "x1*x2 - (2*t)*x1"]:
        p = parse_polynomial(text, ctx)
        assert parse_polynomial(poly_str(p), ctx) == p


def _compare(order, a, b):
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def test_compare_examples():
    assert _compare(GREVLEX, (2, 0), (1, 1)) == 1      # x^2 > xy
    assert _compare(LEX, (1, 0), (0, 1)) == 1          # x > y
    w = weight_order((7, 5, 3))
    # z^4 and xy tie at weight 12; grevlex tiebreak ranks z^4 higher by degree
    assert sum(wi * ei for wi, ei in zip((7, 5, 3), (0, 0, 4))) == \
        sum(wi * ei for wi, ei in zip((7, 5, 3), (1, 1, 0))) == 12
    assert _compare(w, (0, 0, 4), (1, 1, 0)) == 1


def test_compare_total_order_random():
    rng = random.Random(4)
    orders = [GREVLEX, LEX, weight_order((3, 1, 2))]
    for order in orders:
        for _ in range(60):
            a, b, c = (tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(3))
            assert _compare(order, a, b) == -_compare(order, b, a)
            if _compare(order, a, b) >= 0 and _compare(order, b, c) >= 0:
                assert _compare(order, a, c) >= 0
            assert (_compare(order, a, b) == 0) == (a == b)


def _sign(x):
    return (x > 0) - (x < 0)


def _reference_compare(kind, a, b, weight=None):
    """The order by its textbook definition, not by key."""
    if kind == "weight":
        by_weight = _sign(sum(w * (x - y) for w, x, y in zip(weight, a, b)))
        return by_weight or _reference_compare("grevlex", a, b)
    diff = [x - y for x, y in zip(a, b)]
    if kind == "lex":
        return next((_sign(e) for e in diff if e), 0)
    # grevlex: higher degree wins, then the smaller last differing exponent
    return _sign(sum(diff)) or next((-_sign(e) for e in reversed(diff) if e), 0)


@pytest.mark.parametrize("kind,weight", [
    ("grevlex", None), ("lex", None), ("weight", (2, 1, 3, 1))],
    ids=["grevlex", "lex", "weight"])
def test_order_coordinates_are_linear_and_invertible(kind, weight):
    # key(m) sorts as the order, adds under products and inverts through
    # monomial; the divisor bound tests divisibility in coordinates
    order = GREVLEX if kind == "grevlex" else LEX if kind == "lex" \
        else weight_order(weight)
    rng = random.Random(4040)
    for _ in range(300):
        a, c = (tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(2))
        # a multiple of a half of the time, so that divisibility holds often
        b = mono_mul(a, c) if rng.random() < 0.5 else tuple(rng.randint(0, 5) for _ in range(4))
        ka, kb = order.key(a), order.key(b)
        assert (ka > kb) - (ka < kb) == _reference_compare(kind, a, b, weight)
        assert order.key(mono_mul(a, c)) == tuple(x + y for x, y in zip(ka, order.key(c)))
        assert order.monomial(ka) == a and order.monomial(kb) == b
        assert all(map(order.within, kb, order.divisor_bound(ka))) == mono_divides(a, b)


def test_order_globality():
    assert GREVLEX.is_global(3)
    assert LEX.is_global(3)
    assert weight_order((1, 0, 0)).is_global(3)
    assert not weight_order((-1, -1, -1)).is_global(3)


def test_weight_initial_form():
    ctx = context(QQ, "x y z")
    f = parse_polynomial("x + x^2 + z^2", ctx)
    assert f.weight_initial_form((1, 1, 1)) == parse_polynomial("x^2 + z^2", ctx)
    mono = parse_polynomial("x*y^2", ctx)
    assert mono.weight_initial_form((5, -1, 2)) == mono
    g = parse_polynomial("x + y", ctx)
    assert g.weight_initial_form((1, 1, 0)) == g   # tie keeps both terms
    with pytest.raises(PreconditionError):
        ctx.zero().weight_initial_form((1, 1, 1))


def test_weight_initial_form_properties():
    rng = random.Random(17)
    ctx = context(QQ, "x y")
    for _ in range(30):
        w = (rng.randint(-3, 3), rng.randint(-3, 3))
        f = random_poly(ctx, rng)
        g = random_poly(ctx, rng)
        if not f or not g:
            continue
        inf = f.weight_initial_form(w)
        assert inf.weight_initial_form(w) == inf              # idempotent
        assert (f * g).weight_initial_form(w) == \
            inf * g.weight_initial_form(w)                    # multiplicative


def test_ideal_file_roundtrip_and_errors():
    ctx = context(QQ, "x y")
    polys = [parse_polynomial("x^2 - y", ctx), parse_polynomial("y^2", ctx)]
    text = format_ideal_file(ctx, polys, comment="two generators")
    ctx2, polys2 = parse_ideal_file(text)
    assert ctx2 == ctx and polys2 == polys
    with pytest.raises(ParseError):
        parse_ideal_file("vars x y\nideal:\n")
    with pytest.raises(ParseError):
        parse_ideal_file("field Q\nvars x x\nideal:\n")
    with pytest.raises(ParseError):
        parse_ideal_file("field F 4\nvars x\nideal:\n")
    with pytest.raises(ParseError):
        parse_ideal_file("field Qt\nvars t x\nideal:\n")
    bad = "field Q\nvars x y\nideal:\nx^2 + w\n"
    with pytest.raises(ParseError) as err:
        parse_ideal_file(bad)
    assert err.value.line == 4


def test_points_file():
    pts = parse_points_file("0, 0\n1/2, -3\n", QQ, d=2)
    assert pts == [(rat(0), rat(0)), (rat(1, 2), rat(-3))]
    with pytest.raises(ParseError):
        parse_points_file("1, 2\n3\n", QQ, d=2)


def test_substitute_and_partial():
    ctx = context(QQ, "x y")
    f = parse_polynomial("x^2*y - 3*y", ctx)
    assert f.partial(0) == parse_polynomial("2*x*y", ctx)
    assert f.partial(1) == parse_polynomial("x^2 - 3", ctx)
    shifted = f.substitute([ctx.variable(0) + ctx.one(), ctx.variable(1)])
    assert shifted == parse_polynomial("(x+1)^2*y - 3*y", ctx)
    assert f.evaluate([rat(2), rat(5)]) == rat(4 * 5 - 15)


def _substitute_by_fold(f, images):
    """The reference substitution: each term's expansion added to a running
    sum, which `+` copies once per term."""
    target = images[0].ctx
    powers = [{0: target.one()} for _ in images]

    def power(i, e):
        if e not in powers[i]:
            powers[i][e] = power(i, e - 1) * images[i]
        return powers[i][e]

    out = target.zero()
    for m, c in f.terms.items():
        term = target.const(c)
        for i, e in enumerate(m):
            if e:
                term = term * power(i, e)
        out = out + term
    return out


def _random_element(field, rng):
    c = field.from_int(rng.randint(-4, 4))
    if field == QQ:
        return c / field.from_int(rng.randint(1, 3))
    return c + field.t * field.from_int(rng.randint(-1, 1)) if field == QT else c


@pytest.mark.parametrize("field", [QQ, GF(7), QT], ids=str)
def test_substitute_matches_the_running_sum(field):
    rng = random.Random(2204 + (field.modulus or 0))
    ctx = context(field, "x y z")
    xs = ctx.variables()
    cancelled = 0
    for _ in range(40):
        f = Polynomial(ctx, {tuple(rng.randint(0, 3) for _ in range(3)): _random_element(field, rng)
                             for _ in range(rng.randint(1, 8))})
        # images: a variable, a translated variable, a scaled monomial, or a
        # short sum of variables, so terms merge and cancel
        images = []
        for i in range(3):
            kind = rng.randrange(4)
            if kind == 0:
                images.append(xs[rng.randrange(3)])
            elif kind == 1:
                images.append(xs[i] + ctx.const(_random_element(field, rng)))
            elif kind == 2:
                images.append(ctx.monomial((rng.randint(0, 2), 1, 0), _random_element(field, rng)))
            else:
                images.append(xs[0].scale(_random_element(field, rng)) + xs[rng.randrange(3)])
        got, ref = f.substitute(images), _substitute_by_fold(f, images)
        assert got.terms == ref.terms and list(got.terms) == list(ref.terms)
        cancelled += len(got.terms) < len(f.terms)
    assert cancelled


def test_one_substitution_per_image_list_matches_per_call_substitute(monkeypatch):
    # translate_ideal and change_coordinates share one power cache over the
    # generators; each generator must come out as its own substitute would
    from hilbcheck.artin import translate_ideal
    from hilbcheck.fixtures import random_invertible_matrix
    from hilbcheck.groebner import Ideal
    from hilbcheck.smooth import change_coordinates

    made = []
    init = Substitution.__init__
    monkeypatch.setattr(Substitution, "__init__",
                        lambda self, images: made.append(1) or init(self, images))
    data = pathlib.Path(__file__).resolve().parent.parent / "src" / "hilbcheck" / "data"
    texts = [f.read_text() for f in sorted(data.glob("*.ideal"))]
    texts += [r.text for r in _perfbench_workloads().make_requests("classify", 7, 1)]
    gens = 0
    for k, text in enumerate(texts):
        ctx, polys = parse_ideal_file(text)
        I = Ideal(ctx, polys)
        field = ctx.field
        a = [field.from_int(k % 3 - 1) / field.from_int(i + 1) for i in range(ctx.d)]
        a[0] = field.one
        g = random_invertible_matrix(k, ctx.d, field)
        xs = ctx.variables()
        change = [sum((xs[j].scale(g[i][j]) for j in range(ctx.d)), ctx.zero())
                  for i in range(ctx.d)]
        shift = [x + ctx.const(ai) for x, ai in zip(xs, a)]
        for move, images in ((lambda: translate_ideal(I, a), shift),
                             (lambda: change_coordinates(I, g), change)):
            made.clear()
            moved = move()
            assert made == [1]
            for p, q in zip(moved.gens, I.gens):
                ref = q.substitute(images)
                assert p.terms == ref.terms and list(p.terms) == list(ref.terms)
            gens += len(I.gens)
    assert gens > 100


_REF_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")
_REF_TOKEN_KINDS = (None, "int", "name", "op")


class _ReferenceParser:
    """An independent reference parser for the same grammar, built the
    direct way: (kind, value, column) tokens, a Polynomial per atom and one
    Polynomial product per factor.  It differs from `poly._Parser` in one
    known place: it puts the column of an unexpected character at the
    whitespace before the character."""

    def __init__(self, text, ctx):
        self.text = text
        self.ctx = ctx
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _REF_TOKEN.match(text, pos)
            if m is None:
                rest = text[pos:].strip()
                if not rest:
                    break
                raise ParseError(f"unexpected character {rest[0]!r}", column=pos + 1)
            g = m.lastindex
            self.tokens.append((_REF_TOKEN_KINDS[g], int(m.group(g)) if g == 1 else m.group(g),
                                m.start(g)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("end", None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self):
        p = self.expr()
        kind, val, col = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", column=col + 1)
        return p

    def expr(self):
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                if val == "-":
                    sign = -sign
            else:
                break
        acc = {m: -c if sign < 0 else c for m, c in self.term().terms.items()}
        while True:
            kind, val, col = self.peek()
            if kind != "op" or val not in "+-":
                return Polynomial(self.ctx, acc)
            self.next()
            for m, c in self.term().terms.items():
                s = acc.get(m)
                c = c if val == "+" else -c
                s = c if s is None else s + c
                if s:
                    acc[m] = s
                elif m in acc:
                    del acc[m]
            if len(acc) > TERM_CAP:
                raise ParseError(f"sum of more than {TERM_CAP} terms", column=col + 1)

    def term(self):
        p = self.factor()
        while True:
            kind, val, col = self.peek()
            if kind == "op" and val == "*":
                self.next()
                q = self.factor()
                if len(p.terms) * len(q.terms) > PRODUCT_CAP:
                    raise ParseError(f"product of more than {PRODUCT_CAP} pairs of terms",
                                     column=col + 1)
                p = p * q
                if len(p.terms) > TERM_CAP:
                    raise ParseError(f"product of more than {TERM_CAP} terms", column=col + 1)
            elif kind == "op" and val == "/":
                self.next()
                q = self.factor()
                if q.degree() not in (None, 0):
                    raise ParseError("division by a non-constant", column=col + 1)
                if not q:
                    raise ParseError("division by zero", column=col + 1)
                c = q.terms[(0,) * q.ctx.d]
                p = p.scale(self.ctx.field.one / c)
            else:
                return p

    def factor(self):
        kind, val, col = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return -self.factor()
        p = self.atom()
        kind, val, col = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, e, ecol = self.next()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", column=ecol + 1)
            one = self.ctx.field.one
            if len(p.terms) > 1 or any(c != one and c != -one for c in p.terms.values()):
                if e > EXPONENT_CAP:
                    raise ParseError(f"exponent {e} above {EXPONENT_CAP} on a base that is "
                                     "not a monomial with coefficient +-1", column=col + 1)
                terms, pairs = _reference_power_cost(p, e)
                if terms > TERM_CAP or pairs > PRODUCT_CAP:
                    raise ParseError(f"power may have more than {TERM_CAP} terms or "
                                     f"multiply more than {PRODUCT_CAP} pairs of terms",
                                     column=col + 1)
            p = p ** e
        return p

    def atom(self):
        kind, val, col = self.next()
        if kind == "int":
            return self.ctx.const(val)
        if kind == "name":
            if val in self.ctx.names:
                return self.ctx.variable(self.ctx.names.index(val))
            if val == "t" and self.ctx.field == QT:
                return self.ctx.const(QT.t)
            raise ParseError(f"unknown variable {val!r}", column=col + 1)
        if kind == "op" and val == "(":
            p = self.expr()
            kind, val, col = self.next()
            if kind != "op" or val != ")":
                raise ParseError("expected ')'", column=col + 1)
            return p
        raise ParseError(f"unexpected token {val!r}", column=col + 1)


def _reference_power_cost(p, e):
    """The bounds of `poly._power_cost` on the terms of p^e and the pairs of
    terms multiplied along its square-and-multiply chain."""
    k, d, deg = len(p.terms), p.ctx.d, p.degree()

    def terms(a):
        return min(comb(k + a - 1, a), comb(a * deg + d, d))

    pairs, a, b = 0, 0, 1
    while e:
        if e & 1:
            pairs += terms(a) * terms(b)
            a += b
        e >>= 1
        if e:
            pairs += terms(b) ** 2
            b *= 2
    return terms(a), pairs


def _expression_lines(text, skip):
    bodies = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    return [b for b in bodies if b][skip:]


def _perfbench_workloads():
    import importlib.util
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parser_builds_the_same_term_dicts_as_pairwise_products():
    data = pathlib.Path(__file__).resolve().parent.parent / "src" / "hilbcheck" / "data"
    texts = [f.read_text() for f in sorted(data.glob("*.ideal"))]
    workloads = _perfbench_workloads()
    texts += [r.text for workload in ("classify", "tangent")
              for r in workloads.make_requests(workload, 7, 1)]
    lines = 0
    for text in texts:
        ctx, polys = parse_ideal_file(text)
        bodies = _expression_lines(text, 3)
        assert len(bodies) == len(polys)
        for body, p in zip(bodies, polys):
            ref = _ReferenceParser(body, ctx).parse()
            assert p.terms == ref.terms and list(p.terms) == list(ref.terms), body
            lines += 1
    point_ctx = context(QQ, ["_p0"])
    for body in _expression_lines((data / "points8.pts").read_text(), 0):
        for c in body.split(","):
            ref = _ReferenceParser(c, point_ctx).parse()
            assert parse_polynomial(c, point_ctx).terms == ref.terms
    assert lines > 200
    # the caps and their columns are those of the pairwise parser
    ctx = context(QQ, "x y z w")
    for text in ("(x+y+z+w+1)^8*(x-y+z-w+2)^8", "x*y*(x+y+z+w+1)^8*(x-y+z-w+2)^8",
                 "2*x^3*y/0", "x*y/(x+1)", "x*y^z", "3*x*q"):
        with pytest.raises(ParseError) as new:
            parse_polynomial(text, ctx)
        with pytest.raises(ParseError) as old:
            _ReferenceParser(text, ctx).parse()
        assert str(new.value) == str(old.value) and new.value.column == old.value.column


def test_unexpected_character_reports_its_own_column():
    ctx = context(QQ, "x y")
    for text, column in (("x +   $", 7), ("x+$", 3), ("\t\té*x", 3), ("x*y .", 5)):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_polynomial(text, ctx)
        assert err.value.column == column
    with pytest.raises(ParseError) as err:
        parse_ideal_file("field Q\nvars x y\nideal:\nx^2 +  y ,\n")
    assert (err.value.line, err.value.column) == (4, 10)


def test_parse_makes_one_polynomial_per_generator(monkeypatch):
    made = []
    init = Polynomial.__init__
    monkeypatch.setattr(Polynomial, "__init__",
                        lambda self, ctx, terms: made.append(1) or init(self, ctx, terms))
    for r in _perfbench_workloads().make_requests("classify", 7, 1):
        made.clear()
        ctx, polys = parse_ideal_file(r.text)
        assert len(made) == len(polys) > 0


# expressions with groups, powers, divisions and signs, beside the bundled
# and generated lines, for the mutation test
_GROUPED_LINES = ("(x1 + 2*x2 - x3)^3", "x1^2*(x2 - 1/2)/3 - -(x3)^2*2^3",
                  "(x1 - x2)*(x1 + x2)^2/(2) + x4^0 - 7/14*(-x1)", "-(x1*x2 - 3)^2/(4/6)*x3",
                  "2^5*x1/(3^2)*(x2 + x4)*x3^2 + (0)*x1", "(x1 + x2)*(x3 - x4)*(x1 - 2)/5",
                  "3*x1*x2/14 - x3", "x1 - 7*x2*(x3 + x4) + 14/(7 - 14)")


def _mutated(line, rng):
    chars = list(line)
    for _ in range(rng.randint(1, 3)):
        kind, pos = rng.randrange(3), rng.randrange(len(chars) + 1)
        if kind == 1 or not chars:
            chars.insert(pos, rng.choice("()+-*/^ 0123456789xyt_$.,é\t"))
        elif kind == 0:
            del chars[min(pos, len(chars) - 1)]
        else:
            chars[min(pos, len(chars) - 1)] = rng.choice("()+-*/^ 0123456789xyt_$.,é\t")
    return "".join(chars)


def test_parser_agrees_with_the_reference_on_seeded_mutations():
    data = pathlib.Path(__file__).resolve().parent.parent / "src" / "hilbcheck" / "data"
    texts = [f.read_text() for f in sorted(data.glob("*.ideal"))]
    workloads = _perfbench_workloads()
    texts += [r.text for workload in ("classify", "tangent")
              for r in workloads.make_requests(workload, 7, 1)]
    corpus = []
    for text in texts:
        ctx, _ = parse_ideal_file(text)
        corpus += [(ctx, line) for line in _expression_lines(text, 3)]
    corpus += [(context(QQ, "x1 x2 x3 x4"), line) for line in _GROUPED_LINES]
    rng = random.Random(2929)
    seen = {"same terms": 0, "same error": 0, "moved column": 0}
    # the grouped lines as they are, over each field, then 2,000 mutations
    cases = [(context(field, "x1 x2 x3 x4"), line, False)
             for field in (QQ, GF(7), QT) for line in _GROUPED_LINES]
    cases += [rng.choice(corpus) + (True,) for _ in range(2000)]
    for ctx, line, mutate in cases:
        # the file's own field, or its variables over F_7 or over Q(t)
        field = rng.choice([ctx.field, GF(7)] + [QT] * ("t" not in ctx.names)) if mutate \
            else ctx.field
        ctx = context(field, list(ctx.names))
        text = _mutated(line, rng) if mutate else line
        try:
            ref = _ReferenceParser(text, ctx).parse()
        except ParseError as exc:
            ref = exc
        try:
            got = parse_polynomial(text, ctx)
        except ParseError as exc:
            got = exc
        if isinstance(ref, Polynomial):
            assert isinstance(got, Polynomial), text
            assert got.terms == ref.terms and list(got.terms) == list(ref.terms), text
            seen["same terms"] += 1
            continue
        assert isinstance(got, ParseError) and str(got) == str(ref), text
        if got.column == ref.column:
            seen["same error"] += 1
            continue
        # the reference puts an unexpected character at the whitespace before it
        assert str(got).startswith("unexpected character"), text
        assert repr(text[got.column - 1]) in str(got), text
        assert not text[ref.column - 1:got.column - 1].strip(), text
        seen["moved column"] += 1
    assert min(seen.values()) > 20, seen


def test_product_cap_bounds_the_pairs_exactly():
    ctx = context(GF(7), "x")
    a, b = (" + ".join(f"x^{i}" for i in range(n)) for n in (400, 250))
    assert parse_polynomial(f"({a})*({b})", ctx).degree() == 648   # 100,000 pairs
    with pytest.raises(ParseError, match=f"more than {PRODUCT_CAP} pairs") as err:
        parse_polynomial(f"({a} + x^400)*({b})", ctx)
    assert err.value.column == len(a) + len(" + x^400") + 3
