import random
import sys
from itertools import product

import pytest

from hilbcheck.errors import PreconditionError
from hilbcheck.fields import GF, QQ, QT
from hilbcheck.fixtures import (graded_143_fixtures, random_invertible_matrix,
                                random_points, seven_quadrics_ideal, squares_cube_ideal,
                                weight753_ideal, degeneration_chain)
from hilbcheck import artin
from hilbcheck.artin import (HilbertFunction, IndeterminateSupport, centroid, charpoly,
                             embedding_reduction, enumerate_local_hfs, is_primary_at_origin,
                             local_hilbert_function, multiplication_operators, rational_roots,
                             split_rational_support, translate_ideal)
from hilbcheck.groebner import Ideal, buchberger, ideal_equal, intersect, points_ideal
from hilbcheck.linalg import DenseMatrix, kernel_basis, row_product, rref
from hilbcheck.poly import Polynomial, context, parse_polynomial
from hilbcheck.scalars import rat
from hilbcheck.smooth import change_coordinates
from hilbcheck.tangent import tangent_dimension
from hilbcheck.upoly import zdivmod


def P(s, ctx):
    return parse_polynomial(s, ctx)


def ideal(ctx, *texts):
    return Ideal(ctx, [P(s, ctx) for s in texts])


def field_rows(op, field):
    """The rows of field elements of the working operator op = (rows, den)."""
    rows, den = op
    if field.modulus is None:
        return rows
    return [[field.element(x, den) for x in row] for row in rows]


def working(field, rows):
    """The working operator of the square matrix with these rows."""
    return artin._working(DenseMatrix(field, rows).rows, field)


def matmul(a, b, field):
    """The product of the matrices with rows of field elements a and b."""
    return [[sum((x * y for x, y in zip(row, col)), field.zero) for col in zip(*b)] for row in a]


def test_multiplication_operators_jordan_and_point():
    c1 = context(QQ, "x")
    m = multiplication_operators(buchberger(ideal(c1, "x^2")))
    X = field_rows(m.ops[0], QQ)
    assert X == DenseMatrix(QQ, [[0, 0], [1, 0]]).rows   # nilpotent of size 2
    m2 = multiplication_operators(buchberger(ideal(c1, "x - 5")))
    assert field_rows(m2.ops[0], QQ) == [[rat(5)]]


def test_operators_commute_and_are_nilpotent():
    G = buchberger(seven_quadrics_ideal(4))
    m = multiplication_operators(G)
    X = [field_rows(op, QQ) for op in m.ops]
    for i in range(4):
        for j in range(i + 1, 4):
            assert matmul(X[i], X[j], QQ) == matmul(X[j], X[i], QQ)
        power = DenseMatrix(QQ, [[int(r == c) for c in range(m.n)] for r in range(m.n)]).rows
        for _ in range(m.n):
            power = matmul(X[i], power, QQ)
        assert power == [[QQ.zero] * m.n for _ in range(m.n)]


def test_column_at_one_is_variable():
    ctx = context(QQ, "x y")
    G = buchberger(ideal(ctx, "x^2 - y", "y^2"))
    m = multiplication_operators(G)
    one_col = m.qb.index[(0, 0)]
    x_vec = [field_rows(m.ops[0], QQ)[i][one_col] for i in range(m.n)]
    assert x_vec == [rat(1) if mono == (1, 0) else rat(0) for mono in m.qb]


def test_centroid():
    ctx = context(QQ, "x y")
    from hilbcheck.groebner import points_ideal
    G = points_ideal([(0, 0), (2, 4)], ctx)
    assert centroid(multiplication_operators(G)) == (rat(1), rat(2))
    m = multiplication_operators(buchberger(seven_quadrics_ideal(4)))
    assert centroid(m) == (QQ.zero,) * 4
    rng = random.Random(2)
    pts = random_points(rng.randint(0, 10 ** 9))
    ctx4 = context(QQ, "x1 x2 x3 x4")
    from hilbcheck.groebner import points_ideal as pi
    G8 = pi(pts, ctx4)
    mean = tuple(sum((q[i] for q in pts), start=rat(0)) / rat(8) for i in range(4))
    assert centroid(multiplication_operators(G8)) == mean


def test_centroid_characteristic_guard():
    F = GF(5)
    ctx = context(F, "x")
    I = ideal(ctx, "x^5")
    with pytest.raises(PreconditionError):
        centroid(multiplication_operators(buchberger(I)))


def test_translate_roundtrip():
    ctx = context(QQ, "x y")
    I = ideal(ctx, "x^2 - y", "y^2 - 3")
    a = [rat(2), rat(-1, 2)]
    back = translate_ideal(translate_ideal(I, a), [-v for v in a])
    assert ideal_equal(back, I)
    assert ideal_equal(translate_ideal(ideal(context(QQ, "x"), "x - 1"), [1]),
                       ideal(context(QQ, "x"), "x"))
    # a zero translation hands back the ideal itself, so a basis stays a basis
    G = buchberger(I)
    assert translate_ideal(G, [0, 0]) is G
    assert translate_ideal(G, [QQ.zero, QQ.zero]) is G


def test_recentering_kills_traces():
    rng = random.Random(6)
    ctx = context(QQ, "x1 x2 x3 x4")
    from hilbcheck.groebner import points_ideal
    pts = random_points(rng.randint(0, 10 ** 9))
    G = points_ideal(pts, ctx)
    I = Ideal(ctx, G.elements)
    center = centroid(multiplication_operators(G))
    m2 = multiplication_operators(buchberger(translate_ideal(I, center)))
    assert all(not sum(row[i] for i, row in enumerate(field_rows(X, QQ))) for X in m2.ops)


def test_local_hilbert_functions():
    c3 = context(QQ, "x y z")
    assert local_hilbert_function(ideal(c3, "x^2", "y^2", "z^2")) == (1, 3, 3, 1)
    assert local_hilbert_function(weight753_ideal()) == (1, 3, 2, 1, 1)
    assert local_hilbert_function(seven_quadrics_ideal(4)) == (1, 4, 3)
    assert local_hilbert_function(seven_quadrics_ideal(6)) == (1, 4, 3)
    assert sum(local_hilbert_function(squares_cube_ideal())) == 7
    with pytest.raises(PreconditionError):
        local_hilbert_function(ideal(context(QQ, "x"), "x^2 - x"))


def test_hilbert_function_type():
    h = HilbertFunction([1, 4, 3, 0, 0])
    assert h == (1, 4, 3)
    assert h.colength() == 8
    assert repr(h) == "(1,4,3)"


def test_is_primary_at_origin():
    c2 = context(QQ, "x y")
    assert is_primary_at_origin(ideal(c2, "x^2", "y^2"))
    assert not is_primary_at_origin(ideal(context(QQ, "x"), "x^2 - x"))
    assert is_primary_at_origin(seven_quadrics_ideal(5))


def test_charpoly_and_roots():
    m = working(QQ, [[0, 0], [1, 1]])
    assert charpoly(m, QQ) == [rat(1), rat(-1), rat(0)]   # x^2 - x
    roots = rational_roots(charpoly(m, QQ), QQ)
    assert roots == {rat(0): 1, rat(1): 1}
    # (x-2)^2 (x+1/3)
    m2 = working(QQ, [[2, 1, 0], [0, 2, 0], [0, 0, rat(-1, 3)]])
    roots2 = rational_roots(charpoly(m2, QQ), QQ)
    assert roots2 == {rat(2): 2, rat(-1, 3): 1}
    F = GF(7)
    m3 = working(F, [[F.from_int(3), F.zero], [F.zero, F.from_int(3)]])
    assert rational_roots(charpoly(m3, F), F) == {F.from_int(3): 2}


def test_split_two_points():
    c1 = context(QQ, "x")
    pieces = split_rational_support(ideal(c1, "x^2 - x"))
    assert [(pt, [str(g) for g in piece.gens]) for pt, piece in pieces] == \
        [((rat(0),), ["x"]), ((rat(1),), ["x - 1"])]


def test_split_primary_is_singleton():
    pieces = split_rational_support(seven_quadrics_ideal(4))
    assert len(pieces) == 1
    assert pieces[0][0] == (QQ.zero,) * 4
    assert ideal_equal(pieces[0][1], seven_quadrics_ideal(4))


def test_split_chain_fixture():
    # the colength-n ideal from the chain stratum splits off one simple point
    I, J, (J1, J2), w = degeneration_chain(3, 3)
    pieces = split_rational_support(J)
    sizes = sorted(buchberger(p).colength() for _, p in pieces)
    n = buchberger(J).colength()
    assert sizes == [1, n - 1]
    inter = None
    for _, p in pieces:
        inter = p if inter is None else intersect(inter, p)
    assert ideal_equal(inter, J)
    # pairwise coprime: the sum of the two pieces is the unit ideal
    both = Ideal(J.ctx, list(pieces[0][1].gens) + list(pieces[1][1].gens))
    assert not buchberger(both).normal_form(J.ctx.one())


def test_split_points_ideal():
    rng = random.Random(31)
    ctx = context(QQ, "x y")
    from hilbcheck.groebner import points_ideal
    pts = random_points(rng.randint(0, 10 ** 9), n=5, d=2)
    G = points_ideal(pts, ctx)
    pieces = split_rational_support(Ideal(ctx, G.elements))
    assert len(pieces) == 5
    assert sorted(tuple(map(repr, pt)) for pt, _ in pieces) == \
        sorted(tuple(map(repr, q)) for q in pts)
    assert all(buchberger(p).colength() == 1 for _, p in pieces)


def test_split_irrational_support_indeterminate():
    c1 = context(QQ, "x")
    with pytest.raises(IndeterminateSupport):
        split_rational_support(ideal(c1, "x^2 - 2"))
    c2 = context(GF(5), "x")
    with pytest.raises(IndeterminateSupport):
        split_rational_support(Ideal(c2, [P("x^2 - 2", c2)]))   # 2 is not a square mod 5


def test_split_over_function_field_is_indeterminate():
    # the points (+-1, +-2) are rational, but Q(t) has no root search: the
    # split says so instead of calling the support irrational
    ct = context(QT, "x y")
    with pytest.raises(IndeterminateSupport, match=r"^root search is not available over Q\(t\)$"):
        split_rational_support(ideal(ct, "x^2 - 1", "y^2 - 4"))
    with pytest.raises(IndeterminateSupport, match=r"not available over Q\(t\)"):
        rational_roots([QT.one, -QT.one], QT)


def test_embedding_reduction_examples():
    c2 = context(QQ, "x y")
    r = embedding_reduction(ideal(c2, "x", "y^2"))
    assert r.ctx.names == ("y",)
    assert [str(g) for g in buchberger(r).elements] == ["y^2"]
    # already minimal: unchanged
    I = seven_quadrics_ideal(4)
    assert embedding_reduction(I) is I
    # x = y^2 - z^2 mod I: a linear form with a nontrivial tail in m^2
    c3 = context(QQ, "x y z")
    I2 = ideal(c3, "x - y^2 + z^2", "y^3", "z^3", "y*z^2", "y^2*z")
    r2 = embedding_reduction(I2)
    assert r2.ctx.d == 2
    assert buchberger(r2).colength() == buchberger(I2).colength()
    assert local_hilbert_function(r2) == local_hilbert_function(I2)


def test_embedding_reduction_drops_tangent_by_8():
    I5 = seven_quadrics_ideal(5)
    r = embedding_reduction(I5)
    assert r.ctx.d == 4
    assert ideal_equal(r, seven_quadrics_ideal(4))
    assert tangent_dimension(I5) == 33
    assert tangent_dimension(r) == 25


@pytest.mark.parametrize("seed", [3, 11])
def test_embedding_reduction_reads_a_reduced_basis_off_the_operators(seed):
    # a dense GL change of the 6-variable witness mixes the two redundant
    # variables into every generator
    J = change_coordinates(seven_quadrics_ideal(6), random_invertible_matrix(seed, 6))
    r = embedding_reduction(J)
    assert r.ctx.d == 4
    assert r.colength() == 8
    assert local_hilbert_function(r) == (1, 4, 3)
    assert tangent_dimension(r) == 25
    assert buchberger(r) is r
    keep = [J.ctx.names.index(name) for name in r.ctx.names]
    GJ = buchberger(J)
    for f in r.gens:
        lifted = {}
        for m, c in f.terms.items():
            full = [0] * 6
            for k, i in enumerate(keep):
                full[i] = m[k]
            lifted[tuple(full)] = c
        assert not GJ.normal_form(Polynomial(J.ctx, lifted))


def _kernel_rref_keep(model, chain, d):
    """Kept variables by the reference construction: the relations among
    the images of the variables mod m^2 are the kernel of the matrix with
    those columns and the rows of m^2, cut to the images' coordinates, and
    the pivot variables of its RREF are redundant."""
    field = model.ctx.field
    unit = [[x] for x in model.unit_vector()]
    columns = [[x for x, in row_product(field_rows(model.ops[i], field), unit, field.zero)]
               for i in range(d)]
    if len(chain) > 2:
        columns += [[row.get(j, field.zero) for j in range(model.n)] for _, row, _ in chain[2].rows]
    mat = DenseMatrix(field, [list(row) for row in zip(*columns)])
    _, pivots = rref([v[:d] for v in kernel_basis(mat)], field)
    return [i for i in range(d) if i not in pivots]


def test_embedding_reduction_keeps_the_kernel_rref_complement():
    # seeded GL changes and translations of local colength-8 ideals in 4 to 6
    # variables: the kept variables are the complement of the RREF pivots
    rng = random.Random(1604)
    base = [seven_quadrics_ideal(d, field) for d in (4, 5, 6) for field in (QQ, GF(7), GF(101))]
    base += [I for _, I in graded_143_fixtures()]
    cases = list(base)
    for k in range(30):
        I = base[k % len(base)]
        field = I.ctx.field
        J = change_coordinates(I, random_invertible_matrix(rng.randrange(10 ** 9), I.ctx.d, field))
        if k % 3 == 0:
            J = translate_ideal(J, [field.from_int(rng.randint(-2, 2)) for _ in range(I.ctx.d)])
        cases.append(J)
    firsts = set()
    for I in cases:
        G = buchberger(I)
        model = multiplication_operators(G)
        a = centroid(model)
        local = model.shifted(a)
        chain = local.maximal_ideal_chain()
        assert chain[-1].dim == 0
        keep = _kernel_rref_keep(local, chain, I.ctx.d)
        assert artin._kept_variables(local, chain) == keep
        firsts.add(keep[0])
    assert len(firsts) > 1


def test_census_examples():
    assert enumerate_local_hfs(1, 5) == {(1, 1, 1, 1, 1)}
    assert enumerate_local_hfs(2, 4) == {(1, 1, 1, 1), (1, 2, 1)}
    big = enumerate_local_hfs(4, 8)
    assert (1, 4, 3) in big
    from hilbcheck.census import CENSUS_TABLE, KNOWN_OMISSIONS
    listed = {h for n, h, _, _ in CENSUS_TABLE} | {h for n, h, _, _ in KNOWN_OMISSIONS}
    for h in big:
        if h[1] >= 3:
            assert tuple(h) in listed
    with pytest.raises(PreconditionError):
        enumerate_local_hfs(5, 8)
    with pytest.raises(PreconditionError):
        enumerate_local_hfs(4, 9)


def test_census_report_matches_table():
    from hilbcheck.census import census_report
    rep = census_report()
    assert rep.all_match()
    assert rep.extra_functions == ()
    assert any("(N-e)*N" in note for note in rep.notes)


def _random_polynomial(rng, ctx, degree):
    monos = [e for e in product(range(degree + 1), repeat=ctx.d) if sum(e) <= degree]
    terms = {m: ctx.field.from_int(rng.randint(-3, 3)) for m in rng.sample(monos, 5)}
    return Polynomial(ctx, terms)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(10007), QT], ids=str)
def test_operator_of_polynomial_is_the_cached_quotient_ring_map(field):
    # the working operator of f matches the normal forms of f times the
    # standard monomials, is multiplicative, and a changed result changes no
    # cached power
    rng = random.Random(718)
    for I in (seven_quadrics_ideal(4, field), squares_cube_ideal(field),
              weight753_ideal(field)):
        g = random_invertible_matrix(rng.randint(0, 10 ** 9), I.ctx.d, field)
        G = buchberger(change_coordinates(I, g))
        ctx, qb = G.ctx, G.quotient_basis()
        model = multiplication_operators(G)
        ops = [([row[:] for row in rows], den) for rows, den in model.ops]
        x1 = ctx.variables()[0]
        one = field.one if field.modulus is None else 1
        for _ in range(3):
            f = _random_polynomial(rng, ctx, 3)
            h = _random_polynomial(rng, ctx, 3)
            F = field_rows(model.working_operator(f), field)
            for j, m in enumerate(qb):
                nf = G.normal_form(f * ctx.monomial(m))
                assert [F[i][j] for i in range(model.n)] == \
                    [nf.terms.get(mm, field.zero) for mm in qb]
            assert field_rows(model.working_operator(f * h), field) == \
                matmul(F, field_rows(model.working_operator(h), field), field)
            expected = [row[:] for row in F]
            for poly in (f, x1):
                returned = model.working_operator(poly)
                assert returned == model.working_operator(poly)
                for row in returned[0]:
                    row[:] = [one] * len(row)
            assert field_rows(model.working_operator(f), field) == expected
        assert model.ops == ops


def _sum_of_powers(model, f):
    """Sum of c X^m over the terms c x^m of f, with the powers X^m multiplied
    out from the variable operators as matrices of field elements."""
    field = model.ctx.field
    acc = [[field.zero] * model.n for _ in range(model.n)]
    for m, c in f.terms.items():
        power = DenseMatrix(field, [[int(r == k) for k in range(model.n)]
                                    for r in range(model.n)]).rows
        for i, e in enumerate(m):
            for _ in range(e):
                power = matmul(field_rows(model.ops[i], field), power, field)
        acc = [[a + c * x for a, x in zip(arow, prow)] for arow, prow in zip(acc, power)]
    return DenseMatrix(field, acc)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(10007), QT], ids=str)
def test_working_operator_is_the_sum_of_matrix_powers(field):
    # the field view of the working operator, on a model and on its shift,
    # is the sum of c X^m with the powers multiplied out as field matrices,
    # and the working operator is the working form of that view
    rng = random.Random(1818)
    I = squares_cube_ideal(field)
    g = random_invertible_matrix(rng.randint(0, 10 ** 9), I.ctx.d, field)
    G = buchberger(change_coordinates(I, g))
    ctx = G.ctx
    model = multiplication_operators(G)
    # over Q(t) the shift and the constant terms involve t
    t = field.t if field.modulus is None else field.zero
    a = tuple(field.from_int(rng.randint(-3, 3)) + t for _ in range(ctx.d))
    for m in (model, model.shifted(a)):
        for _ in range(3):
            f = _random_polynomial(rng, ctx, 3) + ctx.const(field.from_int(rng.randint(1, 5)) - t)
            assert any(not any(mono) for mono in f.terms)
            op = m.working_operator(f)
            assert DenseMatrix(field, field_rows(op, field)) == _sum_of_powers(m, f)
            assert op == working(field, _sum_of_powers(m, f).rows)


def _poly_from_roots(lead, roots, quadratics=()):
    """Descending coefficients of lead * prod (x - r) * prod (x^2 + b x + c)."""
    coeffs = [rat(lead)]
    factors = [[rat(1), -r] for r in roots] + [[rat(1), rat(b), rat(c)] for b, c in quadratics]
    for f in factors:
        out = [rat(0)] * (len(coeffs) + len(f) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(f):
                out[i + j] += a * b
        coeffs = out
    return coeffs


def _sympy_rational_roots(sympy, coeffs):
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(int(c.numerator), int(c.denominator)) * x ** k
               for k, c in enumerate(reversed(coeffs)))
    return {rat(int(sympy.fraction(r)[0]), int(sympy.fraction(r)[1])): m
            for r, m in sympy.roots(sympy.Poly(expr, x), filter="Q").items()}


def test_rational_roots_over_q_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4242)
    for _ in range(60):
        lead = rat(rng.choice([1, -1, 2, 3, -6, 10]), rng.choice([1, 1, 4, 9]))
        roots = [rat(rng.randint(-9, 9), rng.randint(1, 5))
                 for _ in range(rng.randint(0, 4))]
        roots += roots[:rng.randint(0, 2)]                 # repeated roots
        roots += [rat(0)] * rng.choice([0, 0, 1, 2])       # zero roots
        quadratics = [(b, c) for b, c in ((rng.randint(-4, 4), rng.randint(1, 7))
                                          for _ in range(rng.randint(0, 2)))
                      if b * b < 4 * c]                    # irreducible over Q
        coeffs = _poly_from_roots(lead, roots, quadratics)
        assert rational_roots(coeffs, QQ) == _sympy_rational_roots(sympy, coeffs)
    # degree up to 8, roots of up to 12 digits, leading coefficients up to 10^13
    rng = random.Random(4848)
    for _ in range(40):
        lead = rat(rng.choice([1, -1]) * rng.randint(1, 10 ** rng.randint(0, 13)))
        roots = [rat(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** rng.randint(0, 3)))
                 for _ in range(rng.randint(0, 5))]
        roots += roots[:rng.randint(0, 2)]
        roots += [rat(0)] * rng.choice([0, 0, 1])
        quadratics = [(b, c) for b, c in ((rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 12))
                                          for _ in range(rng.randint(0, 1)))
                      if b * b < 4 * c]
        coeffs = _poly_from_roots(lead, roots[:8 - 2 * len(quadratics)], quadratics)
        assert rational_roots(coeffs, QQ) == _sympy_rational_roots(sympy, coeffs)


def _roots_mod_p(coeffs, p):
    """{v: multiplicity} of the roots v in 0..p-1 of the integer polynomial
    with descending coefficients coeffs, reduced mod p."""
    out = {}
    for v in range(p):
        rest = [c % p for c in coeffs]
        while len(rest) > 1:
            acc, quotient = 0, []
            for c in rest:
                acc = (acc * v + c) % p
                quotient.append(acc)
            if acc:
                break
            rest = quotient[:-1]
            out[v] = out.get(v, 0) + 1
    return out


def test_rational_roots_over_fp_match_brute_force():
    rng = random.Random(4343)
    for p in (5, 7, 101):
        F = GF(p)
        for _ in range(20):
            ints = [rng.randint(1, p - 1)] + \
                [rng.randint(0, p - 1) for _ in range(rng.randint(1, 6))]
            roots = rational_roots([F.from_int(c) for c in ints], F)
            assert roots == {F.from_int(v): m for v, m in _roots_mod_p(ints, p).items()}
    # against sympy's factorization mod p, on products of linear factors,
    # some repeated or zero, and a random factor
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(4949)
    for p in (5, 7, 101, 10007, 1000003):
        F = GF(p)
        for _ in range(12):
            roots = [rng.randrange(p) for _ in range(rng.randint(0, 4))]
            roots += roots[:rng.randint(0, 2)] + [0] * rng.choice([0, 0, 1])
            rest = [rng.randint(1, p - 1)] + [rng.randrange(p) for _ in range(rng.randint(0, 2))]
            linear = [int(c) for c in _poly_from_roots(rat(1), [rat(r) for r in roots])]
            ints = [sum(linear[i] * rest[k - i] for i in range(len(linear))
                        if 0 <= k - i < len(rest)) % p
                    for k in range(len(linear) + len(rest) - 1)]
            _, factors = sympy.Poly(ints, x, modulus=p).factor_list()
            expected = {}
            for fac, m in factors:
                if fac.degree() == 1:
                    a, b = (int(c) for c in fac.all_coeffs())
                    root = F.from_int(-b) / F.from_int(a)
                    expected[root] = expected.get(root, 0) + m
            if p <= 101:
                assert expected == {F.from_int(v): m for v, m in _roots_mod_p(ints, p).items()}
            assert rational_roots([F.from_int(c) for c in ints], F) == expected


def test_rational_roots_are_complete():
    # the product of two primes above 10^6 is not a square: no rational root
    big = (10 ** 6 + 3) * (10 ** 6 + 33)
    assert rational_roots([rat(1), rat(0), rat(-big)], QQ) == {}
    assert rational_roots([rat(1), rat(-(10 ** 25))], QQ) == {rat(10 ** 25): 1}
    assert rational_roots([rat(1), rat(-(10 ** 12 + 39))], QQ) == {rat(10 ** 12 + 39): 1}
    # a root whose numerator is as large as the constant term
    coeffs = _poly_from_roots(rat(5), [rat(10 ** 40 + 1, 3)], [(0, 1)])
    assert rational_roots(coeffs, QQ) == {rat(10 ** 40 + 1, 3): 1}
    assert rational_roots([GF(10007).one, GF(10007).zero], GF(10007)) == {GF(10007).zero: 1}


def test_deflation_by_a_candidate_root_is_exact_or_none():
    # rational_roots divides by q x - P with upoly.zdivmod, ascending;
    # 2x^2 - 3x + 1 = (2x - 1)(x - 1)
    assert zdivmod((1, -3, 2), (-1, 2), 0) == ((-1, 1), ())
    assert zdivmod((1, -3, 2), (-1, 1), 0) == ((-1, 2), ())
    # 3/2 is no root: every leading division is exact, the remainder is not 0
    assert zdivmod((1, -3, 2), (-3, 2), 0) == ((0, 1), (1,))
    # 3x - 1: the first step 3 / 2 is inexact, though floor division would
    # leave a zero remainder
    assert zdivmod((-1, 3), (-1, 2), 0) is None
    # x^2 - 2 over F_7: 3 is a root, 2 is not
    assert zdivmod((-2, 0, 1), (-3, 1), 7) == ((3, 1), ())
    assert zdivmod((-2, 0, 1), (-2, 1), 7) == ((2, 1), (2,))
    # the quotient is reduced mod p
    assert zdivmod((5, 0, 1), (-10, 1), 7) == ((3, 1), ())


def test_split_by_distinct_first_coordinates_multiplies_no_matrices(monkeypatch):
    # the only operator products are those of the check that the given
    # reduced basis has commuting operators
    rng = random.Random(4545)
    while True:
        pts = random_points(rng.randint(0, 10 ** 9))
        if len({repr(p[0]) for p in pts}) == len(pts):
            break
    ctx = context(QQ, "x1 x2 x3 x4")
    I = Ideal(ctx, points_ideal(pts, ctx).gens)
    callers = []
    product = artin._product
    monkeypatch.setattr(artin, "_product", lambda a, b, field: callers.append(
        sys._getframe(1).f_code.co_name) or product(a, b, field))
    pieces = split_rational_support(I)
    assert sorted(tuple(map(repr, pt)) for pt, _ in pieces) == \
        sorted(tuple(map(repr, q)) for q in pts)
    assert sorted(set(callers)) == ["_commuting", "_power"] and len(callers) == 12


def test_split_by_distinct_first_coordinates_takes_one_charpoly(monkeypatch):
    # the first variable separates the eight points, and on each of its lines
    # the other coordinates are read off one product each
    rng = random.Random(4545)
    while True:
        pts = random_points(rng.randint(0, 10 ** 9))
        if len({repr(p[0]) for p in pts}) == len(pts):
            break
    ctx = context(QQ, "x1 x2 x3 x4")
    I = Ideal(ctx, points_ideal(pts, ctx).gens)
    calls = []
    monkeypatch.setattr(artin, "charpoly",
                        lambda op, field: calls.append(len(op[0])) or charpoly(op, field))
    assert len(split_rational_support(I)) == 8
    assert calls == [8]


def _refinement_samples():
    rng = random.Random(4646)
    out = []
    for field in (QQ, GF(101)):
        ctx = context(field, "x1 x2 x3 x4")
        for repeat in (False, True):
            pts = random_points(rng.randint(0, 10 ** 9), n=6, field=field)
            if repeat:
                # L = x1 + 2 x2 + 3 x3 + 4 x4 takes one value at two points
                two = field.from_int(2)
                pts.append((pts[0][0] + two, pts[0][1] - field.one, pts[0][2], pts[0][3]))
            out.append(Ideal(ctx, points_ideal(pts, ctx).gens))
    # a colength-3 piece beside two points
    c3 = context(QQ, "x y z")
    fat = translate_ideal(ideal(c3, "x^2", "x*y", "y^2", "z"), [1, 0, 0])
    out.append(intersect(fat, ideal(c3, "x*(x+2)", "y", "z")))
    return out


def test_refinement_by_the_generic_form_keeps_the_parts():
    repeats, sizes = set(), set()
    for I in _refinement_samples():
        model = multiplication_operators(buchberger(I))
        field = model.ctx.field
        units = artin._units(field, model.n)
        L = artin._linear_form(model)
        plain = [(tuple(map(repr, pt)), len(b)) for pt, b in artin._refine(model.ops, units, field)]
        assert plain == sorted(plain)
        by_form = sorted((tuple(map(repr, pt[1:])), len(b))
                         for pt, b in artin._refine([L] + model.ops, units, field))
        assert by_form == plain
        repeats.add(len(artin._refine([L], units, field)) < len(plain))
        sizes.update(size for _, size in plain)
    # L separates some samples and repeats a value on others; one has a fat part
    assert repeats == {False, True} and sizes == {1, 3}


def test_refinement_refuses_a_line_that_is_not_invariant():
    X = working(QQ, [[rat(0), rat(1)], [rat(0), rat(0)]])
    with pytest.raises(ArithmeticError, match="not invariant"):
        artin._refine([X], [[rat(0), rat(1)]], QQ)
    assert artin._refine([X], [[rat(1), rat(0)]], QQ) == [((rat(0),), [[rat(1), rat(0)]])]


def test_charpoly_and_roots_over_fp_agree_with_q_reduced_mod_p():
    rng = random.Random(1414)
    for _ in range(40):
        n = rng.randint(1, 8)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        over_q = charpoly(working(QQ, rows), QQ)
        assert all(c.denominator == 1 for c in over_q)
        ints = [int(c) for c in over_q]
        for p in (7, 13, 101, 10007):
            F = GF(p)
            over_p = charpoly(working(F, rows), F)
            assert over_p == [F.from_int(c) for c in ints]
            if p <= 101:    # the brute force is too slow at 10007
                expected = {F.from_int(v): m for v, m in _roots_mod_p(ints, p).items()}
                assert rational_roots(over_p, F) == expected
