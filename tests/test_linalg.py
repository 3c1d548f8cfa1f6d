import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from hilbcheck.fields import GF, QQ, QT
from hilbcheck.fixtures import random_skew_matrix
from hilbcheck import linalg
from hilbcheck.linalg import (DenseMatrix, RowSpace, _peel, _polynomial_entries, determinant,
                              kernel_basis, mat_rank, minor_gcd_sample, pfaffian, row_product,
                              t_adic_minor_valuation)
from hilbcheck.tangent import family_machine
from hilbcheck.scalars import rat
from hilbcheck.upoly import RATFUNC_T as t, RatFunc, zgcd, ztrim, zval


def naive_rank(rows):
    """Independent row-reduction oracle over Fraction."""
    mat = [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank][c]
        mat[rank] = [x / lead for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def identity(field, n):
    return DenseMatrix(field, [[int(i == j) for j in range(n)] for i in range(n)])


def test_rank_trivial():
    assert mat_rank(identity(QQ, 3)) == 3
    assert mat_rank(DenseMatrix(QQ, [[0] * 4 for _ in range(4)])) == 0


def test_rank_matches_naive_oracle():
    rng = random.Random(11)
    for _ in range(20):
        rows = [[rat(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)]
                for _ in range(4)]
        m = DenseMatrix(QQ, rows)
        assert mat_rank(m) == naive_rank(m.rows)


def test_kernel_basis():
    assert kernel_basis(identity(QQ, 3)) == []
    ker = kernel_basis(DenseMatrix(QQ, [[1, 1]]))
    assert len(ker) == 1
    v = ker[0]
    assert v[0] + v[1] == QQ.zero and any(v)
    m = DenseMatrix(QQ, [[1, 2, 3], [2, 4, 6]])
    ker = kernel_basis(m)
    assert len(ker) == 3 - mat_rank(m) == 2
    for v in ker:
        assert not any(m.apply(v))


def test_rank_plus_nullity():
    rng = random.Random(3)
    for _ in range(10):
        rows = [[rat(rng.randint(-3, 3)) for _ in range(5)] for _ in range(3)]
        m = DenseMatrix(QQ, rows)
        assert mat_rank(m) + len(kernel_basis(m)) == m.ncols


def test_determinant_examples():
    assert determinant(identity(QQ, 4)) == QQ.one
    assert determinant(DenseMatrix(QQ, [[2, 0], [0, 3]])) == rat(6)
    skew5 = DenseMatrix(QQ, [[0, 1, 2, 3, 4],
                             [-1, 0, 5, 6, 7],
                             [-2, -5, 0, 8, 9],
                             [-3, -6, -8, 0, 1],
                             [-4, -7, -9, -1, 0]])
    assert determinant(skew5) == QQ.zero
    with pytest.raises(ValueError):
        determinant(DenseMatrix(QQ, [[1, 2, 3], [4, 5, 6]]))


def test_determinant_multiplicative():
    rng = random.Random(7)
    for _ in range(8):
        a = DenseMatrix(QQ, [[rat(rng.randint(-4, 4)) for _ in range(5)] for _ in range(5)])
        b = DenseMatrix(QQ, [[rat(rng.randint(-4, 4)) for _ in range(5)] for _ in range(5)])
        ab = DenseMatrix(QQ, [[sum((x * y for x, y in zip(row, col)), QQ.zero)
                               for col in zip(*b.rows)] for row in a.rows])
        assert determinant(ab) == determinant(a) * determinant(b)


def _working_rows(field, rows):
    """(integer rows, den): den times the rows of field elements."""
    ints, den = field.integers([x for row in rows for x in row])
    n = len(rows[0])
    return [ints[i:i + n] for i in range(0, len(ints), n)], den


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_row_product_matches_the_entrywise_sum(field):
    # on the working integers of two matrices, row_product gives those of
    # their product over the product of the denominators
    rng = random.Random(720)
    for rows, inner, cols in ((3, 4, 5), (5, 5, 5), (2, 3, 1), (1, 1, 1)):
        a = [[field.element(rng.choice((0, 0, rng.randint(-4, 4))), rng.randint(1, 3))
              for _ in range(inner)] for _ in range(rows)]
        b = [[field.element(rng.choice((0, 0, rng.randint(-4, 4))), rng.randint(1, 3))
              for _ in range(cols)] for _ in range(inner)]
        expected = [[sum((a[i][k] * b[k][j] for k in range(inner)), field.zero)
                     for j in range(cols)] for i in range(rows)]
        (arows, aden), (brows, bden) = _working_rows(field, a), _working_rows(field, b)
        got = row_product(arows, brows, 0)
        assert [[field.element(x, aden * bden) for x in row] for row in got] == expected


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_apply_matches_the_entrywise_sum(field):
    rng = random.Random(721)
    nonzero = [c for c in range(-4, 5) if c]
    for rows, cols in ((3, 4), (5, 5), (1, 6), (6, 1)):
        a = [[field.from_int(rng.choice((0, 0, rng.randint(-4, 4)))) for _ in range(cols)]
             for _ in range(rows)]
        zero = [0] * cols
        sparse = [rng.choice((0, 0, 0, rng.choice(nonzero))) for _ in range(cols)]
        dense = [rng.choice(nonzero) for _ in range(cols)]
        for vec in (zero, sparse, dense):
            vec = [field.from_int(v) for v in vec]
            expected = [sum((a[i][k] * vec[k] for k in range(cols)), field.zero)
                        for i in range(rows)]
            assert DenseMatrix(field, a).apply(vec) == expected


def test_pfaffian_conventions():
    assert pfaffian(DenseMatrix(QQ, [[0, 1], [-1, 0]])) == QQ.one
    a, b = rat(3), rat(-5)
    block = DenseMatrix(QQ, [[0, a, 0, 0], [-a, 0, 0, 0],
                             [0, 0, 0, b], [0, 0, -b, 0]])
    assert pfaffian(block) == a * b
    with pytest.raises(ValueError):
        pfaffian(DenseMatrix(QQ, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError):
        pfaffian(DenseMatrix(QQ, [[1, 2], [2, 1]]))


def test_pfaffian_squares_to_determinant():
    rng = random.Random(13)
    for _ in range(100):
        m = DenseMatrix(QQ, random_skew_matrix(rng, 8))
        assert pfaffian(m) ** 2 == determinant(m)


def test_pfaffian_prime_field():
    F = GF(7)
    m = DenseMatrix(F, [[0, 2, 3, 4], [-2, 0, 5, 6], [-3, -5, 0, 1], [-4, -6, -1, 0]])
    assert pfaffian(m) ** 2 == determinant(m)


def test_mixed_domains_rejected():
    F = GF(7)
    with pytest.raises(TypeError):
        DenseMatrix(QQ, [[F.from_int(1)]])
    with pytest.raises(TypeError):
        DenseMatrix(F, [[rat(1, 2)]])
    with pytest.raises(TypeError):
        DenseMatrix(GF(5), [[GF(7).from_int(1)]])
    with pytest.raises(TypeError):
        DenseMatrix(QQ, [[QT.t]])
    with pytest.raises(TypeError):
        DenseMatrix(QT, [[F.from_int(1)]])
    assert DenseMatrix(QT, [[rat(1, 2), 3]]).rows == [[QT.one / QT.from_int(2), QT.from_int(3)]]


def _sampled_valuation(m):
    return zval(minor_gcd_sample(m, t_adic_minor_valuation(m)))


def test_t_adic_valuation_basics():
    one = QT.one
    m = identity(QT, 3)
    assert t_adic_minor_valuation(m) == _sampled_valuation(m) == 0
    d = DenseMatrix(QT, [[t, QT.zero], [QT.zero, t ** 3]])
    assert t_adic_minor_valuation(d) == _sampled_valuation(d) == 4
    # neither row has a single nonzero entry, so nothing is peeled
    d = DenseMatrix(QT, [[t ** 25, t ** 25], [one, QT.from_int(2)]])
    assert t_adic_minor_valuation(d) == _sampled_valuation(d) == 25
    # rank defect: the distinct infinite outcome
    z = DenseMatrix(QT, [[t, t], [t ** 2, t ** 2]])
    assert t_adic_minor_valuation(z) is None
    assert minor_gcd_sample(z, None) == ()
    with pytest.raises(ValueError):
        t_adic_minor_valuation(DenseMatrix(QT, [[one], [one]]))


def test_t_adic_valuation_invariances():
    rows = [[t, t ** 2, QT.zero],
            [t ** 3, t ** 4 + t, t],
            [QT.zero, t ** 2, t ** 5]]
    m = DenseMatrix(QT, rows)
    base = t_adic_minor_valuation(m)
    perm = DenseMatrix(QT, [rows[2], rows[0], rows[1]])
    assert t_adic_minor_valuation(perm) == base
    cols = DenseMatrix(QT, [[r[1], r[2], r[0]] for r in rows])
    assert t_adic_minor_valuation(cols) == base
    unit = QT.from_int(-7)
    scaled = DenseMatrix(QT, [[x * unit for x in rows[0]]] + rows[1:])
    assert t_adic_minor_valuation(scaled) == base


def test_t_adic_cross_check_agrees():
    rows = [[t, t ** 2, QT.one],
            [t ** 3, t ** 4 + t, t],
            [QT.zero, t ** 2, t ** 5]]
    m = DenseMatrix(QT, rows)
    assert _sampled_valuation(m) == t_adic_minor_valuation(m)


def test_minor_gcd_sample_matches_direct_determinant():
    # oracle: the interpolated 2x2 minor against direct Q(t) arithmetic
    rows = [[t + QT.one, t ** 2], [t ** 3, t ** 4 + t]]
    m = DenseMatrix(QT, rows)
    assert t_adic_minor_valuation(m) == 1
    g = minor_gcd_sample(m, 1)
    direct = (t + QT.one) * (t ** 4 + t) - t ** 2 * t ** 3
    assert direct == t ** 4 + t ** 2 + t
    assert g == (0, 1, 1, 0, 1)


def test_rowspace_dependency_coefficients():
    rs = RowSpace(QQ, track=True)
    assert rs.add([rat(1), rat(0)]) is None
    assert rs.add([rat(0), rat(1)]) is None
    combo = rs.add([rat(2), rat(-3)])
    assert combo == {0: rat(2), 1: rat(-3)}


def _maximal_minors_and_kernel_complements(m):
    """(S, minor on S, complementary kernel minor on the other columns)."""
    ker = kernel_basis(m)
    assert len(ker) == m.ncols - m.nrows
    dual = [[v[c] for v in ker] for c in range(m.ncols)]
    for cols in combinations(range(m.ncols), m.nrows):
        rest = [c for c in range(m.ncols) if c not in cols]
        minor = determinant(DenseMatrix(m.field, [[row[c] for c in cols] for row in m.rows]))
        yield cols, minor, determinant(DenseMatrix(m.field, [dual[c] for c in rest]))


def test_maximal_minors_vanish_with_complementary_kernel_minors():
    # Grassmann duality: a maximal minor is nonzero exactly when the
    # complementary minor of the kernel is
    rng = random.Random(29)

    def small():
        return rng.randint(-3, 3)

    def poly():
        return sum((QT.from_int(small()) * t ** e for e in range(3)), QT.zero)

    qq_cases, qt_cases = [], []
    while len(qq_cases) < 6:
        c0, c1, c2 = ([small() for _ in range(3)] for _ in range(3))
        a, b = small(), small()
        cols = [c0, c1, c2, [a * x + b * y for x, y in zip(c0, c1)],
                [2 * z for z in c2], [0, 0, 0] if rng.random() < 0.5 else
                [small() for _ in range(3)]]
        m = DenseMatrix(QQ, [[col[i] for col in cols] for i in range(3)])
        if mat_rank(m) == 3:
            qq_cases.append(m)
    while len(qt_cases) < 3:
        c0, c1, c2 = ([poly() for _ in range(3)] for _ in range(3))
        cols = [c0, c1, c2, [t * x + y for x, y in zip(c0, c1)],
                [t ** 2 * z for z in c2], [poly() for _ in range(3)]]
        m = DenseMatrix(QT, [[col[i] for col in cols] for i in range(3)])
        if t_adic_minor_valuation(m) is not None:
            qt_cases.append(m)
    seen = set()
    for m in qq_cases + qt_cases:
        for cols, minor, dual in _maximal_minors_and_kernel_complements(m):
            assert bool(minor) == bool(dual), (m, cols)
            seen.add(bool(minor))
    assert seen == {True, False}


def test_minor_gcd_sample_finds_sparse_support():
    # 2 nonzero maximal minors among C(24, 3) = 2024: t^5 (1 + t) and t^5 (1 - t)
    z = QT.zero
    rows = [[z] * 24 for _ in range(3)]
    rows[0][5] = t
    rows[1][11] = t ** 2
    rows[2][17] = t ** 2 + t ** 3
    rows[2][20] = t ** 2 - t ** 3
    m = DenseMatrix(QT, rows)
    full = ()
    for cols in combinations(range(24), 3):
        minor = determinant(DenseMatrix(QT, [[row[c] for c in cols] for row in rows]))
        if minor:
            full = zgcd(full, minor.num)
    assert full == (0, 0, 0, 0, 0, 1)
    assert t_adic_minor_valuation(m) == 5
    assert minor_gcd_sample(m, 5) == full


def test_minor_gcd_sample_eliminates_each_block_once_per_point(monkeypatch):
    # psi's 10 x 14 core is eliminated at the draw point t = 3 once per
    # draw, the first of them its rank check, 7 draws of which 2 repeat a
    # column set; each of the 5 drawn core minors is a single term c t^k,
    # k = 12, 12, 12, 11, 10, whose transversal bounds on valuation and
    # degree meet, so its 10 x 10 block is eliminated at t = 1 alone.  psi
    # is never eliminated whole, and no block twice at one point
    psi = family_machine().psi
    eliminated, bounds = [], []
    relations, transversal_bounds = linalg._column_relations, linalg._transversal_bounds

    def counted(rows, field):
        eliminated.append(tuple(map(tuple, rows)))
        return relations(rows, field)

    def recorded(block):
        bounds.append(transversal_bounds(block))
        return bounds[-1]

    monkeypatch.setattr(linalg, "_column_relations", counted)
    monkeypatch.setattr(linalg, "_transversal_bounds", recorded)
    assert minor_gcd_sample(psi, 16) == (0,) * 16 + (1,)
    shapes = Counter((len(block), len(block[0])) for block in eliminated)
    assert shapes == {(10, 14): 7, (10, 10): 5}
    blocks = [block for block in eliminated if len(block[0]) == 10]
    assert len(set(blocks)) == len(blocks)
    assert bounds == [(12, 12), (12, 12), (12, 12), (11, 11), (10, 10)]


def brute_force_bounds(block):
    """(least sum of valuations, greatest sum of degrees) over the
    permutations that meet only nonzero entries of the square block of
    coefficient lists; None when there is none."""
    n = len(block)
    sums = [(sum(zval(block[i][p[i]]) for i in range(n)),
             sum(len(block[i][p[i]]) - 1 for i in range(n)))
            for p in permutations(range(n)) if all(any(block[i][p[i]]) for i in range(n))]
    if not sums:
        return None
    return min(low for low, _ in sums), max(high for _, high in sums)


def test_transversal_bounds_match_brute_force_and_bracket_the_determinant():
    # the least and greatest transversal sums equal the brute-force extremes
    # over all permutations, and bracket the valuation and degree of the
    # determinant over Q(t); zero and constant entries, cancelling terms
    # ([[t, t], [t, t + t^2]] has det t^3, bounds 2 and 3; [[1, t], [t, t^2]]
    # has det 0) and blocks with no transversal are among the cases
    rng = random.Random(3901)
    fixed = [[[(0, 1), (0, 1)], [(0, 1), (0, 1, 1)]],
             [[(1, 1), (0, 1)], [(1,), (1,)]],
             [[(), (2,)], [(), (0, 0, 3)]],
             [[(1,), (0, 1)], [(0, 1), (0, 0, 1)]],
             [[(5,)]],
             [[(0, 1), ()], [(), (0, 0, 1)]]]
    cases = list(fixed)
    for _ in range(120):
        n = rng.randint(1, 6)
        zeros = rng.choice([0.0, 0.3, 0.6])
        cases.append([[() if rng.random() < zeros else
                       ztrim([0] * rng.randint(0, 3) + [rng.randint(-3, 3)
                                                        for _ in range(rng.randint(1, 3))]) or (1,)
                       for _ in range(n)] for _ in range(n)])
    seen = set()
    for block in cases:
        bounds = linalg._transversal_bounds(block)
        assert bounds == brute_force_bounds(block), block
        det = determinant(DenseMatrix(QT, [[RatFunc(e, (1,)) if e else QT.zero for e in row]
                                           for row in block]))
        if bounds is None:
            assert not det, block
            seen.add("no transversal")
            continue
        low, high = bounds
        if det:
            assert low <= zval(det.num) and len(det.num) - 1 <= high, block
            seen.add(("tight", low == zval(det.num) and len(det.num) - 1 == high))
        else:
            seen.add("cancels to 0")
    assert linalg._transversal_bounds(fixed[0]) == (2, 3)
    assert {"no transversal", "cancels to 0", ("tight", True), ("tight", False)} <= seen


def test_minor_gcd_sample_refuses_a_valuation_of_a_rank_deficient_matrix(monkeypatch):
    # with psi's last 4 columns zeroed its rank drops; given a valuation
    # anyway, the sample tries D + 1 points for a full-rank core, D the
    # core's row-degree bound, and stops
    psi = family_machine().psi
    z = DenseMatrix(QT, [row[:24] + [QT.zero] * 4 for row in psi.rows])
    assert t_adic_minor_valuation(z) is None
    core, _ = _peel(_polynomial_entries(z))
    bound = sum(max(1, *map(len, row)) - 1 for row in core)
    tried = []
    relations = linalg._column_relations

    def counted(rows, field):
        tried.append(len(rows))
        return relations(rows, field)

    monkeypatch.setattr(linalg, "_column_relations", counted)
    with pytest.raises(ValueError):
        minor_gcd_sample(z, 16)
    assert tried == [len(core)] * (bound + 1)


def test_minor_gcd_sample_of_a_fully_peeled_core():
    # (t, 0, 0) peels column 0, then (1, t - 3, 0) column 1: the core is
    # empty and its one maximal minor, the empty one, is 1
    three = QT.from_int(3)
    m = DenseMatrix(QT, [[t, QT.zero, QT.zero], [QT.one, t - three, QT.zero]])
    assert _peel(_polynomial_entries(m)) == ([], (0, -3, 1))
    assert t_adic_minor_valuation(m) == 1
    assert minor_gcd_sample(m, 1) == (0, -3, 1)
    assert determinant(DenseMatrix(QT, [row[:2] for row in m.rows])) == t * (t - three)


def _scalar(rng, p, big=False):
    """A random nonzero scalar: a residue mod p, a small rational, or (big)
    a rational with 60-bit numerator and denominator."""
    if p:
        return rng.randrange(1, p)
    sign = rng.choice((-1, 1))
    if big:
        return Fraction(sign * (rng.getrandbits(60) | 1 << 59), rng.getrandbits(60) | 1 << 59)
    return Fraction(sign * rng.randint(1, 9), rng.randint(1, 4))


def _rank_k_product(rng, p, m, n, k, density, big=False):
    """An m x n matrix B C of rank exactly k (mod p when p).  B (m x k) holds
    an upper-triangular block with nonzero diagonal, and C (k x n) a
    lower-triangular block with nonzero diagonal on k distinct columns and
    zeros elsewhere in those columns; other entries are nonzero with
    probability `density`, and each further row of B has at least one."""
    def maybe():
        return _scalar(rng, p, big) if rng.random() < density else 0

    B = [[_scalar(rng, p, big) if j == i else maybe() if j > i else 0 for j in range(k)]
         for i in range(k)]
    for _ in range(m - k):
        row = [maybe() for _ in range(k)]
        row[rng.randrange(k)] = _scalar(rng, p, big)
        B.append(row)
    cols = rng.sample(range(n), k)
    C = [[0 if c in cols else maybe() for c in range(n)] for _ in range(k)]
    for i in range(k):
        for j in range(i):
            C[i][cols[j]] = maybe()
        C[i][cols[i]] = _scalar(rng, p, big)
    A = [[sum(b * c for b, c in zip(brow, col)) for col in zip(*C)] for brow in B]
    return [[x % p for x in row] for row in A] if p else A


def _padded(rng, p, rows):
    """rows plus a duplicated row, a zero row and a scaled row, shuffled:
    the rank does not change."""
    scale = _scalar(rng, p)
    scaled = [x * scale for x in rng.choice(rows)]
    out = rows + [list(rng.choice(rows)), [0] * len(rows[0]),
                  [x % p for x in scaled] if p else scaled]
    rng.shuffle(out)
    return out


def _density(rows):
    return sum(1 for row in rows for x in row if x) / (len(rows) * len(rows[0]))


def test_rank_matches_sympy_over_q():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1001)
    cases = []
    for _ in range(4):
        # sparse, dense and 60-bit rational products of known rank
        cases.append((_rank_k_product(rng, 0, 40, 60, rng.randint(1, 40), 0.03), "sparse"))
        cases.append((_rank_k_product(rng, 0, 8, 10, rng.randint(1, 8), 1.0), "dense"))
        cases.append((_rank_k_product(rng, 0, 7, 9, rng.randint(1, 7), 1.0, big=True), "big"))
    for _ in range(4):
        # random matrices, generically of full rank
        cases.append(([[_scalar(rng, 0) if rng.random() < 0.06 else 0 for _ in range(40)]
                       for _ in range(30)], "sparse"))
        cases.append(([[_scalar(rng, 0, big=True) for _ in range(8)] for _ in range(6)], "big"))
    seen = set()
    for rows, kind in cases:
        full = min(len(rows), len(rows[0]))
        rows = _padded(rng, 0, rows)
        if kind == "sparse":
            assert _density(rows) <= 0.10
        m = DenseMatrix(QQ, rows)
        expected = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                                 for row in rows]).rank()
        assert mat_rank(m) == expected, kind
        seen.add(expected < full)
    assert seen == {True, False}


@pytest.mark.parametrize("p", [5, 7, 10007])
def test_rank_over_prime_fields_by_construction(p):
    rng = random.Random(1002 + p)
    field = GF(p)
    for m, n, density in ((60, 80, 0.02), (40, 30, 0.03), (12, 15, 1.0), (9, 6, 1.0)):
        for _ in range(4):
            k = rng.randint(1, min(m, n))
            rows = _padded(rng, p, _rank_k_product(rng, p, m, n, k, density))
            if density < 1:
                assert _density(rows) <= 0.10
            assert mat_rank(DenseMatrix(field, rows)) == k, (m, n, k)


def _to_sympy(sympy, rows):
    return sympy.Matrix([[sympy.Rational(int(x.numerator), int(x.denominator)) for x in row]
                         for row in rows])


def _from_sympy(x):
    return Fraction(int(x.p), int(x.q))


def test_rref_kernel_and_determinant_match_sympy_over_q():
    # sympy's nullspace also sets one free variable to 1 and the others to 0
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1101)
    cases = []
    for _ in range(3):
        cases.append([[_scalar(rng, 0) for _ in range(7)] for _ in range(4)])      # wide
        cases.append([[_scalar(rng, 0) for _ in range(4)] for _ in range(7)])      # tall
        for n in (5, 6):                                                           # deficient
            cases.append(_rank_k_product(rng, 0, n, n, rng.randint(1, n - 1), 0.6))
        square = [[_scalar(rng, 0) if rng.random() < 0.7 else 0 for _ in range(5)]
                  for _ in range(5)]
        cases.append(square)
        zero_col = [row[:] for row in square]                                      # zero column
        for row in zero_col:
            row[rng.randrange(5)] = 0
            row[2] = 0
        cases.append(zero_col)
    cases.append([[0] * 3 for _ in range(2)])
    seen = set()
    for rows in cases:
        m = DenseMatrix(QQ, rows)
        s = _to_sympy(sympy, m.rows)
        red, pivots = linalg.rref(m.rows, QQ)
        s_red, s_pivots = s.rref()
        assert pivots == list(s_pivots)
        assert red == [[_from_sympy(x) for x in s_red.row(i)] for i in range(len(pivots))]
        assert kernel_basis(m) == [[_from_sympy(x) for x in v] for v in s.nullspace()]
        if m.nrows == m.ncols:
            det = determinant(m)
            assert det == _from_sympy(s.det())
            seen.add(bool(det))
    assert seen == {True, False}


@pytest.mark.parametrize("p", [7, 10007])
def test_determinant_over_prime_fields_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1102 + p)
    field = GF(p)
    seen = set()
    for n in (1, 2, 3, 5, 6, 8):
        for k in (n, n, max(1, n - 2)):
            rows = _rank_k_product(rng, p, n, n, k, rng.choice((0.3, 1.0)))
            det = determinant(DenseMatrix(field, rows))
            assert det == field.from_int(int(sympy.Matrix(rows).det()) % p), (n, k)
            seen.add(bool(det))
    assert seen == {True, False}


def test_t_adic_valuation_is_that_of_the_gcd_of_all_minors():
    # entries t^a (c0 + ...) with c0 not +-1, so the integer elimination
    # scales rows by pivot units that are not 1
    rng = random.Random(1103)

    def entry():
        if rng.random() < 0.25:
            return QT.zero
        coeffs = [0] * rng.choice((0, 0, 1, 2, 3)) + [rng.choice((-6, -3, -2, 2, 3, 5))]
        coeffs += [rng.randint(-4, 4) for _ in range(rng.randint(0, 2))]
        return RatFunc(tuple(coeffs))

    two, three = QT.from_int(2), QT.from_int(3)
    seen = set()
    for nrows, ncols in ((3, 3), (3, 4), (4, 3), (4, 4)) * 4:
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        kind = rng.choice(("random", "close", "close", "dependent"))
        if kind == "close":
            # the minors through the last row cancel to order s: the pivot
            # units then decide the valuation
            s = rng.randint(1, 3)
            rows[-1] = [two * x - three * y + t ** s * entry()
                        for x, y in zip(rows[0], rows[1])]
        elif kind == "dependent":
            rows[-1] = [x * t + y for x, y in zip(rows[0], rows[1])]
        for size in range(1, min(nrows, ncols) + 1):
            # the size x size minors are the maximal minors of the blocks of
            # size rows, so their valuation is the least of the blocks'
            g, valuations = (), []
            for rsel in combinations(range(nrows), size):
                block = [rows[r] for r in rsel]
                h = ()
                for csel in combinations(range(ncols), size):
                    minor = determinant(DenseMatrix(QT, [[row[c] for c in csel]
                                                         for row in block]))
                    assert minor.den == (1,)
                    h = zgcd(h, minor.num)
                got = t_adic_minor_valuation(DenseMatrix(QT, block))
                assert got == (zval(h) if h else None), (rows, rsel)
                if got is not None:
                    valuations.append(got)
                g = zgcd(g, h)
            expected = zval(g) if g else None
            assert min(valuations, default=None) == expected, (rows, size)
            seen.add(expected if expected is None else expected > 0)
    assert seen == {None, True, False}


def test_t_adic_valuation_has_no_precision_cap():
    # the valuation is a length mod t^(D + 1), D = 3000 the degree bound of
    # the rows: no precision to run out of
    d = DenseMatrix(QT, [[t ** 3000, t ** 3000], [QT.one, QT.from_int(2)]])
    start = time.perf_counter()
    assert t_adic_minor_valuation(d) == 3000
    assert time.perf_counter() - start < 2
    # a core with no singleton row whose rows are dependent over Q(t), not
    # over Q: the length reaches D + 1
    rows = [[QT.one + t, t ** 2, QT.one], [t + t ** 2, t ** 3, t]]
    assert t_adic_minor_valuation(DenseMatrix(QT, rows)) is None


def _rank_entry(rng, field):
    if field == QT:
        return RatFunc((rng.randint(-3, 3), rng.randint(-2, 2)), (rng.randint(1, 3),))
    if field == QQ:
        return rat(rng.randint(-9, 9), rng.randint(1, 4))
    return field.from_int(rng.randint(-9, 9))


@pytest.mark.parametrize("field", [QQ, GF(7), GF(10007), QT], ids=str)
def test_rank_of_sparse_rows_matches_mat_rank(field):
    # rows as dicts with explicit zeros, empty rows, dependent rows and
    # int or monomial-tuple columns, against mat_rank of the dense matrix
    # and, over Q, sympy
    sympy = pytest.importorskip("sympy") if field == QQ else None
    rng = random.Random(1601)
    assert linalg.rank(field, []) == 0
    assert linalg.rank(field, [{}, {3: field.zero}]) == 0
    zero = field.zero
    sizes = (5, 6) if field == QT else (9, 12)
    seen = set()
    for case in range(40):
        ncols = rng.randint(1, sizes[1])
        if case % 2:
            cols = sorted({tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(ncols)})
        else:
            cols = list(range(ncols))
        dense = []
        for _ in range(rng.randint(0, sizes[0])):
            if len(dense) >= 2 and rng.random() < 0.3:
                a, b = rng.sample(dense, 2)
                u, v = _rank_entry(rng, field), _rank_entry(rng, field)
                dense.append([u * x + v * y for x, y in zip(a, b)])
            else:
                dense.append([_rank_entry(rng, field) if rng.random() < 0.3 else zero
                              for _ in cols])
        sparse = [{c: x for c, x in zip(cols, row) if x or rng.random() < 0.3}
                  for row in dense]
        seen.update(("zero entry" for row in sparse if zero in row.values()),
                    ("empty row" for row in sparse if not row))
        got = linalg.rank(field, sparse)
        assert got == (mat_rank(DenseMatrix(field, dense)) if dense else 0), case
        if sympy is not None and dense:
            assert got == sympy.Matrix([[sympy.Rational(int(x.numerator), int(x.denominator))
                                         for x in row] for row in dense]).rank(), case
        seen.add(got < min(len(dense), len(cols)))
    assert seen == {True, False, "zero entry", "empty row"}
