import random
from fractions import Fraction
from itertools import combinations

import pytest

from hilbcheck.fields import GF, QQ, QT
from hilbcheck.fixtures import random_skew_matrix
from hilbcheck import linalg
from hilbcheck.linalg import (DenseMatrix, RowSpace, _PointKernel, _nonzero_column_sets,
                              determinant, kernel_basis, mat_rank, minor_gcd_sample,
                              pfaffian, t_adic_minor_valuation)
from hilbcheck.tangent import family_machine
from hilbcheck.scalars import rat
from hilbcheck.upoly import RATFUNC_T as t, RatFunc, zgcd, zval


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


def test_rank_trivial():
    assert mat_rank(DenseMatrix.identity(QQ, 3)) == 3
    assert mat_rank(DenseMatrix.zero(QQ, 4, 4)) == 0


def test_rank_matches_naive_oracle():
    rng = random.Random(11)
    for _ in range(20):
        rows = [[rat(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)]
                for _ in range(4)]
        m = DenseMatrix(QQ, rows)
        assert mat_rank(m) == naive_rank(m.rows)


def test_kernel_basis():
    assert kernel_basis(DenseMatrix.identity(QQ, 3)) == []
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
    assert determinant(DenseMatrix.identity(QQ, 4)) == QQ.one
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
        assert determinant(a.matmul(b)) == determinant(a) * determinant(b)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_matmul_matches_the_entrywise_sum(field):
    rng = random.Random(720)
    for rows, inner, cols in ((3, 4, 5), (5, 5, 5), (2, 3, 1), (1, 1, 1)):
        a = [[field.from_int(rng.choice((0, 0, rng.randint(-4, 4)))) for _ in range(inner)]
             for _ in range(rows)]
        b = [[field.from_int(rng.choice((0, 0, rng.randint(-4, 4)))) for _ in range(cols)]
             for _ in range(inner)]
        expected = [[sum((a[i][k] * b[k][j] for k in range(inner)), field.zero)
                     for j in range(cols)] for i in range(rows)]
        assert DenseMatrix(field, a).matmul(DenseMatrix(field, b)).rows == expected
    with pytest.raises(ValueError):
        DenseMatrix(field, [[1, 2]]).matmul(DenseMatrix(field, [[1, 2]]))


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


def test_t_adic_valuation_basics():
    one = QT.one
    assert t_adic_minor_valuation(DenseMatrix.identity(QT, 3), 3) == 0
    d = DenseMatrix(QT, [[t, QT.zero], [QT.zero, t ** 3]])
    assert t_adic_minor_valuation(d, 2) == 4
    assert t_adic_minor_valuation(d, 1) == 1
    # rank defect: the distinct infinite outcome
    z = DenseMatrix(QT, [[t, t], [t ** 2, t ** 2]])
    assert t_adic_minor_valuation(z, 2, cross_check=False) is None
    with pytest.raises(ValueError):
        t_adic_minor_valuation(DenseMatrix(QT, [[one]]), 2)


def test_t_adic_valuation_invariances():
    rows = [[t, t ** 2, QT.zero],
            [t ** 3, t ** 4 + t, t],
            [QT.zero, t ** 2, t ** 5]]
    m = DenseMatrix(QT, rows)
    base = t_adic_minor_valuation(m, 3, cross_check=False)
    perm = DenseMatrix(QT, [rows[2], rows[0], rows[1]])
    assert t_adic_minor_valuation(perm, 3, cross_check=False) == base
    cols = DenseMatrix(QT, [[r[1], r[2], r[0]] for r in rows])
    assert t_adic_minor_valuation(cols, 3, cross_check=False) == base
    unit = QT.from_int(-7)
    scaled = DenseMatrix(QT, [[x * unit for x in rows[0]]] + rows[1:])
    assert t_adic_minor_valuation(scaled, 3, cross_check=False) == base


def test_t_adic_cross_check_agrees():
    rows = [[t, t ** 2, QT.one],
            [t ** 3, t ** 4 + t, t],
            [QT.zero, t ** 2, t ** 5]]
    m = DenseMatrix(QT, rows)
    val = t_adic_minor_valuation(m, 3)   # internal sampled-minor cross-check on
    g = minor_gcd_sample(m, 3, count=4)
    assert zval(g) == val


def test_minor_gcd_sample_matches_direct_determinant():
    # oracle: the interpolated 2x2 minor against direct Q(t) arithmetic
    rows = [[t + QT.one, t ** 2], [t ** 3, t ** 4 + t]]
    m = DenseMatrix(QT, rows)
    g = minor_gcd_sample(m, 2, count=4)
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
    # Grassmann duality, which screens the minors in minor_gcd_sample
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
        if t_adic_minor_valuation(m, 3, cross_check=False) is not None:
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
    assert minor_gcd_sample(m, 3, count=2) == full
    assert t_adic_minor_valuation(m, 3) == 5


def test_minor_gcd_sample_is_seeded():
    rng = random.Random(31)
    m = DenseMatrix(QT, [[sum((QT.from_int(rng.randint(-2, 2)) * t ** e for e in range(3)),
                              QT.zero) for _ in range(7)] for _ in range(4)])
    for seed in (1, 2):
        first = minor_gcd_sample(m, 3, count=5, seed=seed)
        assert first and minor_gcd_sample(m, 3, count=5, seed=seed) == first


def _integer_at(rows, x):
    """Rows of Z[t] entries evaluated at t = x."""
    out = []
    for row in rows:
        assert all(e.den == (1,) for e in row)
        out.append([sum(c * x ** k for k, c in enumerate(e.num)) for e in row])
    return out


def test_point_kernel_minors_equal_the_determinants():
    # every maximal minor of every block, read off one kernel per (block, point),
    # against the minor's determinant over Q(t) evaluated there
    rng = random.Random(43)

    def poly():
        return sum((QT.from_int(rng.randint(-3, 3)) * t ** e for e in range(3)), QT.zero)

    seen = set()
    # (nrows, ncols, size): size < nrows, size == nrows, size == ncols
    for nrows, ncols, size in ((3, 5, 2), (3, 5, 3), (4, 3, 3), (2, 2, 2), (3, 6, 3)):
        rows = [[poly() for _ in range(ncols)] for _ in range(nrows)]
        if ncols >= 5:
            for row in rows:
                row[-1] = row[0] + row[0]           # minors on both vanish
        rows[-1] = [t * x for x in rows[0]]         # the rank drops at t = 0
        for rsel in combinations(range(nrows), size):
            minors = {cols: determinant(DenseMatrix(
                QT, [[rows[r][c] for c in cols] for r in rsel]))
                for cols in combinations(range(ncols), size)}
            for x in (-2, 0, 1, 3):
                kernel = _PointKernel(_integer_at([rows[r] for r in rsel], x))
                for cols, minor in minors.items():
                    value = _integer_at([[minor]], x)[0][0]
                    assert kernel.minor(cols) == value, (nrows, ncols, rsel, x, cols)
                    seen.add((kernel.dual is None, bool(minor), bool(value)))
    # full-rank points, rank-drop points with nonzero Q(t) minors, and zero minors
    assert {(False, True, True), (True, True, False), (False, False, False)} <= seen


def test_point_kernel_minors_of_psi():
    psi = family_machine().psi
    rng = random.Random(53)
    at0 = _integer_at(psi.rows, 0)
    assert _PointKernel(at0).dual is None and mat_rank(DenseMatrix(QQ, at0)) < 24
    at3 = _integer_at(psi.rows, 3)
    kernel = _PointKernel(at3)
    nonzero = list(_nonzero_column_sets(kernel))
    assert len(nonzero) == 121
    for cols in rng.sample(nonzero, 4) + [tuple(range(24)), tuple(range(4, 28))]:
        det = determinant(DenseMatrix(QQ, [[row[c] for c in cols] for row in at3]))
        assert kernel.minor(cols) == det
        assert bool(det) == (cols in nonzero)


def test_minor_gcd_sample_with_every_minor_drawn_is_the_full_gcd():
    rng = random.Random(59)

    def poly():
        return sum((QT.from_int(rng.randint(-2, 2)) * t ** e for e in range(3)), QT.zero)

    for nrows, ncols in ((2, 4), (3, 5), (3, 3)):
        rows = [[poly() * t for _ in range(ncols)] for _ in range(nrows)]
        full = ()
        total = 0
        for cols in combinations(range(ncols), nrows):
            minor = determinant(DenseMatrix(QT, [[row[c] for c in cols] for row in rows]))
            total += 1
            if minor:
                full = zgcd(full, minor.num)
        assert full
        assert minor_gcd_sample(DenseMatrix(QT, rows), nrows, count=total + 1) == full


def test_minor_gcd_sample_eliminates_each_block_once_per_point(monkeypatch):
    # psi has one block (all 24 rows); each minor value is a 4 x 4 kernel minor
    full, small = [], []
    bareiss, det_int = linalg._bareiss, linalg._det_int

    def counted_bareiss(mat, *args, **kwargs):
        if len(mat) > 4:
            full.append(tuple(map(tuple, mat)))
        return bareiss(mat, *args, **kwargs)

    def counted_det_int(a):
        small.append((len(a), len(a[0]) if a else 0))
        return det_int(a)

    monkeypatch.setattr(linalg, "_bareiss", counted_bareiss)
    monkeypatch.setattr(linalg, "_det_int", counted_det_int)
    assert minor_gcd_sample(family_machine().psi, 24) == (0,) * 16 + (1,)
    assert full and len(full) == len(set(full))
    assert all(len(m) == 24 for m in full)
    assert small and max(small) <= (4, 4)


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
            g = ()
            for rsel in combinations(range(nrows), size):
                for csel in combinations(range(ncols), size):
                    minor = determinant(DenseMatrix(QT, [[rows[r][c] for c in csel]
                                                         for r in rsel]))
                    assert minor.den == (1,)
                    g = zgcd(g, minor.num)
            expected = zval(g) if g else None
            got = t_adic_minor_valuation(DenseMatrix(QT, rows), size, cross_check=False)
            assert got == expected, (rows, size)
            seen.add(expected if expected is None else expected > 0)
    assert seen == {None, True, False}


def test_t_adic_valuation_doubles_the_precision(monkeypatch):
    # the second pivot t^25 needs 2 * 25 + 8 > 48 terms: the first pass gives up
    precs = []
    eliminate = linalg._dvr_eliminate

    def counted(polys, size, prec):
        precs.append(prec)
        return eliminate(polys, size, prec)

    monkeypatch.setattr(linalg, "_dvr_eliminate", counted)
    d = DenseMatrix(QT, [[t ** 25, QT.zero], [QT.zero, QT.one]])
    assert t_adic_minor_valuation(d, 2) == 25
    assert precs == [48, 96]
