"""`RowSpace` and the Pfaffian against the field-element algorithms they
replaced, kept here as references.

`RowSpace` eliminates working coefficients (primitive integer rows over Q)
and `_pf` takes fraction-free Schur steps.  The references below are the
echelon that held rows of field elements scaled to 1 at the pivot, and the
Schur-complement recursion that divided by the pivot at every entry.  Both
sides must return the same field elements.
"""

import random
from itertools import combinations
from math import gcd

import pytest

from hilbcheck.fields import GF, QQ, QT
from hilbcheck.linalg import DenseMatrix, RowSpace, determinant, kernel_basis, pfaffian, rref
from hilbcheck.scalars import rat
from hilbcheck.upoly import RATFUNC_T as t


class ReferenceRowSpace:
    """The echelon of field elements: add and rows as `RowSpace`."""

    def __init__(self, field, track=False):
        self.field = field
        self.track = track
        self.rows = []      # (pivot_col, vector, combo dict idx -> coeff)
        self.pivots = []
        self.count = 0

    @property
    def dim(self):
        return len(self.rows)

    def add(self, vec):
        v = list(vec)
        combo = {self.count: self.field.one} if self.track else None
        self.count += 1
        self._eliminate(v, combo)
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            if self.track:
                combo.pop(self.count - 1)
                return {idx: -c for idx, c in combo.items() if c}
            return {}
        lead = v[piv]
        if lead != self.field.one:
            v = [x / lead for x in v]
            if self.track:
                combo = {idx: c / lead for idx, c in combo.items()}
        self.rows.append((piv, v, combo))
        self.pivots.append(piv)
        return None

    def _eliminate(self, v, combo):
        zero = self.field.zero
        for piv, row, rcombo in self.rows:
            c = v[piv]
            if c:
                for j, x in enumerate(row):
                    if x:
                        v[j] = v[j] - c * x
                if combo is not None:
                    for idx, x in rcombo.items():
                        combo[idx] = combo.get(idx, zero) - c * x


def _reference_relations(rows, field):
    rs = ReferenceRowSpace(field, track=True)
    pivots, relations = [], {}
    for c, col in enumerate(zip(*rows)):
        combo = rs.add(col)
        if combo is None:
            pivots.append(c)
        else:
            relations[c] = combo
    return pivots, relations


def reference_rref(rows, field):
    pivots, relations = _reference_relations(rows, field)
    ncols = len(rows[0]) if rows else 0
    out = [[field.zero] * ncols for _ in pivots]
    where = {p: i for i, p in enumerate(pivots)}
    for i, p in enumerate(pivots):
        out[i][p] = field.one
    for f, combo in relations.items():
        for p, c in combo.items():
            out[where[p]][f] = c
    return out, pivots


def reference_kernel_basis(m):
    field = m.field
    _, relations = _reference_relations(m.rows, field)
    basis = []
    for f, combo in relations.items():
        v = [field.zero] * m.ncols
        v[f] = field.one
        for p, c in combo.items():
            v[p] = -c
        basis.append(v)
    return basis


def reference_determinant(m):
    field = m.field
    rs = ReferenceRowSpace(field, track=True)
    for row in m.rows:
        if rs.add(row) is not None:
            return field.zero
    inv = field.one
    for k, (_, _, combo) in enumerate(rs.rows):
        inv = inv * combo[k]
    det = field.one / inv
    inversions = sum(a > b for a, b in combinations(rs.pivots, 2))
    return -det if inversions % 2 else det


def reference_pf(a, field):
    """The Schur-complement recursion on field elements."""
    n = len(a)
    if n == 0:
        return field.one
    j = next((c for c in range(1, n) if a[0][c]), None)
    if j is None:
        return field.zero
    sign = field.one
    if j != 1:
        a[1], a[j] = a[j], a[1]
        for row in a:
            row[1], row[j] = row[j], row[1]
        sign = -sign
    piv = a[0][1]
    u = a[0][2:]
    v = a[1][2:]
    schur = []
    for i in range(2, n):
        ui, vi = u[i - 2], v[i - 2]
        schur.append([a[i][k] + (vi * u[k - 2] - ui * v[k - 2]) / piv for k in range(2, n)])
    return sign * piv * reference_pf(schur, field)


FIELDS = [QQ, GF(101), QT]


def _entry(rng, field, density):
    """A random element, zero with probability 1 - density."""
    if rng.random() >= density:
        return field.zero
    if field is QQ:
        return rat(rng.randint(-9, 9), rng.randint(1, 6))
    if field is QT:
        return QT.from_int(rng.randint(-3, 3)) + QT.from_int(rng.randint(-2, 2)) * t
    return field.from_int(rng.randrange(field.p))


def _low_rank_rows(rng, field, m, n, k, density):
    """m x n rows spanning at most k dimensions: products B C plus a
    repeated row and a zero row, shuffled."""
    B = [[_entry(rng, field, density) for _ in range(k)] for _ in range(m)]
    C = [[_entry(rng, field, density) for _ in range(n)] for _ in range(k)]
    rows = [[sum((b * c for b, c in zip(brow, col)), field.zero) for col in zip(*C)]
            for brow in B]
    rows += [list(rng.choice(rows)), [field.zero] * n]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rowspace_agrees_with_the_field_element_echelon(field):
    rng = random.Random(2201 + (field.modulus or 0))
    # Q(t) arithmetic is slow: fewer and smaller draws there
    draws, size = (8, 5) if field is QT else (30, 9)
    dependent = independent = 0
    for _ in range(draws):
        m, n = rng.randint(1, size), rng.randint(1, size)
        rows = _low_rank_rows(rng, field, m, n, rng.randint(1, max(1, min(m, n) - 1)),
                              rng.choice((0.4, 1.0)))
        for track in (False, True):
            rs, ref = RowSpace(field, track), ReferenceRowSpace(field, track)
            for row in rows:
                got = rs.add(row)
                assert got == ref.add(row)
                assert rs.dim == ref.dim
                dependent += got is not None
                independent += got is None
            assert rs.pivots == ref.pivots
            assert rs.rows == ref.rows
        assert rref(rows, field) == reference_rref(rows, field)
        assert kernel_basis(DenseMatrix(field, rows)) == \
            reference_kernel_basis(DenseMatrix(field, rows))
        square = DenseMatrix(field, [row[:min(m, n)] for row in rows[:min(m, n)]])
        full = DenseMatrix(field, [[_entry(rng, field, 0.8) for _ in range(n)] for _ in range(n)])
        for sq in (square, full):
            assert determinant(sq) == reference_determinant(sq)
    assert dependent and independent


def test_rowspace_keeps_primitive_integer_rows_over_q():
    rs = RowSpace(QQ, track=True)
    assert rs.add([rat(1, 2), rat(1, 3), rat(0)]) is None
    assert rs.add([rat(2), rat(-4, 7), rat(5, 3)]) is None
    for piv, row, combo in rs.working:
        assert all(type(x) is int for x in row) and all(type(c) is int for c in combo.values())
        assert gcd(*row, *combo.values()) == 1
    assert rs.add([rat(5, 2), rat(-5, 21), rat(5, 3)]) == {0: rat(1), 1: rat(1)}


def _skew(rng, field, n, density):
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = _entry(rng, field, density)
            rows[i][j], rows[j][i] = x, -x
    return rows


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_pfaffian_agrees_with_the_field_element_recursion(field):
    rng = random.Random(2202 + (field.modulus or 0))
    values = set()
    for n in range(0, 13, 2):
        for density in (1.0, 0.25) if field is QT else (1.0, 0.5, 0.25):
            for _ in range(1 if field is QT else 3):
                rows = _skew(rng, field, n, density)
                pf = pfaffian(DenseMatrix(field, rows))
                assert pf == reference_pf([row[:] for row in rows], field), (n, density)
                values.add(bool(pf))
    assert values == {True, False}
