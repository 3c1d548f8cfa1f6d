"""`RowSpace`, the Pfaffian, the sampled minor gcd, the t-adic valuation and
the Q(t) rank against the algorithms they replaced, kept here as references.

`RowSpace` eliminates sparse working coefficients (primitive integer rows
over Q) and `_pf` takes fraction-free Schur steps.  The references below
are the echelon that held dense rows of field elements, each zero at the
pivots of the rows before it and scaled to 1 at its own, and the
Schur-complement recursion that divided by the pivot at every entry.  Both
sides must return the same field elements; the echelons' rows differ, but
span the same space.  `working_rank` over Q and F_p once ran a loop of its
own on dict rows, `_sparse_rank`, kept here as the reference of the rank.
`minor_gcd_sample` draws pivot minors of the peeled core until their gcd
is t^v; its reference is the gcd G of every maximal minor of the whole
matrix, each a determinant over Q(t), which must divide the sample and
equal it when the sample is t^v.  `t_adic_minor_valuation` reads the
valuation of the peeled core of a block off one untracked `RowSpace` pass over Q, as the
length of a cokernel mod t^n, which decides the rank too; its reference
ranks the whole matrix exactly over Q(t) and eliminates it over the local
ring at t on integer power series, pivoting on an entry of least valuation,
the loop `linalg` once ran for this number.  `working_rank` over Q(t) first
ranks the rows at a point; its reference ranks them exactly.  Over Q
`RowSpace` divides out the content of a vector and its combination when it
enters, after its entries have grown by `_CONTENT_BITS` bits and before its
row is stored, and `groebner._divide` finds a term's first divisor in a
table that divisions by the same, growing records share; the references
divide out the content at every step and scan the records for every term,
and both must give the same rows, combinations, remainders, quotients and
reduced bases.
"""

import pathlib
import random
from functools import reduce
from itertools import chain, combinations
from math import gcd
from operator import sub

import pytest

from hilbcheck import groebner, linalg, tangent
from hilbcheck.fields import GF, QQ, QT
from hilbcheck.fixtures import (monomial_143_ideal, random_invertible_matrix,
                                seven_quadrics_ideal, squares_cube_ideal, weight753_ideal)
from hilbcheck.groebner import (Ideal, _divide, _division_record, _subtract,
                                _working_terms, buchberger)
from hilbcheck.linalg import (DenseMatrix, RowSpace, _peel, _polynomial_entries, determinant,
                              kernel_basis, minor_gcd_sample, pfaffian, rref,
                              t_adic_minor_valuation)
from hilbcheck.poly import (GREVLEX, LEX, Polynomial, context, parse_ideal_file,
                            parse_polynomial, weight_order)
from hilbcheck.scalars import rat
from hilbcheck.smooth import change_coordinates
from hilbcheck.tangent import family_context, family_machine, family_quadrics
from hilbcheck.upoly import (RATFUNC_T as t, RatFunc, zdiv_exact, zeval, zgcd, zmul, zprim,
                             zval)


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
            # the rows are not reduced at later pivots, so they differ from
            # the reference's: each is 1 at its pivot with nothing left of
            # it, they span the same space, and a tracked row is its
            # combination of the vectors added
            dense = []
            for piv, row, combo in rs.rows:
                assert min(row) == piv and row[piv] == field.one
                dense.append([row.get(j, field.zero) for j in range(n)])
                if track:
                    assert dense[-1] == [sum((c * rows[idx][j] for idx, c in combo.items()),
                                             field.zero) for j in range(n)]
            assert reference_rref(dense, field) == \
                reference_rref([row for _, row, _ in ref.rows], field)
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
        values = list(row.values())
        assert all(type(x) is int for x in values) and all(type(c) is int for c in combo.values())
        assert values and gcd(*values, *combo.values()) == 1
    assert rs.add([rat(5, 2), rat(-5, 21), rat(5, 3)]) == {0: rat(1), 1: rat(1)}


def reference_sparse_rank(rows, p):
    """Rank of integer rows, each a dict {column: nonzero int}, over Q when
    p == 0 and over F_p when p is a prime; the dicts are consumed.

    Rows are processed shortest first, and each is reduced at its smallest
    column against the pivot row there until it vanishes or its smallest
    column has no pivot row, where it becomes one; the rank is the number of
    pivot rows.  Over Q a step is v <- a v - b w with a, b the pivot entries
    of w and v divided by their gcd, and every row is kept primitive; over
    F_p pivot rows are monic and entries are residues mod p.
    """
    pivots = {}
    for v in sorted(rows, key=len):
        while v:
            if not p:
                content = gcd(*v.values())
                if content != 1:
                    v = {j: x // content for j, x in v.items()}
            c = min(v)
            w = pivots.get(c)
            if w is None:
                if p and v[c] != 1:
                    inv = pow(v[c], -1, p)
                    v = {j: x * inv % p for j, x in v.items()}
                pivots[c] = v
                break
            a, b = w[c], v[c]       # a == 1 over F_p
            if not p:
                g = gcd(a, b)
                a //= g
                b //= g
            if a != 1:
                v = {j: a * x for j, x in v.items()}
            for j, x in w.items():
                y = v.get(j, 0) - b * x
                if p:
                    y %= p
                if y:
                    v[j] = y
                else:
                    del v[j]
    return len(pivots)


def _sparse_integer_rows(rng, nrows, ncols, k):
    """Sparse integer rows spanning at most k dimensions, some entries above
    2^200, plus an empty row, a duplicate and a single-column row."""
    basis = [{j: rng.randint(-9, 9) * rng.choice((1, 2 ** 200))
              for j in rng.sample(range(ncols), rng.randint(1, min(4, ncols)))}
             for _ in range(k)]
    rows = []
    for _ in range(nrows):
        row = {}
        for b in rng.sample(basis, rng.randint(1, min(2, k))):
            c = rng.randint(-3, 3)
            for j, x in b.items():
                row[j] = row.get(j, 0) + c * x
        rows.append({j: x for j, x in row.items() if x})
    rows += [{}, dict(rng.choice(rows)), {rng.randrange(ncols): 2 ** 201 + 1}]
    rng.shuffle(rows)
    return rows


def _hom_rows(monkeypatch):
    """The Hom-system rows that `tangent_dimension` ranks over Q on the
    nine bundled ideal files."""
    data = pathlib.Path(tangent.__file__).resolve().parent / "data"
    captured = []
    rank = tangent.working_rank

    def recorded(field, rows):
        captured.append([dict(row) for row in rows])
        return rank(field, rows)

    monkeypatch.setattr(tangent, "working_rank", recorded)
    for path in sorted(data.glob("*.ideal")):
        ctx, polys = parse_ideal_file(path.read_text())
        assert ctx.field == QQ
        tangent.tangent_dimension(Ideal(ctx, polys))
    return captured


def test_working_rank_matches_the_dict_elimination_it_replaced(monkeypatch):
    # integer rows over Q, and their residues over F_5, F_7 and F_101
    rng = random.Random(2501)
    systems = [_sparse_integer_rows(rng, rng.randint(1, 12), rng.randint(1, 10),
                                    rng.randint(1, 6)) for _ in range(60)]
    hom = _hom_rows(monkeypatch)
    assert len(hom) == 9
    deficient = set()
    for rows in systems + hom:
        for p in (0, 5, 7, 101):
            residues = [{j: x % p for j, x in row.items() if x % p} for row in rows] if p \
                else rows
            got = linalg.working_rank(GF(p) if p else QQ, [dict(r) for r in residues])
            assert got == reference_sparse_rank([dict(r) for r in residues], p), (p, rows)
            if got < len(rows):
                deficient.add(p)
    assert deficient == {0, 5, 7, 101}


class StepContentRowSpace(RowSpace):
    """`RowSpace` as it was when the content of v and its combination was
    divided out at every reduction step."""

    def add_working(self, v, den):
        idx = self.count
        self.count += 1
        combo = {idx: den} if self.track else None
        p = self.field.modulus
        zero = self.field.zero if p is None else 0
        at = self._at
        while v:
            if p == 0:
                g = gcd(*v.values(), *combo.values()) if combo else gcd(*v.values())
                if g != 1:
                    v = {j: x // g for j, x in v.items()}
                    if combo is not None:
                        combo = {i: c // g for i, c in combo.items()}
            piv = min(v)
            hit = at.get(piv)
            if hit is None:
                break
            w, wcombo = hit
            b = v[piv]
            if p == 0:
                a = w[piv]
                g = gcd(a, b)
                a //= g
                b //= g
                if a != 1:
                    v = {j: a * x for j, x in v.items()}
                    if combo is not None:
                        combo = {i: a * c for i, c in combo.items()}
            for j, x in w.items():
                y = v.get(j, zero) - b * x
                if p:
                    y %= p
                if y:
                    v[j] = y
                else:
                    del v[j]
            if combo is not None:
                for i, x in wcombo.items():
                    y = combo.get(i, zero) - b * x
                    combo[i] = y % p if p else y
        if not v:
            if combo is None:
                return {}
            own = combo.pop(idx)
            return {i: self._value(-c, own) for i, c in combo.items() if c}
        lead = v[piv]
        if p:
            if lead != 1:
                inv = pow(lead, -1, p)
                v = {j: x * inv % p for j, x in v.items()}
                if combo is not None:
                    combo = {i: c * inv % p for i, c in combo.items()}
        elif p is None and lead != self.field.one:
            v = {j: x / lead for j, x in v.items()}
            if combo is not None:
                combo = {i: c / lead for i, c in combo.items()}
        at[piv] = (v, combo)
        self.working.append((piv, v, combo))
        self.pivots.append(piv)
        return None


def test_rowspace_over_q_matches_the_per_step_content_it_replaced():
    # each step multiplies v by a pivot entry over a gcd, which has that
    # entry's sign either way, so the primitive rows and combinations agree;
    # rows and single entries scaled by 10^9 + 7 give the content something
    # to remove, and entries of 2^200 make it grow past _CONTENT_BITS
    rng = random.Random(2701)
    big = 10 ** 9 + 7
    dependent = scaled = 0
    for _ in range(120):
        rows = _sparse_integer_rows(rng, rng.randint(1, 12), rng.randint(1, 10),
                                    rng.randint(1, 6))
        system = []
        for row in rows:
            k = rng.choice((0, 0, 1, 2))
            row = {j: x * big ** k * (big if rng.random() < 0.2 else 1) for j, x in row.items()}
            scaled += k > 0
            system.append((row, rng.choice((1, 1, 6, big, 2 ** 70))))
        for track in (False, True):
            rs, ref = RowSpace(QQ, track), StepContentRowSpace(QQ, track)
            for row, den in system:
                got = rs.add_working(dict(row), den)
                assert got == ref.add_working(dict(row), den)
                dependent += got is not None
            assert rs.working == ref.working
            assert rs.pivots == ref.pivots
    assert dependent and scaled


def reference_divide(work, records, order, field, track=False, scale=1):
    """`groebner._divide` as it was when every term scanned the records for
    its first divisor."""
    p = field.modulus
    element = field.element
    within = order.within
    rem = {}
    quots = [{} for _ in records] if track else None
    num, den = scale, 1
    while work:
        m = max(work)
        c = work.pop(m)
        for i, (lm, bound, lc, tail) in enumerate(records):
            if all(map(within, m, bound)):
                mq = tuple(map(sub, m, lm))
                if track:
                    quots[i][mq] = c if p is None else element(c * den, num)
                a = 1
                if p == 0 and lc != 1:
                    g = gcd(c, lc)
                    a, c = lc // g, c // g
                    if a != 1:
                        num *= a
                        for part in (work, rem):
                            for mm in part:
                                part[mm] *= a
                _subtract(work, c, mq, tail, p)
                if a != 1:
                    content = gcd(*work.values(), *rem.values())
                    if content > 1:
                        den *= content
                        for part in (work, rem):
                            for mm in part:
                                part[mm] //= content
                break
        else:
            rem[m] = c
    return rem, quots, (num, den)


def _random_polynomial(rng, ctx, nterms, degree):
    terms = {}
    for _ in range(nterms):
        m = [0] * ctx.d
        for _ in range(rng.randint(0, degree)):
            m[rng.randrange(ctx.d)] += 1
        terms[tuple(m)] = _entry(rng, ctx.field, 0.9)
    return Polynomial(ctx, terms)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_divide_with_a_first_divisor_table_matches_the_linear_scan(field):
    # one table serves divisions by a list of records that grows at its
    # end, as in buchberger, and by a fixed list, as in a GroebnerBasis
    rng = random.Random(2702 + (field.modulus or 0))
    ctx = context(field, "x y z")
    rounds = 4 if field is QT else 12
    for order in (GREVLEX, LEX, weight_order((3, 1, 2))):
        for _ in range(rounds):
            divisors = [_random_polynomial(rng, ctx, rng.randint(1, 4), 3) for _ in range(6)]
            records = [_division_record(g, order) for g in divisors if g]
            first = {}
            for k in range(1, len(records) + 1):
                for _ in range(3):
                    f = _random_polynomial(rng, ctx, rng.randint(1, 8), 5)
                    work = _working_terms(f, order)[0]
                    track = rng.random() < 0.5
                    scale = rng.choice((1, 3)) if field.modulus == 0 else 1
                    got = _divide(dict(work), records[:k], order, field, track, scale, first)
                    assert got == reference_divide(dict(work), records[:k], order, field,
                                                   track, scale)
        assert first


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_buchberger_with_the_table_matches_the_linear_scan(field, monkeypatch):
    rng = random.Random(2703 + (field.modulus or 0))
    if field is QT:
        ctx = context(QT, "x y z")
        ideals = [Ideal(ctx, [parse_polynomial(s, ctx) for s in texts])
                  for texts in (("x^2 - t*y", "y^2 - x*z", "z^2 - t*x*y"),
                                ("x*y - t*z^2", "x^2 + y^2 - z^2", "y^3 + t*x"))]
        ideals.append(Ideal(family_context(), family_quadrics()))
    else:
        ideals = [change_coordinates(I, random_invertible_matrix(rng.randint(0, 10 ** 9),
                                                                 I.ctx.d, field))
                  for I in (seven_quadrics_ideal(4, field), seven_quadrics_ideal(5, field),
                            monomial_143_ideal(field), squares_cube_ideal(field),
                            weight753_ideal(field))]

    def bases():
        return [buchberger(I, order).gens for I in ideals
                for order in (GREVLEX, LEX, weight_order(range(I.ctx.d, 0, -1)))]

    expected = bases()
    assert max(map(len, expected)) >= 7
    monkeypatch.setattr(groebner, "_divide",
                        lambda *args, first=None, **kwargs: reference_divide(*args, **kwargs))
    assert bases() == expected


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


# entries of the sparse matrices: the three that vanish at t = 0, 3 or 5,
# 3 being the sample's first draw point, and dense polynomials of degree <= 2
_SPECIAL = (t, t - QT.from_int(3), t - QT.from_int(5))


def _poly_entry(rng):
    if rng.random() < 0.4:
        return rng.choice(_SPECIAL) * QT.from_int(rng.choice((-2, -1, 1, 3)))
    while True:
        x = sum((QT.from_int(rng.randint(-3, 3)) * t ** e for e in range(rng.randint(1, 3))),
                QT.zero)
        if x:
            return x


def _sparse_qt_case(rng):
    """The rows of a sparse Q(t) matrix: a chain of rows whose peels make
    the next one a singleton, singleton rows, denser rows, and at times a
    zero row, with the rows shuffled."""
    nrows = rng.randint(2, 7)
    ncols = nrows + rng.randint(0, 3)
    rows = [[QT.zero] * ncols for _ in range(nrows)]
    cols = rng.sample(range(ncols), ncols)
    chain_len = rng.randint(0, nrows)
    for i in range(chain_len):
        # row i meets the columns of the chain's rows before it and one new column
        rows[i][cols[i]] = _poly_entry(rng)
        for c in cols[:i]:
            if rng.random() < 0.4:
                rows[i][c] = _poly_entry(rng)
    for i in range(chain_len, nrows):
        for c in rng.sample(range(ncols), rng.randint(1, ncols)):
            rows[i][c] = _poly_entry(rng)
    if rng.random() < 0.15:
        rows[rng.randrange(nrows)] = [QT.zero] * ncols
    rng.shuffle(rows)
    rng.randrange(4)    # once a sample size, still drawn so the seeded cases stay the same
    return rows


def reference_minors(m):
    """Every nonzero maximal minor of m by its columns, a determinant over
    Q(t) made primitive in Z[t] with positive leading coefficient."""
    out = {}
    for cols in combinations(range(m.ncols), m.nrows):
        minor = determinant(DenseMatrix(QT, [[row[c] for c in cols] for row in m.rows]))
        if minor:
            out[cols] = zprim(minor.num)
    return out


def drawn_minors(monkeypatch, m, v):
    """`minor_gcd_sample(m, v)` and the minors it drew, each as (the columns
    of m, with the peeled ones joined back, the minor)."""
    _, core_cols, _ = reference_peel(_polynomial_entries(m))
    peeled = set(range(m.ncols)) - set(core_cols)
    drawn = []
    minor_poly = linalg._minor_poly

    def recorded(core, product, csel, at):
        det = minor_poly(core, product, csel, at)
        drawn.append((tuple(sorted(peeled | {core_cols[k] for k in csel})), det))
        return det

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_minor_poly", recorded)
        return minor_gcd_sample(m, v), drawn


def test_minor_gcd_sample_off_the_peeled_core_matches_the_whole_blocks(monkeypatch):
    # every drawn minor is the whole matrix's minor on the same columns; the
    # gcd G of all of them divides the sample, which is G whenever it is t^v,
    # and () exactly when v is None
    rng = random.Random(2301)
    seen = set()
    for _ in range(120):
        rows = _sparse_qt_case(rng)
        m = DenseMatrix(QT, rows)
        v = t_adic_minor_valuation(m)
        got, drawn = drawn_minors(monkeypatch, m, v)
        minors = reference_minors(m)
        full = reduce(lambda g, m: zgcd(g, m, 0), minors.values(), ())
        assert (got == ()) == (v is None) == (full == ()), rows
        for cols, det in drawn:
            assert minors.get(cols) == det, (rows, cols)
        if v is not None:
            assert zval(full) == v and zprim(got) == got, rows
            zdiv_exact(got, full)       # raises unless G divides the sample
            reached = got == (0,) * v + (1,)
            assert got == full or not reached, rows
            seen.add(("reaches t^v", reached))
            seen.add(("is G", got == full))
            seen.add(("several draws", len(drawn) > 1))
        polys = _polynomial_entries(m)
        core, product = _peel(polys)
        singletons = sum(sum(map(bool, row)) == 1 for row in polys)
        seen.add(("peels that make a singleton", len(rows) - len(core) > singletons))
        seen.add(("fully peeled", not core))
        seen.add(("zero row", not all(map(any, polys))))
        seen.add(("gcd", len(got)))
        seen.update(("vanishes at", x) for x in (0, 3, 5) if zeval(product, x) == 0)
    assert {("peels that make a singleton", True), ("fully peeled", True),
            ("zero row", True),
            ("vanishes at", 0), ("vanishes at", 3), ("vanishes at", 5),
            ("gcd", 0), ("gcd", 1), ("gcd", 2),
            ("reaches t^v", True), ("reaches t^v", False),
            ("is G", True), ("is G", False), ("several draws", True)} <= seen


def reference_peel(polys):
    """The core of `linalg._peel` as (rows, columns, product): the rows and
    columns of the whole matrix it keeps, and the product of the peeled
    entries."""
    rows = list(range(len(polys)))
    cols = set(range(len(polys[0])))
    product = (1,)
    while True:
        for r in rows:
            support = [c for c in cols if polys[r][c]]
            if len(support) == 1:
                break
        else:
            return rows, sorted(cols), product
        rows.remove(r)
        cols.remove(support[0])
        product = zmul(product, polys[r][support[0]])


def test_minor_gcd_sample_reads_psis_drawn_minors_off_its_core(monkeypatch):
    # the core draws psi's 5 minors, on core columns; with the 14 peeled
    # columns joined back they are psi's own minors on those columns
    psi = family_machine().psi
    polys = _polynomial_entries(psi)
    core_rows, core_cols, product = reference_peel(polys)
    assert _peel(polys) == ([[polys[r][c] for c in core_cols] for r in core_rows], product)
    assert (len(core_rows), len(core_cols)) == (10, 14) and product in {(0,) * 6 + (1,),
                                                                      (0,) * 6 + (-1,)}
    got, drawn = drawn_minors(monkeypatch, psi, 16)
    assert got == (0,) * 16 + (1,) and len(drawn) == 5
    for cols, det in drawn:
        minor = determinant(DenseMatrix(QT, [[row[c] for c in cols] for row in psi.rows]))
        assert det == zprim(minor.num), cols


def reference_t_adic_minor_valuation(m):
    """The valuation before the peel and the cokernel length: the exact
    rank over Q(t) by the field element echelon, then the elimination of
    the whole matrix over the local ring at t on integer power series,
    doubling the precision until it suffices."""
    rs = ReferenceRowSpace(QT)
    for row in m.rows:
        rs.add(row)
    if rs.dim < m.nrows:
        return None
    polys = _polynomial_entries(m)
    prec = 48
    while True:
        total = reference_dvr_eliminate(polys, prec)
        if total is not None:
            return total
        prec *= 2


def reference_dvr_eliminate(polys, prec):
    """Sum of the pivot valuations of one elimination step per row over
    Z[[t]], entries known mod t^p; None means precision ran out.

    Each step takes an entry t^v u of least valuation (u a unit) as pivot and
    sets row_r <- u row_r - (e / t^v) pivot_row for the entry e of row r in
    the pivot column, known mod t^(p - v), then divides row_r by its integer
    content.  That is u times the field step row_r - (e / t^v) u^-1
    pivot_row, up to a constant, and a unit or a constant changes no
    valuation, so pivots and valuations are those of the field step.
    """
    rows = [[list(coeffs[:prec]) for coeffs in prow] for prow in polys]
    live_rows = list(range(len(rows)))
    live_cols = list(range(len(rows[0])))
    total = 0
    p = prec
    for _ in range(len(rows)):
        best = None
        for r in live_rows:
            for c in live_cols:
                v = zval(rows[r][c][:p])
                if v is not None and (best is None or v < best[0]):
                    best = (v, r, c)
        if best is None or best[0] * 2 + 8 > p:
            return None
        v, pr, pc = best
        total += v
        newp = p - v
        unit = rows[pr][pc][v:p]
        pivrow = {c: rows[pr][c][:p] for c in live_cols}
        for r in live_rows:
            if r == pr:
                continue
            e = rows[r][pc][:p]
            if zval(e) is None:
                continue
            f = e[v:]
            row = rows[r]
            for c in live_cols:
                row[c] = [a - b for a, b in zip(_series_mul(unit, row[c], newp),
                                                _series_mul(f, pivrow[c], newp))]
            content = gcd(*chain.from_iterable(row[c] for c in live_cols))
            if content > 1:
                for c in live_cols:
                    row[c] = [x // content for x in row[c]]
        live_rows.remove(pr)
        live_cols.remove(pc)
        p = newp
    return total


def _series_mul(a, b, prec):
    out = [0] * prec
    for i, ca in enumerate(a[:prec]):
        if ca:
            for j, cb in enumerate(b[:prec - i]):
                if cb:
                    out[i + j] += ca * cb
    return out


def test_t_adic_valuation_off_the_peeled_core_matches_the_whole_matrix():
    rng = random.Random(2401)
    seen = set()
    for _ in range(120):
        rows = _sparse_qt_case(rng)
        m = DenseMatrix(QT, rows)
        got = t_adic_minor_valuation(m)
        assert got == reference_t_adic_minor_valuation(m), rows
        polys = _polynomial_entries(m)
        seen.add(("zero row", not all(map(any, polys))))
        seen.add(("valuation", got if got is None else got > 0))
        core, product = _peel(polys)
        seen.add(("fully peeled", not core))
        seen.add(("product vanishes at 0", zeval(product, 0) == 0))
    assert {("fully peeled", True), ("fully peeled", False),
            ("zero row", True), ("product vanishes at 0", True),
            ("valuation", None), ("valuation", True), ("valuation", False)} <= seen
    psi = family_machine().psi
    assert t_adic_minor_valuation(psi) == 16
    assert reference_t_adic_minor_valuation(psi) == 16


def _qt_entry(rng):
    # denominators 1, t + a and t^2 + 1, none of which vanishes at the rank point
    den = rng.choice(((1,), (rng.choice((1, 2, -3)), 1), (1, 0, 1)))
    return RatFunc(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3))), den)


def _exact_qt_rank(rows):
    cols = sorted({j for row in rows for j in row})
    rs = RowSpace(QT)
    for row in rows:
        rs.add([row.get(j, QT.zero) for j in cols])
    return rs.dim


def test_qt_rank_at_a_point_matches_the_exact_rank(monkeypatch):
    # the rank at the point is taken when it reaches min(rows, columns); the
    # Q(t) echelon runs otherwise: on rank-deficient matrices, on full-rank
    # ones whose rank drops at the point, and when a denominator vanishes
    # there.  The rank at the point runs an echelon over Q, not counted.
    echelons = []

    class Counted(RowSpace):
        __slots__ = ()

        def __init__(self, field, *args, **kwargs):
            if field == QT:
                echelons.append(1)
            super().__init__(field, *args, **kwargs)

    monkeypatch.setattr(linalg, "RowSpace", Counted)
    rng = random.Random(2402)
    x = QT.from_int(linalg._RANK_POINT)
    drop = (t - x) * (t + QT.from_int(2))
    seen = {}
    for case in range(40):
        kind = ("full", "deficient", "drops at the point", "denominator vanishes")[case % 4]
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        if kind == "drops at the point":
            # a wide matrix whose last row is the first at the point
            nrows = rng.randint(2, 4)
            ncols = rng.randint(nrows, 4)
        rows = [[_qt_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
        if kind == "deficient":
            k = rng.randint(0, min(nrows, ncols) - 1)
            basis = [[_qt_entry(rng) for _ in range(ncols)] for _ in range(k)]
            coeffs = [[_qt_entry(rng) for _ in basis] for _ in range(nrows)]
            rows = [[sum((c * b[j] for c, b in zip(row, basis)), QT.zero) for j in range(ncols)]
                    for row in coeffs]
        elif kind == "drops at the point":
            rows[-1] = [a + drop * b for a, b in zip(rows[0], rows[-1])]
        elif kind == "denominator vanishes":
            pole = QT.from_int(rng.choice((-2, 1, 3))) / (t - x)
            rows[rng.randrange(nrows)][rng.randrange(ncols)] = pole + _qt_entry(rng)
        sparse = [{j: e for j, e in enumerate(row) if e or rng.random() < 0.3} for row in rows]
        exact = _exact_qt_rank(sparse)
        del echelons[:]
        assert linalg.working_rank(QT, sparse) == exact, (kind, rows)
        assert linalg.mat_rank(DenseMatrix(QT, rows)) == exact, (kind, rows)
        full = exact == min(nrows, ncols)
        seen.setdefault(kind, set()).add((full, bool(echelons)))
    # the point decides every full-rank case it can; the rest fall back
    assert seen["full"] == {(True, False)}
    assert seen["deficient"] == {(False, True)}
    for kind in ("drops at the point", "denominator vanishes"):
        assert (True, True) in seen[kind] and all(echelon for _, echelon in seen[kind])
