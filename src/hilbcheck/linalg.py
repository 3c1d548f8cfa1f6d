"""Exact linear algebra over the scalar fields.

Everything here is exact, and five elimination loops do all of it, each
kept for work the others would do slower:

- `RowSpace`, the one field-generic echelon.  It is incremental, and can
  track each vector's coefficients over those added before it.  `rref` and
  `kernel_basis` read one tracked pass over the columns, `determinant` one
  over the rows, and `mat_rank` uses it over Q(t).
- `_sparse_rank`, rank of integer rows held as dicts of their nonzero
  entries, over Q and F_p: the large, mostly zero tangent systems.
- `_bareiss`, fraction-free Gauss-Jordan elimination of integer matrices:
  the integer kernels that every sampled maximal minor is read from.
- `_pf`, the Schur-complement recursion for Pfaffians, which no echelon of
  a skew-symmetric matrix gives.
- `_dvr_eliminate`, elimination over the local ring at t on integer power
  series, for the t-adic valuation of the gcd of the maximal minors of a
  polynomial matrix.
"""

import random
from itertools import chain, combinations
from math import factorial, gcd, lcm

from .fields import QQ, QT
from .scalars import rat
from .upoly import RatFunc, zgcd, ztrim, zprim, zval


class DenseMatrix:
    """Row-major exact matrix; all entries live in one coefficient field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows):
        self.field = field
        elem = field.elem
        self.rows = [[x if type(x) is elem else _coerce(field, x) for x in row]
                     for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    @staticmethod
    def identity(field, n):
        one, zero = field.one, field.zero
        return DenseMatrix(field, [[one if i == j else zero for j in range(n)]
                                   for i in range(n)])

    @staticmethod
    def zero(field, nrows, ncols):
        z = field.zero
        return DenseMatrix(field, [[z] * ncols for _ in range(nrows)])

    def copy_rows(self):
        return [row[:] for row in self.rows]

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        z = self.field.zero
        cols = list(zip(*other.rows))
        out = []
        for row in self.rows:
            nonzero = [(k, a) for k, a in enumerate(row) if a]
            new = []
            for col in cols:
                acc = z
                for k, a in nonzero:
                    b = col[k]
                    if b:
                        acc = acc + a * b
                new.append(acc)
            out.append(new)
        return DenseMatrix(self.field, out)

    def apply(self, vec):
        z = self.field.zero
        nonzero = [(k, v) for k, v in enumerate(vec) if v]
        out = []
        for row in self.rows:
            acc = z
            for k, v in nonzero:
                a = row[k]
                if a:
                    acc = acc + a * v
            out.append(acc)
        return out

    def trace(self):
        acc = self.field.zero
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def __eq__(self, other):
        return (isinstance(other, DenseMatrix) and self.field == other.field
                and self.rows == other.rows)

    def __repr__(self):
        return "\n".join("[" + ", ".join(map(str, row)) + "]" for row in self.rows)


def _coerce(field, x):
    """x as an element of field; DenseMatrix passes here only the entries
    whose type is not already field.elem."""
    if isinstance(x, int):
        return field.from_int(x)
    if field == QQ:
        if hasattr(x, "numerator") and hasattr(x, "denominator") and not isinstance(x, RatFunc):
            return rat(int(x.numerator), int(x.denominator))
        raise TypeError(f"mixed coefficient domains: {x!r} is not rational")
    if field == QT:
        if isinstance(x, RatFunc):
            return x
        if hasattr(x, "numerator") and hasattr(x, "denominator"):
            return RatFunc((int(x.numerator),), (int(x.denominator),))
        raise TypeError(f"mixed coefficient domains: {x!r} is not in Q(t)")
    raise TypeError(f"mixed coefficient domains: {x!r} is not in {field}")


class RowSpace:
    """Incremental echelon span with optional dependency coefficients.

    add(v) returns None when v enlarges the span, else (when track=True) the
    coefficients expressing v over the vectors added so far.
    """

    __slots__ = ("field", "track", "rows", "pivots", "count")

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
            # residual 0 = vec + sum(combo[i] * earlier_i): report vec over the earlier vectors
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

    def reduce(self, vec):
        """Residual of vec after eliminating against the span's pivot rows."""
        v = list(vec)
        self._eliminate(v, None)
        return v

    def _eliminate(self, v, combo):
        # rows go in insertion order: each is zero at the pivots before it;
        # combo, when given, takes the same steps on the coefficients
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

    def contains(self, vec):
        return not any(self.reduce(vec))


def _column_relations(rows, field):
    """One tracked `RowSpace` pass over the columns of the matrix with these
    rows, column c added as vector c.  Returns the pivot columns, those
    independent of the columns before them, and for every other column f its
    unique coefficients {p: c} over the pivot columns: column f is the sum
    of c * column p."""
    rs = RowSpace(field, track=True)
    pivots, relations = [], {}
    for c, col in enumerate(zip(*rows)):
        combo = rs.add(col)
        if combo is None:
            pivots.append(c)
        else:
            relations[c] = combo
    return pivots, relations


def rref(rows, field):
    """Reduced row echelon form; returns (rref_rows, pivot_columns).

    Row ops keep every relation among the columns, so column f of the RREF
    holds the coefficients of column f over the pivot columns."""
    pivots, relations = _column_relations(rows, field)
    ncols = len(rows[0]) if rows else 0
    out = [[field.zero] * ncols for _ in pivots]
    where = {p: i for i, p in enumerate(pivots)}
    for i, p in enumerate(pivots):
        out[i][p] = field.one
    for f, combo in relations.items():
        for p, c in combo.items():
            out[where[p]][f] = c
    return out, pivots


def mat_rank(m):
    """Rank over the entry field by exact elimination of the nonzero rows.

    Over Q and F_p the rows go to `_sparse_rank` as integer dicts of their
    nonzero entries: a row over Q is scaled by the lcm of the denominators
    of its nonzero entries, and a row over F_p holds its residues.  Over
    Q(t) the rows are eliminated by `RowSpace`.
    """
    field = m.field
    if field == QT:
        rs = RowSpace(field)
        for row in m.rows:
            if any(row):
                rs.add(row)
        return rs.dim
    rows = []
    if field == QQ:
        for row in m.rows:
            nonzero = [(j, x) for j, x in enumerate(row) if x]
            if nonzero:
                den = lcm(*(int(x.denominator) for _, x in nonzero))
                rows.append({j: int(x.numerator) * (den // int(x.denominator))
                             for j, x in nonzero})
        return _sparse_rank(rows, 0)
    for row in m.rows:
        v = {j: x.v for j, x in enumerate(row) if x.v}
        if v:
            rows.append(v)
    return _sparse_rank(rows, field.p)


def _sparse_rank(rows, p):
    """Rank of integer rows, each a dict {column: nonzero int}, over Q when
    p == 0 and over F_p when p is a prime; the dicts are consumed.

    Rows are processed shortest first, and each is reduced at its smallest
    column against the pivot row there until it vanishes or its smallest
    column has no pivot row, where it becomes one; the rank is the number of
    pivot rows.  A pivot row's smallest column is its pivot, so a reduction
    step only fills in columns to the right of the one it clears.  Over Q a
    step is v <- a v - b w with a, b the pivot entries of w and v divided by
    their gcd, and every row is kept primitive; over F_p pivot rows are
    monic and entries are residues mod p.
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


def _bareiss(mat, reduce=False):
    """Fraction-free (Bareiss) elimination of an integer matrix, in place.

    Returns the original indices of the pivot rows, the pivot columns, and the
    minor on them up to sign; the sign is exact when the rows are independent,
    and that minor is then the determinant of the matrix on its pivot columns.

    Forward only by default.  With reduce=True each pivot also clears the
    rows above it (fraction-free Gauss-Jordan, with the same pivots and the
    same exact divisions): the leading rows then hold d times the reduced
    row echelon form, where d is the last pivot, d = +-(that minor).
    """
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    order = list(range(nrows))
    pivots = []
    sign = prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if mat[i][c]), None)
        if p is None:
            continue
        if p != r:
            mat[r], mat[p] = mat[p], mat[r]
            order[r], order[p] = order[p], order[r]
            sign = -sign
        piv = mat[r][c]
        row_r = mat[r]
        for i in chain(range(r), range(r + 1, nrows)) if reduce else range(r + 1, nrows):
            # a row above the pivot also rescales its earlier columns
            lo = c if i > r else 0
            row_i = mat[i]
            mic = row_i[c]
            if mic:
                for j in range(lo, ncols):
                    row_i[j] = (row_i[j] * piv - mic * row_r[j]) // prev
            else:
                for j in range(lo, ncols):
                    row_i[j] = row_i[j] * piv // prev
        prev = piv
        pivots.append(c)
        r += 1
    return order[:r], pivots, sign * prev


def _det_int(a):
    rows, _, det = _bareiss(a)
    return det if len(rows) == len(a) else 0


def kernel_basis(m):
    """Basis of the right null space; len == ncols - rank.

    One vector per non-pivot column f: e_f minus its coefficients over the
    pivot columns, so it is 1 at f and 0 at every other non-pivot column."""
    field = m.field
    _, relations = _column_relations(m.rows, field)
    basis = []
    for f, combo in relations.items():
        v = [field.zero] * m.ncols
        v[f] = field.one
        for p, c in combo.items():
            v[p] = -c
        basis.append(v)
    return basis


def determinant(m):
    """Exact determinant from one tracked `RowSpace` pass over the rows.

    Row k is stored divided by its pivot lead_k with coefficient 1/lead_k on
    itself; the residuals before that division are zero at the pivots of the
    rows before them, so det = sgn(pivot columns) * prod lead_k."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    field = m.field
    rs = RowSpace(field, track=True)
    for row in m.rows:
        if rs.add(row) is not None:
            return field.zero
    inv = field.one
    for k, (_, _, combo) in enumerate(rs.rows):
        inv = inv * combo[k]
    det = field.one / inv
    inversions = sum(a > b for a, b in combinations(rs.pivots, 2))
    return -det if inversions % 2 else det


def pfaffian(m):
    """Pfaffian of a skew-symmetric even-size matrix, pf([[0,a],[-a,0]]) = a."""
    if m.nrows != m.ncols:
        raise ValueError("pfaffian needs a square matrix")
    if m.nrows % 2 != 0:
        raise ValueError("pfaffian needs even size")
    for i in range(m.nrows):
        if m.rows[i][i]:
            raise ValueError("matrix is not skew-symmetric")
        for j in range(i + 1, m.ncols):
            if m.rows[i][j] != -m.rows[j][i]:
                raise ValueError("matrix is not skew-symmetric")
    return _pf(m.copy_rows(), m.field)


def _pf(a, field):
    n = len(a)
    if n == 0:
        return field.one
    j = next((c for c in range(1, n) if a[0][c]), None)
    if j is None:
        return field.zero
    sign = field.one
    if j != 1:
        # simultaneous row and column swap 1 <-> j flips the sign
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
        row = []
        for k in range(2, n):
            x = a[i][k] + (vi * u[k - 2] - ui * v[k - 2]) / piv
            row.append(x)
        schur.append(row)
    return sign * piv * _pf(schur, field)


# ---------------------------------------------------------------------------
# t-adic valuation of the gcd of maximal minors


def t_adic_minor_valuation(m, size, cross_check=True):
    """Valuation of gcd of all size x size minors of a Q[t]-matrix.

    Computed by elimination over the local ring at t (pivots of minimal
    valuation; the answer is the sum of the pivot valuations), and optionally
    cross-checked against a seeded sample of full minors.  Returns None when
    the rank over Q(t) is below `size` (the valuation is infinite).
    """
    if m.field != QT:
        raise TypeError("t-adic valuation needs entries in Q(t)")
    if m.nrows < size or m.ncols < size:
        raise ValueError("matrix smaller than requested minor size")
    polys = _polynomial_entries(m)
    if not _full_rank_certificate(m, polys, size):
        return None
    total = _dvr_pivot_valuations(polys, size)
    if cross_check:
        g = minor_gcd_sample(m, size, count=32, seed=271828)
        if not g:
            raise ArithmeticError("sampled minors all vanish yet rank is full")
        if zval(g) != total:
            raise ArithmeticError(
                f"valuation certificate {total} disagrees with sampled gcd t^{zval(g)}")
    return total


def _polynomial_entries(m):
    """Entries as integer coefficient lists, each row scaled by the lcm of its
    denominators, which must be t-free.  A row scale multiplies every maximal
    minor by a nonzero constant and changes no valuation."""
    out = []
    for row in m.rows:
        if any(len(x.den) > 1 for x in row):
            raise ValueError("entry is not a polynomial in t")
        den = lcm(*(x.den[0] for x in row))
        out.append([[c * (den // x.den[0]) for c in x.num] for x in row])
    return out


def _eval_matrix(polys, x):
    """The coefficient-list matrix evaluated at t = x, by Horner's rule."""
    out = []
    for prow in polys:
        row = []
        for coeffs in prow:
            acc = 0
            for cf in reversed(coeffs):
                acc = acc * x + cf
            row.append(acc)
        out.append(row)
    return out


def _full_rank_certificate(m, polys, size):
    # rank at any specialization is a lower bound for the rank over Q(t)
    for c in (rat(1), rat(-2), rat(5, 3), rat(7), rat(-11, 4)):
        if mat_rank(DenseMatrix(QQ, _eval_matrix(polys, c))) >= size:
            return True
    # inconclusive by sampling: decide exactly over Q(t)
    return mat_rank(m) >= size


def _dvr_pivot_valuations(polys, size):
    prec = 48
    while True:
        result = _dvr_eliminate(polys, size, prec)
        if result is not None:
            return result
        prec *= 2
        if prec > 4096:
            raise ArithmeticError("t-adic precision exhausted")


def _series_val(s):
    for i, c in enumerate(s):
        if c:
            return i
    return None


def _dvr_eliminate(polys, size, prec):
    """Sum of the pivot valuations of `size` elimination steps over Z[[t]],
    entries known mod t^p; None means precision ran out.

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
    for _ in range(size):
        best = None
        for r in live_rows:
            for c in live_cols:
                v = _series_val(rows[r][c][:p])
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
            if _series_val(e) is None:
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


def minor_gcd_sample(m, size, count=32, seed=271828):
    """Gcd (primitive, in Z[t]) of a seeded sample of nonzero size x size minors.

    Every minor is read off one integer elimination per (block of `size`
    rows, integer point t = x): a fraction-free Gauss-Jordan pass gives the
    block's integer kernel at x, and by Grassmann duality each of its maximal
    minors there is a complementary (ncols - size)-minor of that kernel
    (`_PointKernel`).  The screen uses the kernels at t = 3 and t = 5: a
    minor is nonzero there exactly when its complementary kernel minor is.
    The blocks are all rows when size == nrows, else count - 1 seeded draws
    and the pivot rows of one elimination at t = 3.  The sample is that pivot
    minor plus count - 1 seeded draws from the pooled nonzero subsets; each
    drawn minor is interpolated, in integer arithmetic, from its values at
    t = 0, 1, 2, ... read off the kernels of its block, and dropped if it
    vanishes identically.

    Limit of the screen: a minor that vanishes at every screen point without
    vanishing identically is never drawn.
    """
    rng = random.Random(seed)
    polys = _polynomial_entries(m)
    values = {}
    kernels = {}

    def kernel(rsel, x):
        # one elimination per (block, point), shared by every minor on the block
        if (rsel, x) not in kernels:
            if x not in values:
                values[x] = _eval_matrix(polys, x)
            vals = values[x]
            kernels[rsel, x] = _PointKernel([vals[r] for r in rsel])
        return kernels[rsel, x]

    nrows = len(polys)
    blocks = {tuple(sorted(rng.sample(range(nrows), size))) for _ in range(count - 1)}
    whole = kernel(tuple(range(nrows)), 3)
    base = None
    if len(whole.rows) >= size:
        base = (tuple(sorted(whole.rows[:size])), tuple(sorted(whole.pivots[:size])))
        blocks.add(base[0])
    found = set()
    for x in (3, 5):
        for rsel in sorted(blocks):
            found.update((rsel, csel) for csel in _nonzero_column_sets(kernel(rsel, x)))
    found.discard(base)
    picks = rng.sample(sorted(found), min(count - 1, len(found)))
    g = ()
    for rsel, csel in ([base] if base else []) + picks:
        det = _minor_poly(polys, rsel, csel, kernel)
        if det:
            g = zgcd(g, det)
            if g == (1,):
                break
    return g


class _PointKernel:
    """One fraction-free Gauss-Jordan pass over an integer matrix A.

    `rows` and `pivots` are its pivot rows and columns P.  When the rows are
    independent, `dual[c]` is row c of the integer kernel K = d N, where d is
    the last pivot and N the kernel basis that is the identity on the free
    columns F; then every maximal minor of A is

        det A[:, S] = sgn(P, F) sgn(S, S^c) det A[:, P] det K[S^c] / d^|F|,

    with sgn(X, Y) the sign of the permutation listing X then Y.  `dual` is
    None when the rank is below the row count, and every maximal minor is 0.
    """

    __slots__ = ("rows", "pivots", "det", "den", "dual")

    def __init__(self, block):
        mat = [row[:] for row in block]
        self.rows, self.pivots, self.det = _bareiss(mat, reduce=True)
        self.dual = None
        if len(self.rows) < len(mat):
            return
        ncols = len(mat[0])
        d = mat[0][self.pivots[0]]
        pivset = set(self.pivots)
        free = [c for c in range(ncols) if c not in pivset]
        dual = [[0] * len(free) for _ in range(ncols)]
        for k, f in enumerate(free):
            dual[f][k] = d
            for row, p in zip(mat, self.pivots):
                dual[p][k] = -row[f]
        self.dual = dual
        self.den = d ** len(free)

    def minor(self, csel):
        """det A[:, csel] for an increasing tuple of len(A) columns."""
        if self.dual is None:
            return 0
        chosen = set(csel)
        rest = [self.dual[c][:] for c in range(len(self.dual)) if c not in chosen]
        num = self.det * _det_int(rest)
        if (sum(self.pivots) + sum(csel)) % 2:
            num = -num
        q, rem = divmod(num, self.den)
        if rem:
            raise ArithmeticError("complementary kernel minor is not divisible by the pivot power")
        return q


def _nonzero_column_sets(kernel):
    """Column subsets on which the block of a `_PointKernel` has a nonzero
    maximal minor: those whose complementary minor of the kernel is nonzero."""
    dual = kernel.dual
    if dual is None:
        return      # rank below size: every maximal minor vanishes here
    ncols, free = len(dual), len(dual[0])
    # a subset meeting a zero row of the kernel has a zero minor there
    support = [c for c in range(ncols) if any(dual[c])]
    for rest in combinations(support, free):
        if _det_int([dual[c][:] for c in rest]):
            yield tuple(c for c in range(ncols) if c not in rest)


def _minor_poly(polys, rsel, csel, kernel):
    """Minor of the coefficient-list matrix on rows rsel and columns csel,
    primitive in Z[t] with positive leading coefficient, interpolated from
    its values at t = 0, 1, 2, ... up to the degree bound; kernel(rsel, x)
    is the `_PointKernel` of those rows at t = x."""
    row_deg = sum(max(len(polys[r][c]) for c in csel) - 1 for r in rsel)
    col_deg = sum(max(len(polys[r][c]) for r in rsel) - 1 for c in csel)
    ys = [kernel(rsel, x).minor(csel) for x in range(min(row_deg, col_deg) + 1)]
    ints = ztrim(_interpolate_scaled(ys))
    if not ints:
        return ()
    p = zprim(ints)
    return p if p[-1] > 0 else tuple(-c for c in p)


def _interpolate_scaled(ys):
    """(n - 1)! times the polynomial of degree < n that takes the value ys[k]
    at t = k, as integer coefficients (Newton's forward-difference form)."""
    n = len(ys)
    poly = [0] * n
    falling = [1]       # coefficients of t (t - 1) ... (t - j + 1)
    diffs = list(ys)
    for j in range(n):
        f = diffs[0] * (factorial(n - 1) // factorial(j))
        for i, c in enumerate(falling):
            poly[i] += f * c
        falling = [a - j * b for a, b in zip([0] + falling, falling + [0])]
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return poly
