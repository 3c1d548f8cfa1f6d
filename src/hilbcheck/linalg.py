"""Exact linear algebra over the scalar fields.

Everything here is exact, and two elimination loops do all of it: the
echelon, and one for the algorithm it does not run.

- `RowSpace`, the one sparse echelon, on the working coefficients of
  `fields`: rows are dicts of their nonzero entries, primitive integers over
  Q (the content is divided out when a vector enters, after its entries
  have grown by `_CONTENT_BITS` bits, and before its row is stored, not at
  every step), monic residues over F_p, monic elements over Q(t).  It is
  incremental, and can track each vector's coefficients over those added
  before it.
  `rref`, `kernel_basis` and the sampled minors' pivot columns and integer
  values use one tracked pass over the columns, `determinant` one over the
  rows, `working_rank` one untracked pass over the rows (the large, mostly
  zero tangent systems, and the t-adic valuation below), and `artin` builds
  the maximal-ideal chain in it.  `_echelon_det` reads a determinant off a
  tracked pass.
- `_pf`, fraction-free Schur steps for Pfaffians on working coefficients,
  which no echelon of a skew-symmetric matrix gives.

The t-adic valuation of the gcd of the maximal minors of a polynomial
matrix is a length: that of its cokernel over the local ring at t, mod a
power t^n of t beyond the degree bound of its rows.  The image mod t^n is
spanned over Q by the columns times 1, t, ..., t^(n-1), so one untracked
`RowSpace` pass over Q ranks it, and the same pass decides the rank of the
matrix (`t_adic_minor_valuation`).

Maximal minors are read off the core of a matrix (`_peel`) by both
`minor_gcd_sample`, which draws pivot minors until their gcd is t^v, v the
valuation, and `t_adic_minor_valuation`: a row whose one nonzero entry e
lies in column c is in every nonzero maximal minor, with c, and such a
minor is +-e times the minor without that row and that column, so peeling
these rows one after another leaves a smaller matrix of lower degree.

`working_rank(field, rows)` ranks sparse rows {column: working coefficient}
in the format of `fields`; over Q(t) it first ranks the rows at t = 7 over
Q, which settles every rank that reaches min(rows, columns).  The tangent
systems build their rows in that format.
`rank(field, rows)` is its entry for rows of field elements, as the
rank-only checks hold them, and `mat_rank(m)` is the `DenseMatrix` form of
`rank`.  `row_product` is the one matrix-product loop, on the working
coefficients of `artin`'s operators.
"""

from itertools import combinations
from math import factorial, gcd, lcm

from .fields import QQ, QT
from .upoly import zeval, zgcd, zmul, ztrim, zprim, zval


class DenseMatrix:
    """Row-major exact matrix; all entries live in one coefficient field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows):
        self.field = field
        elem, coerce = field.elem, field.coerce
        self.rows = [[x if type(x) is elem else coerce(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    def copy_rows(self):
        return [row[:] for row in self.rows]

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

    def __eq__(self, other):
        return (isinstance(other, DenseMatrix) and self.field == other.field
                and self.rows == other.rows)

    def __repr__(self):
        return "\n".join("[" + ", ".join(map(str, row)) + "]" for row in self.rows)


def row_product(arows, brows, zero):
    """The rows of the product of the matrices whose rows are arows and
    brows, zero being the zero of their entries: field elements, or the
    working coefficients of `fields`, integers over Q and F_p and field
    elements over Q(t)."""
    cols = list(zip(*brows))
    out = []
    for row in arows:
        nonzero = [(k, a) for k, a in enumerate(row) if a]
        new = []
        for col in cols:
            acc = zero
            for k, a in nonzero:
                b = col[k]
                if b:
                    acc = acc + a * b
            new.append(acc)
        out.append(new)
    return out


class RowSpace:
    """Incremental sparse echelon span with optional dependency coefficients.

    add(v) returns None when v enlarges the span, else (when track=True) the
    coefficients expressing v over the vectors added so far, and {} when
    track=False.

    The span is kept in the working coefficients of `fields` as `working`:
    one (pivot column, row, combo) per independent vector, in the order
    added, where row is a dict {column: nonzero working coefficient} whose
    smallest column is the pivot, and combo, when tracked, holds the row's
    coefficients over the vectors added, so row = sum combo[idx] * vector
    idx.  A vector is reduced at its smallest column against the row whose
    pivot is there, by steps v <- a v - b w with b the entry of v there; the
    combination takes the same steps.  Reduction stops when v vanishes or
    its smallest column has no row, and that column becomes its pivot.
    Rows are not cleared at later pivots: that costs fill-in and coefficient
    growth that neither the rank nor the span needs.  Over Q rows are
    integer vectors and a and b are the pivot entries of w and v divided by
    their gcd.  The content of v and its combination together is divided
    out when v enters, again once the multipliers a have grown v by
    `_CONTENT_BITS` bits, and before its row is stored, not at every step.
    When it is divided out does not change the result: a step from a
    multiple c v, c > 0, gives a positive multiple of the step from v, since
    a has the sign of w's pivot entry either way, so the stored primitive
    row and its combination are the same.  Over F_p rows are monic residues
    and over Q(t) monic elements, so a = 1.

    Field elements appear only in what add returns and in `rows`, which
    gives each row as a dict of field elements, 1 at its pivot: a basis of
    the span in echelon form, not reduced.
    """

    __slots__ = ("field", "track", "working", "pivots", "count", "_at")

    def __init__(self, field, track=False):
        self.field = field
        self.track = track
        self.working = []   # (pivot, row, combo or None) in working coefficients
        self.pivots = []
        self.count = 0
        self._at = {}       # pivot -> (row, combo)

    @property
    def dim(self):
        return len(self.working)

    @property
    def rows(self):
        """(pivot, row, combo) of each row as field elements, row a dict
        {column: element} that is 1 at the pivot and has no column left of
        it, combo None when untracked."""
        value = self._value
        return [(piv, {j: value(x, w[piv]) for j, x in w.items()},
                 combo and {idx: value(c, w[piv]) for idx, c in combo.items()})
                for piv, w, combo in self.working]

    def add(self, vec):
        """`add_working` of the list of field elements vec."""
        return self.add_working(*_working_row(self.field, enumerate(vec)))

    def add_working(self, v, den):
        """`add` of the vector v / den, v a dict {column: nonzero working
        coefficient}, which is consumed."""
        idx = self.count
        self.count += 1
        combo = {idx: den} if self.track else None
        p = self.field.modulus
        zero = self.field.zero if p is None else 0
        at = self._at
        if p == 0 and v:
            v, combo = _primitive(v, combo)
        grown = 0           # bits the multipliers a added since then
        while v:
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
                    grown += a.bit_length()
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
            if grown > _CONTENT_BITS and v:
                v, combo = _primitive(v, combo)
                grown = 0
        if not v:
            # 0 = own * vec + sum(combo[i] * earlier_i): report vec over the
            # earlier vectors
            if combo is None:
                return {}
            own = combo.pop(idx)
            return {i: self._value(-c, own) for i, c in combo.items() if c}
        lead = v[piv]
        if p == 0:
            v, combo = _primitive(v, combo)
        elif p:
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

    def _value(self, num, den):
        """The field element num / den of working coefficients."""
        if self.field.modulus is None:
            return num / den
        return self.field.element(num, den)


# Over Q the content of a vector is divided out again once the multipliers
# a have grown its entries by this many bits.  A content pass at every step
# costs the small tangent systems more than the growth it saves; with no
# pass between entry and storage the Hom system of 8 rational points, whose
# entries run to a thousand bits, took 2.7 times as long.  Any bound from
# 64 to 1024 bits served both.
_CONTENT_BITS = 512


def _primitive(v, combo):
    """v and combo divided by the content of their integers together."""
    g = gcd(*v.values(), *combo.values()) if combo else gcd(*v.values())
    if g == 1:
        return v, combo
    return ({j: x // g for j, x in v.items()},
            combo and {i: c // g for i, c in combo.items()})


def _working_row(field, items):
    """(v, den): v the dict {column: working coefficient} of den times the
    nonzero entries of the (column, element) pairs items."""
    if field.modulus:
        # reading every residue is cheaper than testing every entry
        items = list(items)
    else:
        items = [(j, x) for j, x in items if x]
        if field.modulus is None:
            return dict(items), field.one
    ints, den = field.integers([x for _, x in items])
    return {j: c for (j, _), c in zip(items, ints) if c}, den


def _working_rows(field, rows):
    """Rows of field elements as working coefficients, each in its own scale."""
    return rows if field.modulus is None else [field.integers(row)[0] for row in rows]


def _column_relations(rows, field):
    """One tracked `RowSpace` pass over the columns of the matrix with these
    rows of working coefficients, column c added as vector c; scaling a row
    changes no relation among the columns, so each row may carry its own
    scale.  Returns the pivot columns, those independent of the columns
    before them, for every other column f its unique coefficients {p: c}
    over the pivot columns (column f is the sum of c * column p), and the
    `RowSpace`."""
    rs = RowSpace(field, track=True)
    one = field.one if field.modulus is None else 1
    pivots, relations = [], {}
    for c, col in enumerate(zip(*rows)):
        combo = rs.add_working({i: x for i, x in enumerate(col) if x}, one)
        if combo is None:
            pivots.append(c)
        else:
            relations[c] = combo
    return pivots, relations, rs


def rref(rows, field):
    """Reduced row echelon form; returns (rref_rows, pivot_columns).

    Row ops keep every relation among the columns, so column f of the RREF
    holds the coefficients of column f over the pivot columns."""
    pivots, relations, _ = _column_relations(_working_rows(field, rows), field)
    ncols = len(rows[0]) if rows else 0
    out = [[field.zero] * ncols for _ in pivots]
    where = {p: i for i, p in enumerate(pivots)}
    for i, p in enumerate(pivots):
        out[i][p] = field.one
    for f, combo in relations.items():
        for p, c in combo.items():
            out[where[p]][f] = c
    return out, pivots


def rank(field, rows):
    """Rank over `field` of rows given as dicts {column: element}.

    Columns are any sortable keys; zero entries may be present and are
    dropped.  Over Q and F_p each row becomes a dict of the working integers
    (`Field.integers`) of its nonzero entries; over Q(t) the elements are
    the working coefficients.  `working_rank` then ranks them.
    """
    if field.modulus is None:
        return working_rank(field, rows)
    return working_rank(field, [_working_row(field, row.items())[0] for row in rows])


def working_rank(field, rows):
    """Rank over `field` of rows given as dicts {column: working
    coefficient}: nonzero integers over Q (each row may carry its own scale),
    residues over F_p, elements over Q(t).

    An untracked `RowSpace` eliminates them, shortest first, and consumes
    the dicts.  Over Q(t) the rank at t = _RANK_POINT comes first: it is a
    lower bound, and the rank when it reaches min(rows, columns); only
    otherwise are the rows, their zero entries dropped, eliminated over
    Q(t).
    """
    if field.modulus is None:
        bound = min(len(rows), len({j for row in rows for j in row}))
        if _rank_at_point(rows, _RANK_POINT) == bound:
            return bound
        rows = [{j: e for j, e in row.items() if e} for row in rows]
    rs = RowSpace(field)
    for row in sorted(rows, key=len):
        rs.add_working(row, 1)
    return rs.dim


# A specialisation t -> x maps every minor of a Q(t) matrix to its value at x
# when no denominator vanishes there, so the rank at x is at most the rank
# over Q(t).  Small points such as 0 and 1 are roots of structured entries.
_RANK_POINT = 7


def _rank_at_point(rows, x):
    """Rank over Q at t = x, an integer, of Q(t) rows {column: element}; None
    when a denominator vanishes at x.  Each row is scaled to integers by the
    lcm of its denominators' values and ranked by `working_rank` over Q."""
    out = []
    for row in rows:
        values = []
        for j, e in row.items():
            if e:
                den = zeval(e.den, x)
                if not den:
                    return None
                values.append((j, zeval(e.num, x), den))
        scale = lcm(*(den for _, _, den in values))
        out.append({j: num * (scale // den) for j, num, den in values if num})
    return working_rank(QQ, out)


def mat_rank(m):
    """Rank of a `DenseMatrix`: `rank` of its rows."""
    return rank(m.field, [dict(enumerate(r)) for r in m.rows])


def kernel_basis(m, field=None):
    """Basis of the right null space of the `DenseMatrix` m, or, with field
    given, of the rows m of working coefficients of field, each row in its
    own scale; len == ncols - rank.

    One vector per non-pivot column f: e_f minus its coefficients over the
    pivot columns, so it is 1 at f and 0 at every other non-pivot column."""
    if field is None:
        field, m = m.field, _working_rows(m.field, m.rows)
    _, relations, _ = _column_relations(m, field)
    ncols = len(m[0]) if m else 0
    basis = []
    for f, combo in relations.items():
        v = [field.zero] * ncols
        v[f] = field.one
        for p, c in combo.items():
            v[p] = -c
        basis.append(v)
    return basis


def determinant(m):
    """Exact determinant from one tracked `RowSpace` pass over the rows."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    field = m.field
    rs = RowSpace(field, track=True)
    for row in m.rows:
        if rs.add(row) is not None:
            return field.zero
    return rs._value(*_echelon_det(rs, range(m.nrows)))


def _echelon_det(rs, added):
    """(num, den), in working coefficients, of the determinant of the square
    matrix whose row k is vector added[k] of the tracked `RowSpace` rs, where
    added lists the indices of the vectors it stored, in order.

    Working row k is sum_i combo_k[i] * vector added[i], with combo_k[i] = 0
    for i > k, and is zero left of its pivot.  So the working rows are a
    lower triangular matrix times that matrix, upper triangular on the pivot
    columns in pivot order, and
    det = sgn(pivot columns) * prod (pivot entry_k / combo_k[added[k]])."""
    num = den = 1 if rs.field.modulus is not None else rs.field.one
    for (piv, row, combo), i in zip(rs.working, added):
        num = num * row[piv]
        den = den * combo[i]
    if sum(a > b for a, b in combinations(rs.pivots, 2)) % 2:
        num = -num
    return num, den


def pfaffian(m):
    """Pfaffian of a skew-symmetric even-size matrix, pf([[0,a],[-a,0]]) = a.

    `_pf` evaluates it on the working coefficients: over Q on the integer
    matrix D m, D the lcm of the denominators, whose Pfaffian is
    D^(n/2) pf(m)."""
    if m.nrows != m.ncols:
        raise ValueError("pfaffian needs a square matrix")
    if m.nrows % 2 != 0:
        raise ValueError("pfaffian needs even size")
    field = m.field
    p = field.modulus
    n = m.ncols
    if p is None:
        rows = m.copy_rows()
    else:
        ints, den = field.integers([x for row in m.rows for x in row])
        rows = [ints[i * n:(i + 1) * n] for i in range(n)]
    for i in range(n):
        if rows[i][i]:
            raise ValueError("matrix is not skew-symmetric")
        for j in range(i + 1, n):
            s = rows[i][j] + rows[j][i]
            if s % p if p else s:
                raise ValueError("matrix is not skew-symmetric")
    pf = _pf(rows, field)
    return pf if p is None else field.element(pf, den ** (n // 2))


def _pf(a, field):
    """Pfaffian of the skew-symmetric rows a, consumed, in the working
    coefficients of `fields`: integers over Q, residues over F_p (the result
    unreduced), elements over Q(t).

    Fraction-free Schur steps.  A simultaneous row and column swap puts a
    nonzero entry piv at (0, 1), flipping the sign; with u and v rows 0 and
    1, the next matrix, on the indices after 1, is

        (piv A' + v u^T - u v^T) / prev,

    prev the pivot of the step before (1 at the first).  By the Pfaffian
    form of Sylvester's identity its entry (i, k) is the Pfaffian of the
    principal submatrix on the pivot indices so far and i, k, so each
    division is exact, as in Bareiss elimination, and the last pivot is the
    Pfaffian.
    """
    p = field.modulus
    one = 1 if p is not None else field.one
    sign, prev = 1, one
    while a:
        n = len(a)
        j = next((c for c in range(1, n) if a[0][c]), None)
        if j is None:
            return field.zero if p is None else 0
        if j != 1:
            a[1], a[j] = a[j], a[1]
            for row in a:
                row[1], row[j] = row[j], row[1]
            sign = -sign
        piv, u, v = a[0][1], a[0], a[1]
        inv = pow(prev, -1, p) if p else None
        zero = a[0][0]
        schur = [[zero] * (n - 2) for _ in range(n - 2)]
        for i in range(2, n):
            ui, vi, ai, si = u[i], v[i], a[i], schur[i - 2]
            for k in range(i + 1, n):
                x = piv * ai[k] + vi * u[k] - ui * v[k]
                if p:
                    x = x * inv % p
                elif p == 0:
                    x //= prev
                elif prev != one:
                    x = x / prev
                si[k - 2] = x
                schur[k - 2][i - 2] = -x
        a = schur
        prev = piv
    return prev if sign > 0 else -prev


# ---------------------------------------------------------------------------
# t-adic valuation of the gcd of maximal minors


def t_adic_minor_valuation(m):
    """Valuation of the gcd of the maximal minors of a Q[t]-matrix with at
    least as many columns as rows; None when its rank over Q(t) is below
    the row count (the valuation is infinite).

    Every nonzero maximal minor is +-product times a maximal minor of the
    core of `_peel`, and the rank is the number of peeled rows plus the
    core's, so the valuation is that of the product plus the core's.

    The core's is a length (Eisenbud, Commutative Algebra, 20.2).  Over
    the local ring R = Q[t]_(t), a principal ideal domain, the cokernel of
    the r x c core A is the sum of the R/(t^a_i), t^a_i its invariant
    factors, a_i infinite once per missing rank, and the valuation of its
    r x r minors' gcd (the Fitting ideal) is sum a_i.  Mod t^n that
    cokernel is the sum of the R/(t^min(a_i, n)), of length
    L = sum min(a_i, n) over Q, and the image of A in (R/t^n)^r is the
    Q-span of t^l times column j mod t^n for l < n.  So L is r n minus the
    rank over Q of those c n integer vectors, whose entry (i, k) is the
    coefficient of t^k in row i of t^l column j, read off one untracked
    `RowSpace` pass (`working_rank`).  With n = D + 1, D the sum over the
    rows of their largest entry degree: at full rank sum a_i is at most the
    valuation of any nonzero maximal minor, at most its degree, at most D,
    so every a_i < n and L = sum a_i <= D; below full rank some
    min(a_i, n) = n, so L >= n > D, and the same pass decides the rank.
    """
    if m.field != QT:
        raise TypeError("t-adic valuation needs entries in Q(t)")
    if m.ncols < m.nrows:
        raise ValueError("matrix has fewer columns than rows: no maximal minor")
    core, product = _peel(_polynomial_entries(m))
    # n = D + 1, a zero row counted as of degree 0
    n = sum(max(1, *map(len, row)) - 1 for row in core) + 1
    vectors = []
    for column in zip(*core):
        # (coordinate, degree, coefficient) of each nonzero term of the column
        terms = [(i * n + k, k, a) for i, e in enumerate(column) for k, a in enumerate(e) if a]
        vectors += [{j + l: a for j, k, a in terms if k + l < n} for l in range(n)]
    length = len(core) * n - working_rank(QQ, vectors)
    return None if length >= n else zval(product) + length


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


def minor_gcd_sample(m, v):
    """Gcd (primitive, in Z[t]) of pivot maximal minors of m, drawn until it
    is t^v, v being `t_adic_minor_valuation(m)`; () when v is None.

    Everything is read off the core of m and the product f of its peeled
    entries (`_peel`): the maximal minor of m on the peeled columns and core
    columns S is +-f times the core's on S, and every other one is 0.  The
    gcd G of all maximal minors divides every drawn minor, and its
    valuation is v, so once the running gcd is t^v it is G and no further
    draw can change it.

    The draws are read at x, the first integer from 3 on where the core has
    full rank.  A nonzero r x r minor of the core vanishes at no more than D
    points, D the sum of its rows' largest entry degrees, so D + 1 points
    suffice; past them the core has no nonzero maximal minor and v was not
    its valuation (`ValueError`).  Draw s takes the pivot columns at x of
    the core's columns ordered s, s + 1, ..., 0, ..., s - 1, whose minor is
    nonzero at x; a column set drawn before is skipped.  A drawn minor is
    prim(f * core minor), the core minor interpolated in integer arithmetic
    from its values at t = 0, 1, 2, ... up to its degree bound.
    """
    if v is None:
        return ()
    core, product = _peel(_polynomial_entries(m))
    if not core:
        return zprim(product)     # every row peeled: the empty core minor is 1
    values = {}

    def at(x):
        # the core's integer values at t = x, once per point
        if x not in values:
            values[x] = [[zeval(e, x) for e in row] for row in core]
        return values[x]

    ncols = len(core[0])
    bound = sum(max(1, *map(len, row)) - 1 for row in core)
    for x in range(3, bound + 4):
        if len(_column_relations(at(x), QQ)[0]) == len(core):
            break
    else:
        raise ValueError("matrix has rank below its row count: its valuation is infinite")
    target = (0,) * v + (1,)
    drawn = set()
    g = ()
    for s in range(ncols):
        order = list(range(s, ncols)) + list(range(s))
        pivots = _column_relations([[row[k] for k in order] for row in at(x)], QQ)[0]
        csel = tuple(sorted(order[p] for p in pivots))
        if csel in drawn:
            continue
        drawn.add(csel)
        g = zgcd(g, _minor_poly(core, product, csel, at))
        if g == target:
            break
    return g


def _peel(polys):
    """The core of the coefficient-list matrix polys, as a coefficient-list
    matrix, and the product of the peeled entries.

    Peels a row whose one nonzero entry lies in a column c, with c, until
    no row of what is left has exactly one."""
    rows = list(range(len(polys)))
    cols = set(range(len(polys[0])))
    product = (1,)
    while True:
        for r in rows:
            support = [c for c in cols if polys[r][c]]
            if len(support) == 1:
                break
        else:
            cols = sorted(cols)
            return [[polys[r][c] for c in cols] for r in rows], product
        rows.remove(r)
        cols.remove(support[0])
        product = zmul(product, polys[r][support[0]])


def _minor_poly(core, product, csel, at):
    """Maximal minor on the core columns csel of a matrix with this nonempty
    core and product of peeled entries (`_peel`), primitive in Z[t] with
    positive leading coefficient: prim(product * the core's minor on csel).
    The core minor is interpolated from its values at t = 0, 1, 2, ... up to
    its degree bound, each from one tracked `RowSpace` pass over its columns
    (`_echelon_det`); at(x) is the core's integer values at t = x."""
    row_deg = sum(max(len(row[k]) for k in csel) - 1 for row in core)
    col_deg = sum(max(len(row[k]) for row in core) - 1 for k in csel)
    ys = []
    for x in range(min(row_deg, col_deg) + 1):
        pivots, _, rs = _column_relations([[row[k] for k in csel] for row in at(x)], QQ)
        if len(pivots) < len(csel):
            ys.append(0)
        else:
            num, den = _echelon_det(rs, pivots)
            ys.append(num // den)
    return zprim(zmul(product, ztrim(_interpolate_scaled(ys))))


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
