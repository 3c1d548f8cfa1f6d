"""Zero-dimensional quotient algebras: multiplication operators, centroids,
recentering, local Hilbert functions, embedding reduction, splitting over
rational support, and the staircase census of local Hilbert functions.

The quotient S/I is carried as the list of multiplication operators X_i on
the standard-monomial basis, as working operators of `fields`; powers of the
maximal ideal are tracked as the chain of subspaces generated by 1 under
products of at least j variables.  One scan of that chain picks the kept
variables of embedding reduction and of the (1,4,3) product kernel.
"""

import random
from math import gcd, lcm

from .errors import HilbcheckError, InfiniteColengthError, PreconditionError
from .linalg import RowSpace, kernel_basis, row_product
from .poly import GREVLEX, Substitution, VariableContext, mono_deg
from .groebner import (GroebnerBasis, Ideal, _complete, _input_records, _reduced_candidate,
                       buchberger, cyclic_annihilator_gb)
from .scalars import is_prime
from .upoly import zdiv_exact, zdivmod, zeval, zgcd, zmod, zpowmod, zprim, zsub, ztrim


class IndeterminateSupport(HilbcheckError):
    """Support points could not be certified rational."""


class HilbertFunction(tuple):
    """Finite sequence h_j = dim m^j / m^(j+1), trailing zeros trimmed."""

    def __new__(cls, values):
        vals = list(values)
        while vals and vals[-1] == 0:
            vals.pop()
        return super().__new__(cls, vals)

    @classmethod
    def of_chain(cls, chain):
        """The Hilbert function of a maximal-ideal chain that reaches 0."""
        dims = [s.dim for s in chain]
        return cls(dims[j] - dims[j + 1] for j in range(len(dims) - 1))

    def colength(self):
        return sum(self)

    def __repr__(self):
        return "(" + ",".join(map(str, self)) + ")"


class LocalAlgebraModel:
    """Colength-n quotient presented by n x n multiplication operators.

    Every operator is a working operator of `fields`: (rows, den), the
    matrix rows / den, with rows integers and den the one denominator over
    Q, divided with them by their content, residues and den 1 over F_p, and
    field elements and den 1 over Q(t).  `ops` are the variable operators
    X_i; the operators of polynomials are sums of their powers X^m, which
    are cached, X^(e_i) being X_i itself.
    """

    __slots__ = ("ctx", "qb", "ops", "n", "_powers")

    def __init__(self, ctx, qb, ops):
        self.ctx = ctx
        self.qb = qb
        self.ops = ops
        self.n = len(qb)
        self._powers = {}       # monomial -> working operator, filled on first use

    def unit_vector(self):
        """Coordinates of 1 in the standard-monomial basis."""
        field = self.ctx.field
        one_pos = self.qb.index[(0,) * self.ctx.d]
        return [field.one if i == one_pos else field.zero for i in range(self.n)]

    def shifted(self, a):
        """The model with operators X_i - a_i: multiplication by the
        variables of the chart centred at the point a."""
        field = self.ctx.field
        ops = [_shift(X, ai, field) if ai else X for X, ai in zip(self.ops, a)]
        return LocalAlgebraModel(self.ctx, self.qb, ops)

    def _power(self, m):
        """X^m for a nonconstant monomial m, built once per model: the
        variable operator X_i in degree 1, else X_i times the cached
        X^(m - e_i) for the first variable x_i dividing m."""
        out = self._powers.get(m)
        if out is None:
            i = next(i for i, e in enumerate(m) if e)
            prev = list(m)
            prev[i] -= 1
            prev = tuple(prev)
            out = _product(self.ops[i], self._power(prev), self.ctx.field) if any(prev) \
                else self.ops[i]
            self._powers[m] = out
        return out

    def working_operator(self, f):
        """Multiplication by f on S/I as a working operator (rows, den): the
        sum of c X^m over the terms c x^m of f.

        The powers X^m are cached on the model and shared by every call, so
        each one costs at most one matrix product over the model's lifetime.
        The rows are new on every call; changing them changes no cached
        power and no later result.
        """
        field = self.ctx.field
        p = field.modulus
        n = self.n
        terms = f.terms
        if p is None:
            coeffs, den = list(terms.values()), 1
        else:
            coeffs, den = field.integers(terms.values())
        powers = [self._power(m) if any(m) else None for m in terms]
        if p == 0:
            # over Q the common denominator of the powers
            scale = lcm(*(pw[1] for pw in powers if pw))
            coeffs = [c * (scale // pw[1] if pw else scale) for c, pw in zip(coeffs, powers)]
            den *= scale
        zero = field.zero if p is None else 0
        acc = [[zero] * n for _ in range(n)]
        for c, pw in zip(coeffs, powers):
            if pw is None:
                for i in range(n):
                    acc[i][i] = acc[i][i] + c
                continue
            for arow, prow in zip(acc, pw[0]):
                for j, x in enumerate(prow):
                    if x:
                        arow[j] = arow[j] + c * x
        return _normalized(acc, den, p)

    def maximal_ideal_chain(self):
        """Dimensions of the images of m^0, m^1, ... in S/I, and the spaces.

        Stops when the chain stabilizes; it reaches 0 exactly when I is
        primary at the origin.  Each space is spanned by the products of the
        variable operators with the rows of the space before, all in working
        coefficients: the rows of a working operator span what the
        operator's do, whatever its denominator.
        """
        field = self.ctx.field
        p = field.modulus
        n = self.n
        zero, one = (field.zero, field.one) if p is None else (0, 1)
        # the columns of each variable operator X as dicts: X w is the sum of
        # w[k] times column k over the entries of a row w
        columns = [[{j: x for j, x in enumerate(col) if x}
                    for col in zip(*rows)] for rows, _ in self.ops]
        current = RowSpace(field)
        for i in range(n):
            current.add_working({i: one}, one)
        spaces = [current]
        while True:
            prev = spaces[-1]
            nxt = RowSpace(field)
            for _, w, _ in prev.working:
                for cols in columns:
                    image = {}
                    for k, a in w.items():
                        for j, x in cols[k].items():
                            image[j] = image.get(j, zero) + a * x
                    if p:
                        image = {j: y % p for j, y in image.items() if y % p}
                    else:
                        image = {j: y for j, y in image.items() if y}
                    nxt.add_working(image, one)
                    if nxt.dim == prev.dim:
                        break
                if nxt.dim == prev.dim:
                    break
            spaces.append(nxt)
            if nxt.dim == 0 or nxt.dim == prev.dim:
                return spaces


def _working(rows, field):
    """The working operator of the square matrix with these rows of field
    elements, from one `Field.integers` pass."""
    if field.modulus is None:
        return rows, 1
    n = len(rows)
    ints, den = field.integers([x for row in rows for x in row])
    return [ints[i:i + n] for i in range(0, len(ints), n)], den


def _apply(op, vec, field):
    """The product of the working operator op with the vector vec of field
    elements, as field elements."""
    rows, den = op
    if field.modulus is None:
        return [sum((a * x for a, x in zip(row, vec) if a), field.zero) for row in rows]
    ints, vden = field.integers(vec)
    den *= vden
    element, zero = field.element, field.zero
    out = []
    for row in rows:
        s = sum(a * x for a, x in zip(row, ints))
        out.append(element(s, den) if s else zero)
    return out


def _product(a, b, field):
    """The product of the working operators a and b over field."""
    (arows, aden), (brows, bden) = a, b
    p = field.modulus
    zero = field.zero if p is None else 0
    return _normalized(row_product(arows, brows, zero), aden * bden, p)


def _shift(op, a, field):
    """The working operator op - a for the field element a: over Q and F_p,
    (aden rows - den num) / (aden den) for a = num / aden."""
    rows, den = op
    if field.modulus is None:
        return [[x - a if r == c else x for c, x in enumerate(row)]
                for r, row in enumerate(rows)], 1
    (num,), aden = field.integers([a])
    return _normalized([[aden * x - (den * num if r == c else 0) for c, x in enumerate(row)]
                        for r, row in enumerate(rows)], aden * den, field.modulus)


def _normalized(rows, den, p):
    """The working operator rows / den with its entries reduced mod p over
    F_p, and divided with den by their common content over Q."""
    if p:
        return [[x % p for x in row] for row in rows], 1
    if p == 0:
        g = den
        for row in rows:
            if g == 1:
                return rows, den
            g = gcd(g, *row)
        if g != 1:
            return [[x // g for x in row] for row in rows], den // g
    return rows, den


def multiplication_operators(G):
    """The working operators X_i of multiplication by the variables on S/I."""
    qb = G.quotient_basis()
    ctx = G.ctx
    field = ctx.field
    n = len(qb)
    if n == 0:
        raise PreconditionError("unit ideal has no local algebra")
    ops = []
    for i in range(ctx.d):
        cols = []
        for m in qb:
            mm = list(m)
            mm[i] += 1
            mm = tuple(mm)
            col = [field.zero] * n
            if mm in qb:
                # a standard monomial is its own normal form
                col[qb.index[mm]] = field.one
            else:
                for mono, c in G.normal_form(ctx.monomial(mm, field.one)).terms.items():
                    col[qb.index[mono]] = c
            cols.append(col)
        ops.append(_working([list(row) for row in zip(*cols)], field))
    return LocalAlgebraModel(ctx, qb, ops)


def quotient_model(I, check=None):
    """(G, model): the reduced grevlex basis G of I and the multiplication
    model of S/G.  check, when given, is called with G before the model is
    built, so that it can refuse G first.

    An input of the shape of a reduced basis (`groebner._reduced_candidate`)
    with at most 8 standard monomials is taken as it is when the operators
    X_i read off it commute; otherwise `buchberger`'s basis is computed from
    the same division records.  The check is exact.  Each border relation
    b - NF(b) of the candidate G lies in <G>, and each g in G is, up to its
    leading coefficient, its own border relation, since its tail is
    standard, so the border relations generate <G>.  Commuting operators
    make them a border basis (Mourrain, AAECC 1999; Kehrein-Kreuzer-
    Robbiano, JSC 2005), so dim S/<G> is the number of standard monomials
    of the leading terms of G.  Then in(<G>) = <lt G>, and G, of reduced
    shape, is the reduced basis.
    """
    G, model = I, None
    if not (isinstance(I, GroebnerBasis) and I.order == GREVLEX):
        records = _input_records(I, GREVLEX)
        G = _reduced_candidate(I.ctx, GREVLEX, records)
        try:
            n = G.colength(limit=9) if G is not None else 0
        except InfiniteColengthError:
            n = 0
        if 0 < n <= 8:
            model = multiplication_operators(G)
        if model is None or not _commuting(model):
            G, model = _complete(I.ctx, GREVLEX, records), None
    if check is not None:
        check(G)
    return G, model if model is not None else multiplication_operators(G)


def _commuting(model):
    """True when the variable operators of the model commute, compared as
    working operators; the products X_i X_j, i < j, stay cached as powers."""
    field = model.ctx.field
    d = model.ctx.d
    ops = model.ops
    for i in range(d):
        for j in range(i + 1, d):
            both = tuple(int(k in (i, j)) for k in range(d))
            if model._power(both) != _product(ops[j], ops[i], field):
                return False
    return True


def centroid(model):
    """Coordinate-wise average of the support: (tr X_1, ..., tr X_d) / n."""
    field = model.ctx.field
    if field.characteristic and model.n % field.characteristic == 0:
        raise PreconditionError(
            f"characteristic {field.characteristic} divides the colength {model.n}")
    inv_n = field.inv_int(model.n)
    if field.modulus is None:
        return tuple(sum((row[i] for i, row in enumerate(rows)), field.zero) * inv_n
                     for rows, _ in model.ops)
    return tuple(field.element(sum(row[i] for i, row in enumerate(rows)), den) * inv_n
                 for rows, den in model.ops)


def translate_ideal(I, a):
    """Image of I under x_i -> x_i + a_i (moves support by -a); I itself
    when a is zero."""
    ctx = I.ctx
    if len(a) != ctx.d:
        raise PreconditionError("translation vector length must match")
    if not any(a):
        return I
    translate = Substitution([ctx.variable(i) + ctx.const(ai) for i, ai in enumerate(a)])
    return Ideal(ctx, [g.substitute(translate) for g in I.gens])


def _local_model(I, required=True):
    """Multiplication model of S/I and its chain of powers of the maximal
    ideal; None when I is not primary at the origin and is not required to be.
    """
    _, model = quotient_model(I)
    chain = model.maximal_ideal_chain()
    if chain[-1].dim == 0:
        return model, chain
    if required:
        raise PreconditionError("ideal is not primary at the origin")
    return None


def is_primary_at_origin(I):
    """True when some power of (x_1, ..., x_d) lies in I."""
    return _local_model(I, required=False) is not None


def local_hilbert_function(I):
    """h_j = dim m^j/(m^(j+1)) for an ideal primary at the origin."""
    _, chain = _local_model(I)
    return HilbertFunction.of_chain(chain)


def embedding_reduction(I):
    """Isomorphic presentation in h_1 = dim m/m^2 variables.

    Keeps the variables of `_kept_variables`, whose images span m/m^2, so by
    Nakayama they generate S/I; the result is the kernel of k[kept] -> S/I,
    read off the multiplication operators as a reduced grevlex basis, so
    colength and local Hilbert function are preserved.  Checked by colength
    and by lifting each element back into the ideal.  I itself when nothing
    is dropped.
    """
    ctx = I.ctx
    field = ctx.field
    G = buchberger(I)
    model, chain = _local_model(G)
    keep = _kept_variables(model, chain)
    if len(keep) == ctx.d:
        return I
    new_ctx = VariableContext(field, [ctx.names[i] for i in keep], dual=ctx.dual)
    R = cyclic_annihilator_gb(new_ctx, lambda j, v: _apply(model.ops[keep[j]], v, field),
                              model.unit_vector())
    if R.colength() != model.n:
        raise ArithmeticError("kept variables do not generate the quotient")
    lift = Substitution([ctx.variable(i) for i in keep])
    for g in R.gens:
        if G.normal_form(g.substitute(lift)):
            raise ArithmeticError("reduced ideal is not contained in the original")
    return R


def _kept_variables(model, chain):
    """Indices, ascending, of variables whose images in the local model span
    m/m^2, chain being its maximal-ideal chain: x_i is redundant when its
    image lies in the span of m^2 and the images of x_(i+1), ..., x_d, so
    the scan runs from the last variable and keeps the rest."""
    field, d = model.ctx.field, model.ctx.d
    one = field.one if field.modulus is None else 1
    col = model.qb.index[(0,) * d]
    images = RowSpace(field)
    if len(chain) > 2:
        for _, w, _ in chain[2].working:
            images.add_working(dict(w), one)
    keep = []
    for i in reversed(range(d)):
        rows, _ = model.ops[i]
        if images.add_working({j: row[col] for j, row in enumerate(rows) if row[col]},
                              one) is None:
            keep.insert(0, i)
    return keep


def split_rational_support(I):
    """Primary decomposition over points with coordinates in the base field.

    Simultaneous generalized-eigenspace splitting of the commuting operators,
    one variable at a time (`_refine` over the variables), eigenvalues found
    by rational-root search on characteristic polynomials; the eigenvalues of
    a part are its point.  It does not use the generic linear form of
    support_colengths: it is the variable-by-variable reference that the
    classifier's reported colengths are tested against.
    Returns (point, reduced grevlex basis of the primary piece) pairs.
    Raises IndeterminateSupport when the support is not rational, and over
    Q(t), which has no root search.
    """
    _, model = quotient_model(I)
    ctx, n = model.ctx, model.n
    field = ctx.field
    parts = _refine(model.ops, _units(field, n), field)
    bases = [basis for _, basis in parts]
    out = []
    for point, basis in parts:
        start = _project_of_unit(bases, basis, model, field)
        piece = cyclic_annihilator_gb(ctx, lambda j, v: _apply(model.ops[j], v, field), start)
        if len(piece.quotient_basis()) != len(basis):
            raise ArithmeticError("component colength mismatch")
        out.append((point, piece))
    out.sort(key=lambda pi: _point_key(pi[0]))
    if sum(len(piece.quotient_basis()) for _, piece in out) != n:
        raise ArithmeticError("component colengths do not sum to the total")
    return out


def support_colengths(model):
    """Colengths of the primary pieces of the quotient model, ordered by
    their points as split_rational_support orders its pieces, without
    building the pieces.

    The split runs over the linear form L = X_1 + 2 X_2 + ... + d X_d, then
    the variables refine each of L's generalized eigenspaces.  L's
    eigenvalues are its values at the support points (Cox-Little-O'Shea,
    Using Algebraic Geometry, ch. 2, 4), so when all of them are simple the
    support is n points and L's characteristic polynomial alone decides;
    that one polynomial also gives the eigenspaces otherwise.  When L has a
    repeated root and at least two roots, the support has several points,
    and the second form L' = X_1 + 3 X_2 + ... + 3^(d-1) X_d decides when
    its roots are all simple; a single root of L, a piece that may be local,
    goes straight to the refinement.
    Raises IndeterminateSupport exactly when split_rational_support does:
    a value of L or L' outside the field puts a coordinate outside it, and
    a point with such a coordinate gives L a value outside the field or its
    coordinate as an eigenvalue of a variable on one of L's eigenspaces.
    """
    field = model.ctx.field
    n, d = model.n, model.ctx.d
    L = _linear_form(model)
    roots = _roots(L, field)
    if max(roots.values()) == 1:
        return [1] * n
    if len(roots) > 1 and \
            max(_roots(_linear_form(model, [3 ** i for i in range(d)]), field).values()) == 1:
        return [1] * n
    # L's eigenspaces, each then refined by the variables
    units = _units(field, n)
    spaces = [units] if len(roots) == 1 else \
        [_eigenspace(L, a, roots[a], units, field) for a in sorted(roots, key=repr)]
    parts = [part for basis in spaces for part in _refine(model.ops, basis, field)]
    parts.sort(key=lambda pb: _point_key(pb[0]))
    return [len(basis) for _, basis in parts]


def _linear_form(model, weights=None):
    """Multiplication by the linear form sum w_i x_i of the integer weights,
    by default L = x_1 + 2 x_2 + ... + d x_d: small weights keep its
    characteristic polynomial's coefficients, and the root search, small."""
    ctx = model.ctx
    if weights is None:
        weights = range(1, ctx.d + 1)
    return model.working_operator(sum(
        (ctx.monomial(tuple(int(j == i) for j in range(ctx.d)), w)
         for i, w in enumerate(weights)), start=ctx.zero()))


def _point_key(point):
    return tuple(repr(c) for c in point)


def _units(field, n):
    return [[field.one if j == i else field.zero for j in range(n)] for i in range(n)]


def _refine(ops, basis, field):
    """(point, basis) of each joint generalized eigenspace of the commuting
    operators ops on the invariant subspace spanned by basis, split by one
    operator at a time; the point is the operators' eigenvalues there.  The
    split needs a root search, so it is refused where there is none, even on
    a line."""
    _check_root_search(field)
    parts = [((), basis)]
    for X in ops:
        parts = [(point + (a,), sub) for point, basis in parts
                 for a, sub in _split_by(X, basis, field)]
    return parts


def _restrict(X, basis, field):
    """The working operator X on the invariant span of basis (columns)."""
    n = len(X[0])
    if len(basis) == n and basis == _units(field, n):
        return X
    rs = RowSpace(field, track=True)
    for v in basis:
        if rs.add(v) is not None:
            raise ArithmeticError("subspace basis is dependent")
    r = len(basis)
    cols = []
    for v in basis:
        combo = rs.add(_apply(X, v, field))
        if combo is None:
            raise ArithmeticError("subspace is not invariant")
        cols.append([combo.get(idx, field.zero) for idx in range(r)])
    return _working([list(row) for row in zip(*cols)], field)


def _split_by(X, basis, field):
    """(eigenvalue, basis of its generalized eigenspace) of X on the span of
    basis, eigenvalues sorted by repr.  On a line v the eigenvalue is read
    off one product: (X v)_f / v_f at the first f with v_f nonzero."""
    if not basis:
        return []
    if len(basis) == 1:
        (v,) = basis
        w = _apply(X, v, field)
        f = next(f for f, x in enumerate(v) if x)
        a = w[f] / v[f]
        if any(x != a * y for x, y in zip(w, v)):
            raise ArithmeticError("subspace is not invariant")
        return [(a, basis)]
    R = _restrict(X, basis, field)
    roots = _roots(R, field)
    if len(roots) == 1:
        return [(next(iter(roots)), basis)]
    return [(a, _eigenspace(R, a, roots[a], basis, field)) for a in sorted(roots, key=repr)]


def _roots(R, field):
    """Eigenvalues of the working operator R, with multiplicities, all in
    the field."""
    _check_root_search(field)
    roots = rational_roots(charpoly(R, field), field)
    if sum(roots.values()) != len(R[0]):
        raise IndeterminateSupport("support not rational")
    return roots


def _eigenspace(R, a, k, basis, field):
    """Generalized eigenspace of the working operator R for a, of
    multiplicity k, as combinations of basis: the kernel of (R - a)^k, since
    k bounds the nilpotency index of R - a there, which is the kernel of the
    rows of its working operator."""
    shifted = _shift(R, a, field)
    power = shifted
    for _ in range(k - 1):
        power = _product(shifted, power, field)
    return row_product(kernel_basis(power[0], field), basis, field.zero)


def _project_of_unit(parts, target, model, field):
    """Component of 1 in the target factor of the direct sum decomposition."""
    n = model.n
    rs = RowSpace(field, track=True)
    order = []
    for basis in parts:
        for v in basis:
            rs.add(v)
            order.append(basis is target)
    combo = rs.add(model.unit_vector())
    if combo is None:
        raise ArithmeticError("decomposition does not span")
    out = [field.zero] * n
    flat = [v for basis in parts for v in basis]
    for idx, c in combo.items():
        if order[idx] and c:
            out = [x + c * y for x, y in zip(out, flat[idx])]
    return out


def charpoly(op, field):
    """Characteristic polynomial det(xI - M) of the working operator
    op = (rows, den) over Q or F_p, M = rows / den, coefficients descending,
    monic.

    Berkowitz's division-free algorithm on the integer rows: over Q,
    coefficient k of their polynomial is den^k times that of M; over F_p
    the residues' coefficients are reduced mod p at the end.
    """
    rows, den = op
    return [field.element(b, den ** k) for k, b in enumerate(_berkowitz(rows))]


def _berkowitz(A):
    """det(xI - A) for the square integer rows A."""
    n = len(A)
    if n == 0:
        return [1]
    C = [1, -A[0][0]]
    for i in range(1, n):
        R = A[i][:i]
        col = [A[k][i] for k in range(i)]
        sub = [row[:i] for row in A[:i]]
        vals = [1, -A[i][i]]
        v = col
        for k in range(2, i + 2):
            if k > 2:
                v = [sum(sub[r][c] * v[c] for c in range(i) if v[c]) for r in range(i)]
            vals.append(-sum(R[c] * v[c] for c in range(i) if v[c]))
        C = [sum(vals[r - c] * C[c] for c in range(min(r, len(C) - 1) + 1) if r - c < len(vals))
             for r in range(i + 2)]
    return C


def _check_root_search(field):
    if field.modulus is None:
        raise IndeterminateSupport(f"root search is not available over {field}")


def rational_roots(coeffs_desc, field):
    """Roots in the base field with multiplicities, on the working integers
    of the polynomial (`Field.integers`): after the zero roots, the roots
    mod p over F_p (`_roots_mod`), over Q those lifted from a prime
    (`_lifted_roots`).  A candidate P/q counts once for each exact division
    of the ascending coefficients by q x - P (`upoly.zdivmod`, over Z or
    F_p): over Z, gcd(P, q) = 1 and q > 0, so by Gauss's lemma q x - P
    divides f in Z[x] exactly when P/q is a root of f.  Over Q(t) there is
    no search.
    """
    _check_root_search(field)
    p = field.modulus
    ints, _ = field.integers(coeffs_desc)
    roots = {}
    while len(ints) > 1 and not ints[-1]:
        ints.pop()
        roots[field.zero] = roots.get(field.zero, 0) + 1
    if len(ints) == 1:
        return roots
    f = ztrim(ints[::-1])
    for pnum, qden in [(r, 1) for r in _roots_mod(f, p)] if p else _lifted_roots(zprim(f)):
        while len(f) > 1:
            division = zdivmod(f, (-pnum, qden), p)
            if division is None or division[1]:
                break
            f = division[0]
            root = field.element(pnum, qden)
            roots[root] = roots.get(root, 0) + 1
    return roots


def _lifted_roots(f):
    """Yields (P, s), s > 0 and coprime to P, for candidate roots P/s of the
    primitive integer polynomial f (ascending, f(0) nonzero), among them
    every rational root (Loos, SIAM J. Comput. 1983).  g is f, or its
    squarefree part if f is not squarefree mod 101; the roots r of g mod
    the first prime q >= 101 that keeps it squarefree and of its degree
    are Newton-lifted to M = q^(2^k) > 2 |lc(g) g(0)| (von zur Gathen-
    Gerhard, Modern Computer Algebra, ch. 15).  A root P/s of g has s | lc(g)
    and P | g(0), so lc(g) P / s is the symmetric residue of lc(g) r mod M.
    """
    q, df = 101, _derivative(f)
    while not f[-1] % q or zgcd(zmod(f, q), zmod(df, q), q) != (1,):
        if q == 101:
            f = zdiv_exact(f, zgcd(f, df, 0))
            df = _derivative(f)
        q = next(k for k in range(q + 2, 2 * q, 2) if is_prime(k))
    lc = f[-1]
    for r in _roots_mod(f, q):
        m = q
        while m <= 2 * abs(lc * f[0]):
            m *= m
            r = (r - zeval(f, r) * pow(zeval(df, r), -1, m)) % m
        c = lc * r % m
        c -= m if 2 * c > m else 0
        g = gcd(c, lc) if lc > 0 else -gcd(c, lc)
        yield c // g, lc // g


def _derivative(f):
    return ztrim([i * c for i, c in enumerate(f)][1:])


def _roots_mod(f, p):
    """The distinct roots in 0..p-1 of the integer polynomial f over F_p
    (ascending, nonzero mod p), sorted: those of h = gcd(f, x^p - x), a
    factor of which is split by its gcd with (x + a)^((p-1)/2) - 1, the
    roots r with r + a a nonzero square, for a drawn from a generator
    seeded by p (Cantor-Zassenhaus; Modern Computer Algebra, ch. 14).
    Residue lists serve as F_p[x]: every division and gcd is upoly's, mod p.
    """
    f = zmod(f, p)
    rng = random.Random(p)
    out = []
    stack = [zgcd(f, zmod(zsub(zpowmod((0, 1), p, f, p), (0, 1)), p), p)]
    while stack:
        h = stack.pop()
        if len(h) == 2:
            out.append(-h[0] % p)
        elif len(h) > 2:
            w = zpowmod((rng.randrange(p), 1), (p - 1) // 2, h, p)
            g = zgcd(h, zmod(zsub(w, (1,)), p), p)
            stack += [g, zdivmod(h, g, p)[0]] if 1 < len(g) < len(h) else [h]
    return sorted(out)


def enumerate_local_hfs(d, n):
    """Hilbert functions of all order ideals of n monomials in d variables."""
    if not (1 <= d <= 4):
        raise PreconditionError("census is implemented for 1 <= d <= 4")
    if not (1 <= n <= 8):
        raise PreconditionError("census is implemented for 1 <= n <= 8")
    key = GREVLEX.key
    out = set()
    zero = (0,) * d

    def extend(current, last_key, degs):
        if len(current) == n:
            hf = [0] * (max(degs) + 1)
            for dg in degs:
                hf[dg] += 1
            out.add(HilbertFunction(hf))
            return
        candidates = set()
        for m in current:
            for i in range(d):
                mm = list(m)
                mm[i] += 1
                mm = tuple(mm)
                if mm in current or key(mm) <= last_key:
                    continue
                ok = True
                for j in range(d):
                    if mm[j]:
                        prev = list(mm)
                        prev[j] -= 1
                        if tuple(prev) not in current:
                            ok = False
                            break
                if ok:
                    candidates.add(mm)
        for mm in sorted(candidates, key=key):
            current.add(mm)
            extend(current, key(mm), degs + [mono_deg(mm)])
            current.remove(mm)

    extend({zero}, key(zero), [0])
    return out
