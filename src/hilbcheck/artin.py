"""Zero-dimensional quotient algebras: multiplication operators, centroids,
recentering, local Hilbert functions, embedding reduction, splitting over
rational support, and the staircase census of local Hilbert functions.

The quotient S/I is carried as the list of multiplication operators X_i on
the standard-monomial basis; powers of the maximal ideal are tracked as the
chain of subspaces generated by 1 under products of at least j variables.
"""

from math import gcd, lcm

from .errors import HilbcheckError, PreconditionError
from .fields import QQ
from .linalg import DenseMatrix, RowSpace, kernel_basis, rref
from .poly import GREVLEX, VariableContext, mono_deg
from .groebner import Ideal, buchberger, cyclic_annihilator_gb
from .scalars import is_prime, rat


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
    """Colength-n quotient presented by n x n multiplication operators."""

    __slots__ = ("ctx", "qb", "ops", "n", "_powers")

    def __init__(self, ctx, qb, ops):
        self.ctx = ctx
        self.qb = qb
        self.ops = ops
        self.n = len(qb)
        self._powers = {}       # monomial -> operator, filled on first use

    def unit_vector(self):
        """Coordinates of 1 in the standard-monomial basis."""
        field = self.ctx.field
        one_pos = self.qb.index[(0,) * self.ctx.d]
        return [field.one if i == one_pos else field.zero for i in range(self.n)]

    def shifted(self, a):
        """The model with operators X_i - a_i: multiplication by the
        variables of the chart centred at the point a."""
        field = self.ctx.field
        ops = [DenseMatrix(field, [[x - ai if r == c else x for c, x in enumerate(row)]
                                   for r, row in enumerate(X.rows)])
               for X, ai in zip(self.ops, a)]
        return LocalAlgebraModel(self.ctx, self.qb, ops)

    def _power(self, m):
        """X^m for a nonconstant monomial m, built once per model: the
        variable operators themselves in degree 1, else X_i times the
        cached X^(m - e_i) for the first variable x_i dividing m."""
        out = self._powers.get(m)
        if out is None:
            i = next(i for i, e in enumerate(m) if e)
            prev = list(m)
            prev[i] -= 1
            prev = tuple(prev)
            out = self.ops[i].matmul(self._power(prev)) if any(prev) else self.ops[i]
            self._powers[m] = out
        return out

    def operator_of_polynomial(self, f):
        """Matrix of multiplication by f on S/I: the sum of c X^m over the
        terms c x^m of f.

        The powers X^m are cached on the model and shared by every call, so
        each one costs at most one matrix product over the model's lifetime.
        The returned matrix is new on every call; changing it changes no
        cached power and no later result.
        """
        field = self.ctx.field
        n = self.n
        acc = [[field.zero] * n for _ in range(n)]
        for m, c in f.terms.items():
            if not any(m):
                for i in range(n):
                    acc[i][i] = acc[i][i] + c
                continue
            for arow, prow in zip(acc, self._power(m).rows):
                for j, x in enumerate(prow):
                    if x:
                        arow[j] = arow[j] + c * x
        return DenseMatrix(field, acc)

    def maximal_ideal_chain(self):
        """Dimensions of the images of m^0, m^1, ... in S/I, and the spaces.

        Stops when the chain stabilizes; it reaches 0 exactly when I is
        primary at the origin.
        """
        field = self.ctx.field
        spaces = []
        current = RowSpace(field)
        for i in range(self.n):
            current.add([field.one if j == i else field.zero for j in range(self.n)])
        spaces.append(current)
        while True:
            prev = spaces[-1]
            nxt = RowSpace(field)
            for _, row, _ in prev.rows:
                for X in self.ops:
                    nxt.add(X.apply(row))
                    if nxt.dim == prev.dim:
                        break
                if nxt.dim == prev.dim:
                    break
            spaces.append(nxt)
            if nxt.dim == 0 or nxt.dim == prev.dim:
                return spaces


def multiplication_operators(G):
    """The d commuting matrices of multiplication by the variables on S/I."""
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
            xim = ctx.monomial(tuple(mm))
            nf = G.normal_form(xim)
            col = [field.zero] * n
            for mono, c in nf.terms.items():
                col[qb.index[mono]] = c
            cols.append(col)
        ops.append(DenseMatrix(field, [[cols[j][i2] for j in range(n)] for i2 in range(n)]))
    return LocalAlgebraModel(ctx, qb, ops)


def centroid(model):
    """Coordinate-wise average of the support: (tr X_1, ..., tr X_d) / n."""
    field = model.ctx.field
    if field.characteristic and model.n % field.characteristic == 0:
        raise PreconditionError(
            f"characteristic {field.characteristic} divides the colength {model.n}")
    inv_n = field.inv_int(model.n)
    return tuple(X.trace() * inv_n for X in model.ops)


def translate_ideal(I, a):
    """Image of I under x_i -> x_i + a_i (moves support by -a); I itself
    when a is zero."""
    ctx = I.ctx
    if len(a) != ctx.d:
        raise PreconditionError("translation vector length must match")
    if not any(a):
        return I
    images = _translation(ctx, a)
    return Ideal(ctx, [g.substitute(images) for g in I.gens])


def _translation(ctx, a):
    """The images x_i + a_i of the variables."""
    images = []
    for i, ai in enumerate(a):
        if isinstance(ai, int):
            ai = ctx.field.from_int(ai)
        images.append(ctx.variable(i) + ctx.const(ai))
    return images


def _local_model(I, required=True):
    """Multiplication model of S/I and its chain of powers of the maximal
    ideal; None when I is not primary at the origin and is not required to be.
    """
    model = multiplication_operators(buchberger(I))
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

    Keeps variables whose images span m/m^2, so by Nakayama they generate
    S/I; the result is the kernel of k[kept] -> S/I, read off the
    multiplication operators as a reduced grevlex basis, so colength and
    local Hilbert function are preserved.  I itself when nothing is dropped.
    """
    ctx = I.ctx
    G = buchberger(I)
    model, chain = _local_model(G)
    hf = HilbertFunction.of_chain(chain)
    if (hf[1] if len(hf) > 1 else 0) == ctx.d:
        return I
    return _embedding_reduction(G, model, chain, (ctx.field.zero,) * ctx.d)


def _embedding_reduction(G, model, chain, a):
    """Embedding reduction of the local ring of S/G at the point a.

    model is the quotient model centred at a (operators X_i - a_i) and chain
    its maximal-ideal chain, which reaches 0.  Returns the reduced grevlex
    basis of the kernel of k[y_kept] -> S/G, y_k -> x_k - a_k, in the
    context of G when every variable is kept.  Checked by colength and by
    lifting each element, translated back by a, into G.
    """
    ctx = G.ctx
    field = ctx.field
    d = ctx.d
    n = model.n
    w2 = chain[2] if len(chain) > 2 else RowSpace(field)

    unit = model.unit_vector()
    reduced_cols = [w2.reduce(model.ops[i].apply(unit)) for i in range(d)]
    mat = DenseMatrix(field, [[reduced_cols[i][r] for i in range(d)] for r in range(n)])
    # each kernel row is a linear form in m^2; its pivot variable is redundant
    _, pivots = rref(kernel_basis(mat), field)
    keep = [i for i in range(d) if i not in pivots]
    new_ctx = ctx if len(keep) == d else \
        VariableContext(field, [ctx.names[i] for i in keep], dual=ctx.dual)
    R = cyclic_annihilator_gb(new_ctx, lambda j, v: model.ops[keep[j]].apply(v), unit)
    if R.colength() != n:
        raise ArithmeticError("kept variables do not generate the quotient")
    back = _translation(ctx, [-ai for ai in a])
    lift = [back[i] for i in keep]
    for g in R.gens:
        if G.normal_form(g.substitute(lift)):
            raise ArithmeticError("reduced ideal is not contained in the original")
    return R


def split_rational_support(I):
    """Primary decomposition over points with coordinates in the base field.

    Simultaneous generalized-eigenspace splitting of the commuting operators,
    eigenvalues found by rational-root search on characteristic polynomials.
    Returns (point, reduced grevlex basis of the primary piece) pairs.
    Raises IndeterminateSupport when a factor has no certified rational root.
    """
    return _split_support(multiplication_operators(buchberger(I)))


def _split_support(model):
    """split_rational_support on the quotient model of S/I."""
    ctx, n = model.ctx, model.n
    field = ctx.field
    # each part: list of ambient coordinate vectors spanning an invariant subspace
    parts = [[_unit(field, n, i) for i in range(n)]]
    for i in range(ctx.d):
        refined = []
        for basis in parts:
            refined.extend(_split_by(model.ops[i], basis, field))
        parts = refined
    out = []
    for basis in parts:
        point = []
        for i in range(ctx.d):
            point.append(_single_eigenvalue(_restrict(model.ops[i], basis, field), field))
        start = _project_of_unit(parts, basis, model, field)
        piece = cyclic_annihilator_gb(ctx, lambda j, v: model.ops[j].apply(v), start)
        if len(piece.quotient_basis()) != len(basis):
            raise ArithmeticError("component colength mismatch")
        out.append((tuple(point), piece))
    out.sort(key=lambda pi: tuple(repr(c) for c in pi[0]))
    if sum(len(piece.quotient_basis()) for _, piece in out) != n:
        raise ArithmeticError("component colengths do not sum to the total")
    return out


def _unit(field, n, i):
    return [field.one if j == i else field.zero for j in range(n)]


def _restrict(X, basis, field):
    """Matrix of X on the invariant subspace spanned by basis (columns)."""
    rs = RowSpace(field, track=True)
    for v in basis:
        if rs.add(v) is not None:
            raise ArithmeticError("subspace basis is dependent")
    r = len(basis)
    cols = []
    for v in basis:
        combo = rs.add(X.apply(v))
        if combo is None:
            raise ArithmeticError("subspace is not invariant")
        cols.append([combo.get(idx, field.zero) for idx in range(r)])
    return DenseMatrix(field, [[cols[j][i] for j in range(r)] for i in range(r)])


def _split_by(X, basis, field):
    r = len(basis)
    if r == 0:
        return []
    R = _restrict(X, basis, field)
    coeffs = charpoly(R)
    roots = rational_roots(coeffs, field)
    if sum(roots.values()) != r:
        raise IndeterminateSupport("support not rational")
    if len(roots) == 1:
        return [basis]
    out = []
    for a in sorted(roots, key=repr):
        # generalized eigenspace: kernel of (R - a)^k, k the multiplicity of a,
        # which bounds the nilpotency index of R - a on that eigenspace
        shifted = DenseMatrix(field, [[R.rows[i][j] - (a if i == j else field.zero)
                                       for j in range(r)] for i in range(r)])
        power = DenseMatrix.identity(field, r)
        for _ in range(roots[a]):
            power = shifted.matmul(power)
        ker = kernel_basis(power)
        sub = []
        for kv in ker:
            vec = [field.zero] * len(basis[0])
            for c, bv in zip(kv, basis):
                if c:
                    vec = [x + c * y for x, y in zip(vec, bv)]
            sub.append(vec)
        out.append(sub)
    return out


def _single_eigenvalue(R, field):
    roots = rational_roots(charpoly(R), field)
    if len(roots) != 1 or sum(roots.values()) != R.nrows:
        raise IndeterminateSupport("support not rational")
    return next(iter(roots))


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


def charpoly(M):
    """Characteristic polynomial det(xI - M), coefficients descending, monic.

    Berkowitz's division-free algorithm, valid over any field including small
    characteristic.
    """
    field = M.field
    n = M.nrows
    one, zero = field.one, field.zero
    if n == 0:
        return [one]
    A = M.rows
    C = [one, -A[0][0]]
    for i in range(1, n):
        R = A[i][:i]
        col = [A[k][i] for k in range(i)]
        sub = [row[:i] for row in A[:i]]
        vals = [one, -A[i][i]]
        v = col
        for k in range(2, i + 2):
            if k > 2:
                v = [sum((sub[r][c] * v[c] for c in range(i) if v[c]), start=zero)
                     for r in range(i)]
            dot = zero
            for c in range(i):
                if v[c]:
                    dot = dot + R[c] * v[c]
            vals.append(-dot)
        newC = [zero] * (i + 2)
        for r in range(i + 2):
            acc = zero
            for c in range(min(r, len(C) - 1) + 1):
                if r - c < len(vals):
                    acc = acc + vals[r - c] * C[c]
            newC[r] = acc
        C = newC
    return C


def rational_roots(coeffs_desc, field):
    """Roots in the base field with multiplicities, by explicit search.

    Over Q: rational-root candidates from divisor enumeration (trial-division
    factoring with a bound; an unfactorable constant term is reported as
    indeterminate rather than guessed).  Over F_p: all residues are tried for
    moderate p.
    """
    if field == QQ:
        return _rational_roots_qq(coeffs_desc)
    p = field.characteristic
    if p > 4096:
        raise IndeterminateSupport(f"root search over F_{p} is out of range")
    roots = {}
    coeffs = list(coeffs_desc)
    for v in range(p):
        a = field.from_int(v)
        while len(coeffs) > 1 and not _poly_eval(coeffs, a, field):
            coeffs = _deflate(coeffs, a, field)
            roots[a] = roots.get(a, 0) + 1
    return roots


def _poly_eval(coeffs, a, field):
    acc = field.zero
    for c in coeffs:
        acc = acc * a + c
    return acc


def _deflate(coeffs, a, field):
    out = []
    acc = field.zero
    for c in coeffs[:-1]:
        acc = acc * a + c
        out.append(acc)
    return out


def _rational_roots_qq(coeffs_desc):
    roots = {}
    coeffs = list(coeffs_desc)

    def strip_zero_roots():
        while len(coeffs) > 1 and not coeffs[-1]:
            coeffs.pop()
            z = rat(0)
            roots[z] = roots.get(z, 0) + 1

    strip_zero_roots()
    while len(coeffs) > 1:
        den = lcm(*(int(c.denominator) for c in coeffs))
        ints = [int(c * den) for c in coeffs]
        g = gcd(*ints)
        if g > 1:
            ints = [c // g for c in ints]
        dn = _bounded_divisors(abs(ints[-1]))
        dq = _bounded_divisors(abs(ints[0]))
        if dn is None or dq is None:
            raise IndeterminateSupport("support not rational (root search inconclusive)")
        found = None
        for pnum in sorted(dn):
            for qden in sorted(dq):
                if gcd(pnum, qden) != 1:
                    continue
                for s in (1, -1):
                    cand = rat(s * pnum, qden)
                    if not _poly_eval(coeffs, cand, QQ):
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            return roots
        while len(coeffs) > 1 and not _poly_eval(coeffs, found, QQ):
            coeffs = _deflate(coeffs, found, QQ)
            roots[found] = roots.get(found, 0) + 1
        strip_zero_roots()
    return roots


_DIVISOR_BOUND = 10 ** 6


def _bounded_divisors(n):
    if n == 0:
        return {1}
    if n > 10 ** 24:
        return None
    factors = {}
    m = n
    p = 2
    while p * p <= m and p <= _DIVISOR_BOUND:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        if m > _DIVISOR_BOUND * _DIVISOR_BOUND and not is_prime(m):
            return None
        factors[m] = factors.get(m, 0) + 1
    divs = {1}
    for q, e in factors.items():
        divs = {d * q ** k for d in divs for k in range(e + 1)}
    return divs


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
