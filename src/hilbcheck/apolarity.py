"""Macaulay duality: polynomials acting on dual polynomials by formal
partial differentiation, perpendicular spaces, and apolar ideals.

Dual elements are ordinary Polynomial values whose context carries the dual
flag; the pairing of x^a with y^b is a! when a == b and 0 otherwise.  In
characteristic p all degrees in play must stay below p, where the pairing is
perfect; higher degrees are refused rather than silently degenerate.

Every perpendicular space is one kernel of rows that span the space it is
orthogonal to.  For `perp` these are the products g x^a in I_j; for
`ideal_from_inverse_system` the derivatives x^c . g of order deg g - j,
which span the degree-j part of the generators' differentiation closure
(Iarrobino-Kanev 1999).  The kernel basis depends only on the space the rows
span and on the column order, so any spanning rows give the same generators.
"""

from math import factorial, perm, prod
from operator import le, sub

from .errors import PreconditionError
from .groebner import Ideal, _monomials_of_degree
from .linalg import _working_row, kernel_basis
from .poly import Polynomial, mono_mul


def _char_guard(field, degree):
    p = field.characteristic
    if p and degree >= p:
        raise PreconditionError(
            f"degree {degree} not below the characteristic {p}: pairing degenerates")


def apply_operator(f, g):
    """Act by f as a constant-coefficient differential operator on dual g."""
    if f.ctx.dual or not g.ctx.dual:
        raise PreconditionError("apply_operator takes (primal, dual) arguments")
    if f.ctx.names != g.ctx.names or f.ctx.field != g.ctx.field:
        raise PreconditionError("operator and argument come from different rings")
    field = g.ctx.field
    if g.terms:
        _char_guard(field, g.degree())
    out = {}
    for a, c in f.terms.items():
        for b, e in g.terms.items():
            if all(ai <= bi for ai, bi in zip(a, b)):
                coeff = prod(map(perm, b, a))
                add = c * e * field.from_int(coeff)
                if add:
                    m = tuple(bi - ai for ai, bi in zip(a, b))
                    s = out.get(m)
                    s = add if s is None else s + add
                    if s:
                        out[m] = s
                    elif m in out:
                        del out[m]
    return Polynomial(g.ctx, out)


def _factorial_int(m):
    return prod(map(factorial, m))


def _apolar_complement(rows, monos, ctx):
    """The forms of ctx on the monomials monos orthogonal, under the
    factorial pairing, to each coefficient row, a dict {position in monos:
    coefficient}: every monomial when there is no row."""
    field = ctx.field
    if not rows:
        return [Polynomial(ctx, {m: field.one}) for m in monos]
    weights = [field.from_int(_factorial_int(m)) for m in monos]
    zero = field.zero if field.modulus is None else 0
    mat = []
    for row in rows:
        # only the nonzero weighted entries are converted; a zero adds
        # denominator 1 to the lcm, so the working row is the dense one's
        working, _ = _working_row(field, ((k, x * weights[k]) for k, x in row.items()))
        dense = [zero] * len(monos)
        for k, c in working.items():
            dense[k] = c
        mat.append(dense)
    ker = kernel_basis(mat, field)
    return [Polynomial(ctx, {m: c for m, c in zip(monos, v) if c}) for v in ker]


def perp(I, j):
    """Basis of the subspace of degree-j dual forms annihilated by I_j.

    I_j is spanned by the products g x^a with deg g + |a| = j, so their
    coefficient rows are the kernel's rows as they are."""
    ctx = I.ctx
    _char_guard(ctx.field, j)
    for g in I.gens:
        if not g.is_homogeneous():
            raise PreconditionError("ideal is not homogeneous")
    monos = [list(_monomials_of_degree(ctx.d, k)) for k in range(j + 1)]
    col = {m: i for i, m in enumerate(monos[j])}
    rows = []
    for g in I.gens:
        dg = g.degree()
        if dg is None or dg > j:
            continue
        for a in monos[j - dg]:
            rows.append({col[mono_mul(m, a)]: c for m, c in g.terms.items()})
    dual_ctx = ctx.dual_context() if not ctx.dual else ctx
    return _apolar_complement(rows, monos[j], dual_ctx)


def ideal_from_inverse_system(gens):
    """The ideal orthogonal to the differentiation closure of dual forms.

    The closure's degree-j part is spanned by the derivatives x^c . g with
    |c| = deg g - j of the generators g, so each degree is one kernel of
    their coefficient rows.  Degrees above the top generator degree are
    filled with every form, so the result is zero-dimensional with Hilbert
    function j -> dim of the closure in degree j.
    """
    if not gens:
        raise PreconditionError("need at least one dual generator")
    ctx = gens[0].ctx
    if not ctx.dual:
        raise PreconditionError("inverse system generators must be dual elements")
    field = ctx.field
    forms = []
    for g in gens:
        if not g:
            continue
        if g.ctx != ctx:
            raise PreconditionError("dual generator from a different context")
        if not g.is_homogeneous():
            raise PreconditionError("inverse system generators must be homogeneous")
        _char_guard(field, g.degree())
        forms.append(g)
    top = max((g.degree() for g in forms), default=0)
    monos = [list(_monomials_of_degree(ctx.d, j)) for j in range(top + 2)]
    primal = ctx.dual_context()
    out = []
    # the closure has no form of degree top + 1, so every monomial of that
    # degree is in the ideal
    for j in range(top + 2):
        col = {m: i for i, m in enumerate(monos[j])}
        rows = []
        for g in forms:
            dg = g.degree()
            if dg < j:
                continue
            for c in monos[dg - j]:
                # x^c acts on e y^b as e prod(perm(b, c)) y^(b - c) when c <= b
                row = {col[tuple(map(sub, b, c))]: e * field.from_int(prod(map(perm, b, c)))
                       for b, e in g.terms.items() if all(map(le, c, b))}
                if row:
                    rows.append(row)
        out.extend(_apolar_complement(rows, monos[j], primal))
    return Ideal(primal, out)
