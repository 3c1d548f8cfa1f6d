"""Macaulay duality: polynomials acting on dual polynomials by formal
partial differentiation, perpendicular spaces, and apolar ideals.

Dual elements are ordinary Polynomial values whose context carries the dual
flag; the pairing of x^a with y^b is a! when a == b and 0 otherwise.  In
characteristic p all degrees in play must stay below p, where the pairing is
perfect; higher degrees are refused rather than silently degenerate.
"""

from math import factorial, perm, prod

from .errors import PreconditionError
from .groebner import Ideal, _monomials_of_degree
from .linalg import RowSpace, _working_rows, kernel_basis
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
    mat = [[row[k] * w if k in row else field.zero for k, w in enumerate(weights)]
           for row in rows]
    ker = kernel_basis(_working_rows(field, mat), field)
    return [Polynomial(ctx, {m: c for m, c in zip(monos, v) if c}) for v in ker]


def homogeneous_component_basis(I, j):
    """Echelonized coefficient rows, dicts {column: coefficient}, spanning
    the degree-j part of a homogeneous ideal, together with the monomial
    column list."""
    ctx = I.ctx
    field = ctx.field
    for g in I.gens:
        if not g.is_homogeneous():
            raise PreconditionError("ideal is not homogeneous")
    monos = list(_monomials_of_degree(ctx.d, j))
    col = {m: i for i, m in enumerate(monos)}
    rs = RowSpace(field)
    for g in I.gens:
        dg = g.degree()
        if dg is None or dg > j:
            continue
        for am in _monomials_of_degree(ctx.d, j - dg):
            vec = [field.zero] * len(monos)
            for m, c in g.terms.items():
                vec[col[mono_mul(m, am)]] = c
            rs.add(vec)
    return [row for _, row, _ in rs.rows], monos


def perp(I, j):
    """Basis of the subspace of degree-j dual forms annihilated by I_j."""
    ctx = I.ctx
    _char_guard(ctx.field, j)
    rows, monos = homogeneous_component_basis(I, j)
    dual_ctx = ctx.dual_context() if not ctx.dual else ctx
    return _apolar_complement(rows, monos, dual_ctx)


class InverseSystem:
    """Graded components of a differentiation-closed dual subspace."""

    __slots__ = ("ctx", "components")

    def __init__(self, ctx, components):
        self.ctx = ctx
        self.components = {j: tuple(polys) for j, polys in components.items() if polys}


def inverse_system(gens):
    """Differentiation closure of homogeneous dual forms, echelonized by degree."""
    if not gens:
        raise PreconditionError("need at least one dual generator")
    ctx = gens[0].ctx
    if not ctx.dual:
        raise PreconditionError("inverse system generators must be dual elements")
    field = ctx.field
    work = []
    for g in gens:
        if not g:
            continue
        if not g.is_homogeneous():
            raise PreconditionError("inverse system generators must be homogeneous")
        _char_guard(field, g.degree())
        work.append(g)
    monos_by_deg = {}
    spans = {}

    def insert(p):
        j = p.degree()
        if j not in spans:
            monos_by_deg[j] = list(_monomials_of_degree(ctx.d, j))
            spans[j] = (RowSpace(field), [])
        rs, reps = spans[j]
        vec = [p.terms.get(m, field.zero) for m in monos_by_deg[j]]
        if rs.add(vec) is None:
            reps.append(p)
            return True
        return False

    while work:
        p = work.pop()
        if not p:
            continue
        if insert(p):
            if p.degree() > 0:
                for i in range(ctx.d):
                    q = p.partial(i)
                    if q:
                        work.append(q)
    comps = {j: reps for j, (rs, reps) in spans.items()}
    return InverseSystem(ctx, comps)


def ideal_from_inverse_system(gens):
    """The ideal orthogonal to the differentiation closure of dual forms.

    Degrees above the top generator degree are filled with every form, so the
    result is zero-dimensional with Hilbert function j -> dim of the closure
    in degree j.
    """
    system = inverse_system(gens)
    ctx = system.ctx
    primal = ctx.dual_context()
    top = max(system.components, default=0)
    out = []
    # the closure has no form of degree top + 1, so every monomial of that
    # degree is in the ideal
    for j in range(top + 2):
        monos = list(_monomials_of_degree(ctx.d, j))
        rows = [{k: q.terms[m] for k, m in enumerate(monos) if m in q.terms}
                for q in system.components.get(j, ())]
        out.extend(_apolar_complement(rows, monos, primal))
    return Ideal(primal, out)
