"""`perp` and `ideal_from_inverse_system` against the algorithms they
replaced, kept here as references.

Both now take one kernel of rows that span the space they are orthogonal
to: the products g x^a for `perp`, the derivatives x^c . g of order
deg g - j for the apolar ideal.  The references below first echelon I_j
(`homogeneous_component_basis`) or close the dual generators under
differentiation with a work queue and one `RowSpace` per degree
(`inverse_system`).  `kernel_basis` returns the one kernel basis that is 1
at each non-pivot column and 0 at the others, and which columns are pivots
depends only on the kernel, so both sides must return the same generators
in the same order, and raise the same `PreconditionError`.
"""

import random

import pytest

from hilbcheck import fixtures as fx
from hilbcheck.apolarity import (_apolar_complement, _char_guard,
                                 ideal_from_inverse_system, perp)
from hilbcheck.artin import local_hilbert_function
from hilbcheck.errors import PreconditionError
from hilbcheck.fields import GF, QQ, QT
from hilbcheck.groebner import Ideal, _monomials_of_degree
from hilbcheck.linalg import RowSpace
from hilbcheck.poly import Polynomial, context, mono_mul
from hilbcheck.scalars import rat

FIELDS = [QQ, GF(101), GF(7), GF(10007), QT]


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


def reference_perp(I, j):
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


def reference_ideal_from_inverse_system(gens):
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


def _coefficient(rng, field):
    """A small scalar, possibly zero: a fraction over Q, a residue over
    F_p, an integer or an integer times t over Q(t)."""
    if field is QQ:
        return rat(rng.randint(-4, 4), rng.randint(1, 3))
    c = field.from_int(rng.randint(-50, 50) if field.modulus else rng.randint(-3, 3))
    return c * field.t if field is QT and rng.random() < 0.5 else c


def _random_form(rng, ctx, k):
    """A homogeneous form of degree k on a random share of the monomials."""
    monos = list(_monomials_of_degree(ctx.d, k))
    chosen = rng.sample(monos, rng.randint(1, min(len(monos), 6)))
    return Polynomial(ctx, {m: _coefficient(rng, ctx.field) for m in chosen})


def _outcome(fn, *args):
    """The generator list fn returns, or the type and message it raises."""
    try:
        out = fn(*args)
    except PreconditionError as exc:
        return ("raises", str(exc))
    return list(out.gens) if isinstance(out, Ideal) else out


def _graded_fixtures(field):
    return ([I for _, I in fx.graded_143_fixtures(field)]
            + [fx.squares_ideal(field), fx.squares_cube_ideal(field), fx.salmon_ideal(field)])


def _double_perp_components(I):
    """perp(I, j) for j = 0, 1, ... up to the first empty one, as the
    property-double-perp case reads them."""
    comps, j = [], 0
    while True:
        basis = reference_perp(I, j)
        if not basis and j > 0:
            return comps
        comps.extend(basis)
        j += 1


def _random_dual_generator_sets(seed):
    rng = random.Random(seed)
    for field in FIELDS:
        for d in (2, 3, 4):
            dctx = context(field, [f"y{i+1}" for i in range(d)]).dual_context()
            for _ in range(8):
                yield [_random_form(rng, dctx, rng.randint(0, 4))
                       for _ in range(rng.randint(1, 4))]


def _dual_generator_sets():
    yield from _random_dual_generator_sets(3803)
    for field in FIELDS:
        yield fx.salmon_partials(field)
        for I in _graded_fixtures(field):
            yield _double_perp_components(I)


def test_ideal_from_inverse_system_matches_the_closure_reference():
    count = 0
    for gens in _dual_generator_sets():
        got = _outcome(ideal_from_inverse_system, gens)
        assert got == _outcome(reference_ideal_from_inverse_system, gens), gens
        count += 1
    assert count == 5 * 3 * 8 + 5 * 9


def test_apolar_ideal_has_the_closures_hilbert_function():
    # the Hilbert function of the apolar ideal counts the closure's forms
    for gens in _random_dual_generator_sets(3804):
        comps = inverse_system(gens).components
        if not comps:
            continue   # zero generators only: the unit ideal
        dims = tuple(len(comps.get(j, ())) for j in range(max(comps, default=0) + 1))
        assert tuple(local_hilbert_function(ideal_from_inverse_system(gens))) == dims


def _random_homogeneous_ideals(seed):
    """Ideals of 1-4 forms of degree 1-3 in 2-4 variables, 2 to 3 over
    Q(t), where a kernel of degree 7 in 4 variables takes seconds."""
    rng = random.Random(seed)
    for field in FIELDS:
        for d in ((2, 3) if field is QT else (2, 3, 4)):
            ctx = context(field, [f"x{i+1}" for i in range(d)])
            for _ in range(2):
                gens = [_random_form(rng, ctx, rng.randint(1, 3))
                        for _ in range(rng.randint(1, 4))]
                yield Ideal(ctx, gens)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_perp_matches_the_echelon_reference(field):
    ideals = _graded_fixtures(field) + list(_random_homogeneous_ideals(3805))
    raised = 0
    for I in ideals:
        if I.ctx.field != field:
            continue
        for j in range(8):
            got = _outcome(perp, I, j)
            assert got == _outcome(reference_perp, I, j), (I, j)
            raised += isinstance(got, tuple)
    # over F_7 degree 7 is refused on both sides
    assert raised == (8 + 6 if field == GF(7) else 0)


def test_perp_refuses_what_the_reference_refuses():
    # a non-homogeneous ideal, and a degree at the characteristic, in that order
    ctx = context(GF(5), "x y")
    I = Ideal(ctx, [Polynomial(ctx, {(2, 0): ctx.field.one, (0, 1): ctx.field.one})])
    for j in (1, 5):
        assert _outcome(perp, I, j) == _outcome(reference_perp, I, j)
    assert _outcome(perp, I, 5)[1].startswith("degree 5 not below")
    assert _outcome(perp, I, 1) == ("raises", "ideal is not homogeneous")
