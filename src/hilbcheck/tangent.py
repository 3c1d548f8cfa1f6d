"""Tangent spaces to the Hilbert scheme of points.

The tangent space at an ideal I is the space of module homomorphisms from I
to S/I.  With a reduced Groebner basis g_1..g_r and syzygy generators, such
a homomorphism is an assignment g_k -> v_k in S/I annihilated by every
syzygy, a finite exact linear system over the coefficient field.

Both the total and the graded assembly read that system off one quotient
model of S/I: the block of a syzygy coefficient a is the operator of
multiplication by a, built by `LocalAlgebraModel.operator_of_polynomial`
from monomial powers that the model caches, and a graded block is a
sub-block of the same operator.  `tangent_report` shares one model and one
syzygy basis between the total and every graded piece.  The 24 x 28
syzygy-constraint matrix of a (1,4,3) ideal and the one-parameter family
harness for the degree-16 multiplicity are assembled separately below.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import PreconditionError
from .fields import QQ, QT
from .linalg import (DenseMatrix, RowSpace, determinant, mat_rank, rref,
                     minor_gcd_sample, t_adic_minor_valuation)
from .poly import context, mono_deg, mono_lcm
from .groebner import (buchberger, linear_syzygies, schreyer_syzygies,
                       SyzygyBasis, _monomials_of_degree)
from .artin import local_hilbert_function, multiplication_operators


class _HomSystem:
    """The linear system of Hom(I, S/I) for a reduced basis G: one quotient
    model and one syzygy basis, each built on first use and shared by the
    total and every graded piece."""

    def __init__(self, G):
        self.G = G
        self.qb = G.quotient_basis()
        if len(self.qb) == 0:
            raise PreconditionError("unit ideal has no tangent space")
        self._blocks = {}

    @cached_property
    def model(self):
        return multiplication_operators(self.G)

    @cached_property
    def relations(self):
        """The syzygy generators that constrain: the coefficients of a
        Koszul relation g_j e_i - g_i e_j lie in I, so its blocks are zero."""
        basis = list(self.G.elements) + [-g for g in self.G.elements]
        return [rel for rel in schreyer_syzygies(self.G).relations
                if not all(not a or a in basis for a in rel)]

    def blocks(self, r):
        """Operators of the coefficients of syzygy r on S/I, None where a
        coefficient is zero."""
        if r not in self._blocks:
            op = self.model.operator_of_polynomial
            self._blocks[r] = [op(a) if a else None for a in self.relations[r]]
        return self._blocks[r]

    def total(self):
        """dim Hom_S(I, S/I): n unknowns per basis element, one block row of
        n constraints per syzygy generator."""
        n = len(self.qb)
        r = len(self.G.elements)
        field = self.G.ctx.field
        zeros = [field.zero] * n
        rows = []
        for idx in range(len(self.relations)):
            blocks = self.blocks(idx)
            for i in range(n):
                row = []
                for block in blocks:
                    row.extend(zeros if block is None else block.rows[i])
                rows.append(row)
        if not rows:
            return r * n
        return r * n - mat_rank(DenseMatrix(field, rows))

    def graded(self, e):
        """Dimension of the degree-e part of Hom_S(I, S/I) for homogeneous G.

        The unknowns are the standard monomials m of degree deg g_k + e at
        each g_k; a homogeneous syzygy of degree D constrains degree D + e,
        and the entry at (mm, (k, m)) is the coefficient of mm in
        a_k * m mod I, read off the operator of a_k.
        """
        qb = self.qb
        field = self.G.ctx.field
        degs = [g.degree() for g in self.G.elements]
        unknowns = [(k, qb.index[m]) for k, dk in enumerate(degs)
                    for m in qb if mono_deg(m) == dk + e]
        if not unknowns:
            return 0
        # a syzygy of the pair (i, j) has degree deg lcm(lt_i, lt_j) and
        # constrains the standard monomials of that degree + e
        top = max(mono_deg(m) for m in qb)
        if all(mono_deg(mono_lcm(a, b)) + e > top for a, b in combinations(self.G.lts, 2)):
            return len(unknowns)
        rows = []
        for idx, rel in enumerate(self.relations):
            reldeg = next(a.degree() + degs[k] for k, a in enumerate(rel) if a)
            target = [qb.index[m] for m in qb if mono_deg(m) == reldeg + e]
            if not target:
                continue
            blocks = self.blocks(idx)
            for t in target:
                rows.append([field.zero if blocks[k] is None else blocks[k].rows[t][j]
                             for k, j in unknowns])
        if not rows:
            return len(unknowns)
        return len(unknowns) - mat_rank(DenseMatrix(field, rows))

    def graded_pieces(self):
        """All nonzero graded pieces, as a dict degree -> dimension."""
        max_gen = max(g.degree() for g in self.G.elements)
        max_std = max(mono_deg(m) for m in self.qb)
        out = {}
        for e in range(-max_gen, max_std + 1):
            dim = self.graded(e)
            if dim:
                out[e] = dim
        return out


def _require_homogeneous(G):
    for g in G.elements:
        if not g.is_homogeneous():
            raise PreconditionError("graded tangent dimensions need a homogeneous ideal")


def tangent_dimension(I):
    """dim Hom_S(I, S/I): unknowns per basis element, one block row of
    constraints per syzygy generator."""
    return _HomSystem(buchberger(I)).total()


def graded_tangent_dimension(I, e):
    """Dimension of the degree-e part of Hom_S(I, S/I) for homogeneous I."""
    G = buchberger(I)
    _require_homogeneous(G)
    return _HomSystem(G).graded(e)


def graded_tangent_dimensions(I):
    """All nonzero graded pieces, as a dict degree -> dimension."""
    G = buchberger(I)
    _require_homogeneous(G)
    return _HomSystem(G).graded_pieces()


@dataclass
class TangentReport:
    total: int
    graded: dict | None
    expected_dimension: int | None
    smooth_point: bool | None


def tangent_report(I, expected_dimension=None, graded=False):
    G = buchberger(I)
    system = _HomSystem(G)
    total = system.total()
    gr = None
    if graded:
        _require_homogeneous(G)
        gr = system.graded_pieces()
        if sum(gr.values()) != total:
            raise ArithmeticError("graded pieces do not sum to the total tangent dimension")
    smooth = None
    if expected_dimension is not None:
        smooth = total == expected_dimension
    return TangentReport(total, gr, expected_dimension, smooth)


# ---------------------------------------------------------------------------
# the 24 x 28 machine of a (1,4,3) ideal


@dataclass
class TangentMachine143:
    quadrics: list
    relations: SyzygyBasis
    cobasis: list
    psi: DenseMatrix
    t_columns: list
    hbar: DenseMatrix
    rank_psi: int
    dim_hom_minus1: int
    corank_hbar: int
    singular: bool

    @cached_property
    def det_hbar(self):
        """det hbar over the entry field when hbar is square, else None."""
        hbar = self.hbar
        return determinant(hbar) if hbar.nrows == hbar.ncols else None


def build_tangent_machine(I, cobasis=None):
    """Syzygy-constraint matrix psi and its reduction hbar for a (1,4,3) ideal.

    Requires four variables and an ideal generated in degree 2; the verdict
    `singular` is dim Hom(I, S/I)_{-1} >= 5.
    """
    G = buchberger(I)
    ctx = G.ctx
    if ctx.d != 4:
        raise PreconditionError("the machine needs exactly 4 variables")
    hf = local_hilbert_function(G)
    if tuple(hf) != (1, 4, 3):
        raise PreconditionError(f"wrong Hilbert function {hf}, need (1,4,3)")
    quadrics = [g for g in G.elements if g.degree() == 2]
    if len(quadrics) != 7:
        raise PreconditionError("requires cubic generator: ideal is not generated in degree 2")
    try:
        relations = linear_syzygies(quadrics, ctx)
    except PreconditionError as exc:
        if "cubic" in str(exc) or "Hilbert" in str(exc):
            raise PreconditionError("requires cubic generator: " + str(exc)) from None
        raise
    if cobasis is None:
        cobasis = [m for m in G.quotient_basis() if mono_deg(m) == 2]
    return _assemble_machine(ctx, quadrics, relations, list(cobasis))


def _assemble_machine(ctx, quadrics, relations, cobasis):
    field = ctx.field
    if len(cobasis) != 3:
        raise PreconditionError("cobasis of S_2/I_2 must have 3 monomials")
    deg2 = list(_monomials_of_degree(4, 2))
    col = {m: i for i, m in enumerate(deg2)}
    rs = RowSpace(field, track=True)
    for q in quadrics:
        rs.add([q.terms.get(m, field.zero) for m in deg2])
    for b in cobasis:
        vec = [field.zero] * len(deg2)
        vec[col[b]] = field.one
        if rs.add(vec) is not None:
            raise PreconditionError("cobasis monomials do not complement I_2")

    def reduce_coords(q):
        # coordinates of q mod I_2 over the cobasis
        combo = rs.add([q.terms.get(m, field.zero) for m in deg2])
        if combo is None:
            raise ArithmeticError("quadric escaped S_2")
        out = [field.zero] * 3
        for idx, c in combo.items():
            if idx >= 7:
                out[idx - 7] = c
        return out

    xs = ctx.variables()
    nrel = len(relations.relations)
    psi_rows = [[field.zero] * 28 for _ in range(3 * nrel)]
    for j, rel in enumerate(relations.relations):
        for i, l in enumerate(rel):
            if not l:
                continue
            for jv in range(4):
                coords = reduce_coords(xs[jv] * l)
                for b in range(3):
                    if coords[b]:
                        psi_rows[3 * j + b][4 * i + jv] = coords[b]
    psi = DenseMatrix(field, psi_rows)
    t_columns = []
    for i in range(4):
        colvec = [field.zero] * 28
        for k, q in enumerate(quadrics):
            dq = q.partial(i)
            for m, c in dq.terms.items():
                jv = next(v for v, ee in enumerate(m) if ee)
                colvec[4 * k + jv] = c
        t_columns.append(colvec)
    for tc in t_columns:
        if any(psi.apply(tc)):
            raise ArithmeticError("derivative column is not in the kernel of psi")
    rank_psi = mat_rank(psi)
    dim_hom_minus1 = 28 - rank_psi
    _, tpivots = rref(t_columns, field)
    if len(tpivots) != 4:
        raise ArithmeticError("derivative columns are dependent")
    keep = [c for c in range(28) if c not in set(tpivots)]
    hbar = DenseMatrix(field, [[psi.rows[r][c] for c in keep] for r in range(3 * nrel)])
    corank = hbar.ncols - mat_rank(hbar)
    return TangentMachine143(
        quadrics=quadrics, relations=relations, cobasis=cobasis, psi=psi,
        t_columns=t_columns, hbar=hbar, rank_psi=rank_psi,
        dim_hom_minus1=dim_hom_minus1, corank_hbar=corank,
        singular=dim_hom_minus1 >= 5)


# ---------------------------------------------------------------------------
# the one-parameter family of (1,4,3) ideals and its degree-16 multiplicity


def family_context():
    return context(QT, "x1 x2 x3 x4")


def family_quadrics(ctx=None, tval=None):
    """The seven quadric generators of the family, in their fixed order.

    Over Q(t) when tval is None; specialized to a rational tval otherwise.
    """
    if ctx is None:
        ctx = family_context() if tval is None else context(QQ, "x1 x2 x3 x4")
    field = ctx.field
    if tval is None and field != QT:
        raise PreconditionError("symbolic family members need the Q(t) coefficient field")
    t = field.t if tval is None else field.from_int(tval) if isinstance(tval, int) else tval
    x1, x2, x3, x4 = ctx.variables()
    return [x1 * x1, x2 * x2, x3 * x3, x4 * x4, x1 * x2,
            x2 * x3 + (x3 * x4).scale(t), x1 * x4 + (x3 * x4).scale(t)]


def family_syzygies(ctx=None, tval=None):
    """The eight linear syzygies of the family generators, entered explicitly
    and verified to annihilate the generators."""
    qs = family_quadrics(ctx, tval)
    ctx = qs[0].ctx
    field = ctx.field
    t = field.t if tval is None else field.from_int(tval) if isinstance(tval, int) else tval
    t2 = t * t
    x1, x2, x3, x4 = ctx.variables()
    z = ctx.zero()

    def rel(pairs):
        out = [z] * 7
        for i, l in pairs:
            out[i] = out[i] + l
        return out

    rels = [
        rel([(0, x2), (4, -x1)]),
        rel([(0, x4), (6, -x1 + x3.scale(t)), (2, -x4.scale(t2))]),
        rel([(1, x1), (4, -x2)]),
        rel([(1, x3), (5, -x2 + x4.scale(t)), (3, -x3.scale(t2))]),
        rel([(2, x2), (5, -x3), (2, x4.scale(t))]),
        rel([(3, x1), (6, -x4), (3, x3.scale(t))]),
        rel([(4, x3), (5, -x1), (6, x3.scale(t)), (2, -x4.scale(t2))]),
        rel([(4, x4), (6, -x2), (5, x4.scale(t)), (3, -x3.scale(t2))]),
    ]
    return SyzygyBasis(qs, rels)


FAMILY_COBASIS = ((1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1))


def family_machine(tval=None):
    qs = family_quadrics(tval=tval)
    rels = family_syzygies(tval=tval)
    return _assemble_machine(qs[0].ctx, qs, rels, list(FAMILY_COBASIS))


@dataclass
class CurveReport:
    valuation: object
    sampled_gcd: tuple
    sampled_valuation: object
    rank_at_one: int
    syzygy_dimension: int


def curve_multiplicity():
    """t-adic valuation of the gcd of the 24 x 24 minors of the family's
    syzygy-constraint matrix, with a sampled-minor cross-check."""
    ctx = family_context()
    qs = family_quadrics()
    ours = linear_syzygies(qs, ctx)
    rels = family_syzygies()
    span = RowSpace(QT)
    for basis in (rels, ours):
        for rel in basis:
            vec = []
            for l in rel:
                for jv in range(4):
                    e = [0, 0, 0, 0]
                    e[jv] = 1
                    vec.append(l.terms.get(tuple(e), QT.zero))
            span.add(vec)
    if span.dim != 8 or len(ours) != 8:
        raise ArithmeticError("linear syzygy space of the family is not 8-dimensional")
    machine = family_machine()
    psi = machine.psi
    val = t_adic_minor_valuation(psi, 24, cross_check=False)
    gcd_poly = minor_gcd_sample(psi, 24, count=32, seed=271828)
    from .upoly import zval
    sval = zval(gcd_poly) if gcd_poly else None
    at1 = family_machine(tval=1)
    return CurveReport(valuation=val, sampled_gcd=gcd_poly, sampled_valuation=sval,
                       rank_at_one=at1.rank_psi, syzygy_dimension=span.dim)
