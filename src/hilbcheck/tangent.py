"""Tangent spaces to the Hilbert scheme of points.

The tangent space at an ideal I is the space of module homomorphisms from I
to S/I.  With a reduced Groebner basis g_1..g_r and syzygy generators, such
a homomorphism is an assignment g_k -> v_k in S/I annihilated by every
syzygy, a finite exact linear system over the coefficient field.

Both the total and the graded assembly read that system off one quotient
model of S/I: the block of a syzygy coefficient a is the operator of
multiplication by a, built by `LocalAlgebraModel.working_operator` from
monomial powers that the model caches, and a graded block is a sub-block
of the same operator.  The blocks stay in the working coefficients of
`fields` (integers over Q, residues over F_p, elements over Q(t)), those
of one syzygy over one denominator, and the rows are assembled sparse, as
dicts of their nonzero entries, for `linalg.working_rank`: no field element
is made between the quotient model and the rank.  `tangent_report` shares
one model and one syzygy basis between the total and every graded piece.
The syzygies are the S-pair traces that `groebner.trace_syzygies` keeps: a
pair whose Schreyer leading term another pair's divides is not built, and
neither is a Koszul relation, whose blocks are zero, so the system has one
block row per minimal non-Koszul generator of the initial syzygy module.
The 24 x 28 syzygy-constraint matrix of a (1,4,3) ideal and the
one-parameter family harness for the degree-16 multiplicity are assembled
separately below.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import lcm

from .errors import PreconditionError
from .fields import QT
from .fixtures import family_member_ideal
from .linalg import (DenseMatrix, RowSpace, mat_rank, rank, rref,
                     minor_gcd_sample, t_adic_minor_valuation, working_rank)
from .poly import context, mono_deg, mono_lcm
from .groebner import (buchberger, linear_syzygies, trace_syzygies,
                       SyzygyBasis, _monomials_of_degree)
from .artin import local_hilbert_function, multiplication_operators
from .upoly import zval


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
        """The syzygy generators that constrain: the S-pair traces of
        `trace_syzygies`.  With the Koszul relations they generate the
        syzygy module, and an assignment that every generator annihilates is
        annihilated by the whole module, so Hom(I, S/I) is the same as on
        every S-pair trace.  The coefficients of a Koszul relation
        g_j e_i - g_i e_j lie in I, so its blocks are zero, and it is never
        built."""
        return trace_syzygies(self.G).relations

    def blocks(self, r):
        """Working operators (`LocalAlgebraModel.working_operator`) of the
        coefficients of syzygy r on S/I, as their rows over one common
        denominator, which scales every constraint of r alike and changes
        no rank; None where a coefficient is zero."""
        if r not in self._blocks:
            op = self.model.working_operator
            ops = [op(a) if a else None for a in self.relations[r]]
            den = lcm(*(d for _, d in filter(None, ops)))
            blocks = []
            for o in ops:
                if o is not None:
                    rows, d = o
                    o = rows if d == den else [[x * (den // d) for x in row] for row in rows]
                blocks.append(o)
            self._blocks[r] = blocks
        return self._blocks[r]

    def total(self):
        """dim Hom_S(I, S/I): n unknowns per basis element, one block row of
        n constraints per syzygy generator, holding the blocks present."""
        n = len(self.qb)
        rows = []
        for idx in range(len(self.relations)):
            blocks = [(k * n, brows) for k, brows in enumerate(self.blocks(idx))
                      if brows is not None]
            for i in range(n):
                row = {}
                for base, brows in blocks:
                    row.update((base + j, x) for j, x in enumerate(brows[i]) if x)
                if row:
                    rows.append(row)
        return len(self.G.elements) * n - working_rank(self.G.ctx.field, rows)

    def graded(self, e):
        """Dimension of the degree-e part of Hom_S(I, S/I) for homogeneous G.

        The unknowns are the standard monomials m of degree deg g_k + e at
        each g_k; a homogeneous syzygy of degree D constrains degree D + e,
        and the entry at (mm, (k, m)) is the coefficient of mm in
        a_k * m mod I, read off the operator of a_k.
        """
        qb = self.qb
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
            present = [(u, blocks[k], j) for u, (k, j) in enumerate(unknowns)
                       if blocks[k] is not None]
            for t in target:
                row = {}
                for u, brows, j in present:
                    x = brows[t][j]
                    if x:
                        row[u] = x
                if row:
                    rows.append(row)
        return len(unknowns) - working_rank(self.G.ctx.field, rows)

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


@dataclass
class TangentReport:
    total: int
    graded: dict | None


def tangent_report(I, graded=False):
    G = buchberger(I)
    system = _HomSystem(G)
    total = system.total()
    gr = None
    if graded:
        _require_homogeneous(G)
        gr = system.graded_pieces()
        if sum(gr.values()) != total:
            raise ArithmeticError("graded pieces do not sum to the total tangent dimension")
    return TangentReport(total, gr)


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


def build_tangent_machine(I):
    """Syzygy-constraint matrix psi and its reduction hbar for a (1,4,3) ideal.

    Requires four variables and an ideal generated in degree 2; the verdict
    `singular` is dim Hom(I, S/I)_{-1} >= 5.  hbar drops the columns of psi
    at the 4 pivots of the derivative columns T.  psi T = 0, and T's 4 x 4
    block on those pivots is invertible, so each dropped column is a
    combination of the 24 kept ones and rank(hbar) = rank(psi).  The corank
    of hbar is thus dim Hom(I, S/I)_{-1} - 4, read off psi's one rank, and
    `singular` holds exactly when hbar is singular.
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
    cobasis = [m for m in G.quotient_basis() if mono_deg(m) == 2]
    return _assemble_machine(ctx, quadrics, linear_syzygies(quadrics, ctx), cobasis)


def _assemble_machine(ctx, quadrics, relations, cobasis):
    field = ctx.field
    if len(cobasis) != 3:
        raise PreconditionError("cobasis of S_2/I_2 must have 3 monomials")
    deg2 = list(_monomials_of_degree(4, 2))
    col = {m: i for i, m in enumerate(deg2)}

    def unit(m):
        vec = [field.zero] * len(deg2)
        vec[col[m]] = field.one
        return vec

    rs = RowSpace(field, track=True)
    for q in quadrics:
        rs.add([q.terms.get(m, field.zero) for m in deg2])
    for b in cobasis:
        if rs.add(unit(b)) is not None:
            raise PreconditionError("cobasis monomials do not complement I_2")
    # coordinates over the cobasis, mod I_2, of each quadratic monomial: its
    # combination's coefficients on the cobasis rows, added after the 7 quadrics
    coords = {}
    for m in deg2:
        combo = rs.add(unit(m))
        if combo is None:
            raise ArithmeticError("quadric escaped S_2")
        coords[m] = [combo.get(7 + b, field.zero) for b in range(3)]
    # the entry of x_jv * l, for l a linear form, by linearity in the terms of l
    nrel = len(relations.relations)
    psi_rows = [[field.zero] * 28 for _ in range(3 * nrel)]
    for j, rel in enumerate(relations.relations):
        for i, l in enumerate(rel):
            for m, c in l.terms.items():
                for jv in range(4):
                    xm = tuple(e + (v == jv) for v, e in enumerate(m))
                    for b, x in enumerate(coords[xm]):
                        if x:
                            row = psi_rows[3 * j + b]
                            row[4 * i + jv] = row[4 * i + jv] + c * x
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
    return TangentMachine143(
        quadrics=quadrics, relations=relations, cobasis=cobasis, psi=psi,
        t_columns=t_columns, hbar=hbar, rank_psi=rank_psi,
        dim_hom_minus1=dim_hom_minus1, corank_hbar=dim_hom_minus1 - 4,
        singular=dim_hom_minus1 >= 5)


# ---------------------------------------------------------------------------
# the one-parameter family of (1,4,3) ideals and its degree-16 multiplicity


def family_context():
    return context(QT, "x1 x2 x3 x4")


def family_quadrics(tval=None):
    """The seven quadric generators of the family, in their fixed order: those
    of `fixtures.family_member_ideal`.

    Over Q(t) when tval is None; specialized to a rational tval otherwise.
    """
    I = family_member_ideal(QT.t, QT) if tval is None else family_member_ideal(tval)
    return list(I.gens)


def family_syzygies(tval=None):
    """The eight linear syzygies of the family generators, entered explicitly
    and verified to annihilate the generators."""
    qs = family_quadrics(tval)
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
    rels = family_syzygies(tval=tval)
    qs = list(rels.generators)
    return _assemble_machine(qs[0].ctx, qs, rels, list(FAMILY_COBASIS))


@dataclass
class CurveReport:
    valuation: object
    sampled_gcd: tuple
    sampled_valuation: object
    rank_at_one: int
    syzygy_dimension: int


def curve_multiplicity():
    """t-adic valuation v of the gcd G of the 24 x 24 minors of the family's
    syzygy-constraint matrix psi, with the gcd of psi's pivot minors, drawn
    until it is t^v (`minor_gcd_sample`), as a cross-check: when that gcd
    is t^v, so is G.

    The family's 8 relations annihilate the quadrics (`SyzygyBasis` checks
    each), and `linear_syzygies` gives a basis of the linear syzygies, 8 of
    them; so when the relations have rank 8 over Q(t) they are a basis of
    that space.  Their rank reaches min(rows, columns), so the rank at a
    point settles it."""
    machine = family_machine()
    # raises unless the linear syzygies of the quadrics span 8 dimensions
    linear_syzygies(machine.quadrics, family_context())
    # each relation as its coefficient vector, keyed by (generator, monomial)
    dim = rank(QT, [{(k, m): c for k, l in enumerate(rel) for m, c in l.terms.items()}
                    for rel in machine.relations])
    if dim != 8:
        raise ArithmeticError("linear syzygy space of the family is not 8-dimensional")
    psi = machine.psi
    val = t_adic_minor_valuation(psi)
    gcd_poly = minor_gcd_sample(psi, val)
    sval = zval(gcd_poly) if gcd_poly else None
    at1 = family_machine(tval=1)
    return CurveReport(valuation=val, sampled_gcd=gcd_poly, sampled_valuation=sval,
                       rank_at_one=at1.rank_psi, syzygy_dimension=dim)
