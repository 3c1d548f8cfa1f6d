"""The rank-12 skew form of a (1,4,3) ideal, the projection to homogeneous
ideals, coordinate changes, and the top-level smoothability classifier.

A colength-8 local algebra with Hilbert function (1,4,3) corresponds to a
3-dimensional space of dual quadrics; the Pfaffian of the associated 12 x 12
skew-symmetric matrix vanishes exactly on the ideals that are limits of
distinct points.  Everything else of colength at most 8 is always such a
limit, which the classifier turns into a decision procedure.  The dual
quadrics are the apolar complement of the degree-2 part of the ideal, the
kernel of the products of the centred operators on 1.
"""

from dataclasses import dataclass

from . import artin
from .errors import PreconditionError
from .apolarity import _apolar_complement
from .artin import HilbertFunction, IndeterminateSupport, centroid, support_colengths
from .groebner import Ideal, _monomials_of_degree, buchberger, ideal_equal, initial_ideal
from .linalg import DenseMatrix, _working_rows, determinant, kernel_basis, pfaffian, rank
from .poly import Substitution, VariableContext, mono_deg


@dataclass
class PfaffianReport:
    dual_quadrics: list
    block_matrix: DenseMatrix
    intrinsic_matrix: DenseMatrix
    pfaffian_block: object
    pfaffian_intrinsic: object
    vanishes: bool

    def ratio(self):
        """pfaffian_intrinsic / pfaffian_block when both are nonzero."""
        if not self.pfaffian_block:
            return None
        return self.pfaffian_intrinsic / self.pfaffian_block


def salmon_turnbull_pfaffian(arg):
    """Pfaffian report of a (1,4,3) ideal or of a 3-space of dual quadrics.

    The block matrix and its Pfaffian are those of `_block_pfaffian`; the
    intrinsic matrix represents the wedge-valued form on linear forms
    tensored with the quadric coquotient, in the basis dual to the halved
    quadrics.  It is the negated block matrix, so the two Pfaffians are
    equal (12/2 is even) and vanish together, which is checked.
    """
    if isinstance(arg, Ideal):
        if arg.ctx.d != 4:
            raise PreconditionError("the Pfaffian criterion lives in 4 variables")
        local, chain = artin._local_model(arg)
        hf = HilbertFunction.of_chain(chain)
        if tuple(hf) != (1, 4, 3):
            raise PreconditionError(f"wrong Hilbert function {hf}, need (1,4,3)")
        quadrics, _ = _dual_quadrics(local, chain)
    else:
        quadrics = list(arg)
    mats, block, pf_block = _block_pfaffian(quadrics)
    intrinsic = _intrinsic_matrix(mats, block.field)
    pf_intrinsic = pfaffian(intrinsic)
    if bool(pf_block) != bool(pf_intrinsic):
        raise ArithmeticError("block and intrinsic Pfaffians disagree on vanishing")
    return PfaffianReport(dual_quadrics=quadrics, block_matrix=block,
                          intrinsic_matrix=intrinsic, pfaffian_block=pf_block,
                          pfaffian_intrinsic=pf_intrinsic, vanishes=not pf_block)


def _block_pfaffian(quadrics):
    """Gram matrices A_1, A_2, A_3 of a 3-space of dual quadrics, the 12 x 12
    block matrix [[0, A1, -A2], [-A1, 0, A3], [A2, -A3, 0]] and its Pfaffian,
    which vanishes exactly on the smoothable (1,4,3) ideals."""
    if len(quadrics) != 3:
        raise PreconditionError("need a 3-dimensional space of dual quadrics")
    dctx = quadrics[0].ctx
    if dctx.d != 4:
        raise PreconditionError("the Pfaffian criterion lives in 4 variables")
    field = dctx.field
    for q in quadrics:
        if not q or not q.is_homogeneous() or q.degree() != 2:
            raise PreconditionError("dual generators must be nonzero quadrics")
    if rank(field, [q.terms for q in quadrics]) != 3:
        raise PreconditionError("dual quadrics are linearly dependent")
    # Gram matrices A_k[j][j'] = <x_j x_j', Q_k> / 2, the pairing of x^m with
    # its own monomial being m!
    half = field.inv_int(2)
    mats = []
    for q in quadrics:
        A = [[field.zero] * 4 for _ in range(4)]
        for m, c in q.terms.items():
            i, j = (v for v, e in enumerate(m) for _ in range(e))
            A[i][j] = A[j][i] = c if i == j else c * half
        mats.append(A)
    A1, A2, A3 = mats
    zero4 = [[field.zero] * 4 for _ in range(4)]

    def neg(A):
        return [[-x for x in row] for row in A]

    block = _stack_blocks([[zero4, A1, neg(A2)],
                           [neg(A1), zero4, A3],
                           [A2, neg(A3), zero4]], field)
    return mats, block, pfaffian(block)


def _stack_blocks(blocks, field):
    rows = []
    for brow in blocks:
        for i in range(4):
            rows.append([x for blk in brow for x in blk[i]])
    return DenseMatrix(field, rows)


def _intrinsic_matrix(mats, field):
    """Gram matrix of (l1 l2) wedge q1 wedge q2 on the 12-dimensional space,
    from the Gram matrices A_k of the dual quadrics Q_k.

    On the coquotient basis mbar_k dual to the halved quadrics
    (<mbar_k, Q_l> = 2 delta_kl) the product x_j x_j' has coordinate
    <x_j x_j', Q_k> / 2 = A_k[j][j'], so the entry at (x_j (x) mbar_i,
    x_j' (x) mbar_i') is sgn(i'', i, i') A_i''[j][j'], i'' the third index.
    """
    # basis x_1 (x) mbar_3, ..., x_4 (x) mbar_1: block i runs over 3, 2, 1
    blocks = (2, 1, 0)
    rows = []
    for i in blocks:
        for j in range(4):
            row = []
            for ip in blocks:
                if ip == i:
                    row += [field.zero] * 4
                elif ip == (i + 1) % 3:     # (i'', i, i') is a cyclic shift
                    row += mats[3 - i - ip][j]
                else:
                    row += [-x for x in mats[3 - i - ip][j]]
            rows.append(row)
    return DenseMatrix(field, rows)


def project_to_graded(I):
    """Top-degree-form projection onto homogeneous (1,4,3) ideals.

    For an ideal in the chart of a (1,4,3) monomial ideal this is the initial
    ideal for weight (1,1,1,1); the result must have graded Hilbert function
    (1,4,3).  An ideal that is itself local with that Hilbert function
    projects to itself, which is verified.
    """
    ctx = I.ctx
    if ctx.d != 4:
        raise PreconditionError("projection is defined in 4 variables")
    G = buchberger(I)
    Gout = initial_ideal(G, (1, 1, 1, 1))
    qb = Gout.quotient_basis()
    counts = {}
    for m in qb:
        counts[mono_deg(m)] = counts.get(mono_deg(m), 0) + 1
    hf = tuple(counts.get(j, 0) for j in range(max(counts, default=0) + 1))
    if hf != (1, 4, 3):
        raise PreconditionError(f"wrong Hilbert function {hf} after projection, need (1,4,3)")
    local = artin._local_model(G, required=False)
    if local is not None and tuple(HilbertFunction.of_chain(local[1])) == (1, 4, 3) \
            and not ideal_equal(Gout, G):
        raise ArithmeticError("local (1,4,3) ideal failed to project to itself")
    return Gout


def change_coordinates(I, g):
    """Image of I under the linear substitution x -> g x."""
    ctx = I.ctx
    field = ctx.field
    rows = [[field.from_int(x) if isinstance(x, int) else x for x in row] for row in g]
    if len(rows) != ctx.d or any(len(r) != ctx.d for r in rows):
        raise PreconditionError("coordinate change must be a d x d matrix")
    if not determinant(DenseMatrix(field, rows)):
        raise PreconditionError("coordinate change is singular")
    xs = ctx.variables()
    images = []
    for i in range(ctx.d):
        img = ctx.zero()
        for j in range(ctx.d):
            if rows[i][j]:
                img = img + xs[j].scale(rows[i][j])
        images.append(img)
    change = Substitution(images)
    return Ideal(ctx, [p.substitute(change) for p in I.gens])


@dataclass
class SmoothabilityVerdict:
    outcome: str                 # "Smoothable" | "NotSmoothable"
    evidence: tuple
    pfaffian: object = None

    def __bool__(self):
        return self.outcome == "Smoothable"


def classify_smoothable(I):
    """Decide membership in the closure of the distinct-point locus.

    The reduced basis and the quotient model come from
    artin.quotient_model: an input that already is a reduced basis, such as
    the basis of a set of points, is certified by its commuting operators
    rather than recomputed.

    Every local algebra of colength at most 7 is a limit of distinct points,
    so an ideal can fail only at colength 8 with its whole support one point.
    That point is fixed by Galois, hence rational: the centroid of the
    quotient model.  The model centred there decides it: when its maximal
    ideal is not nilpotent the support has several points; otherwise the
    local Hilbert function is read off the same chain, and a (1,4,3) piece
    is decided by the vanishing of the Pfaffian of its three dual quadrics,
    read off the products of the centred operators (`_dual_quadrics`).
    The split over rational support is only reported, as the colengths of
    its pieces (artin.support_colengths): the support is refined by the
    operators of a generic linear form L and then of the variables, and
    when L's characteristic polynomial, or that of a second form L', has
    only simple roots it alone decides.  When the support is not rational,
    or over Q(t), the evidence says so and the verdict stands.
    Characteristic 2 and 3 never reach here: the prime fields start at 5.
    """
    _, model = artin.quotient_model(I, check=_check_colength)
    n = model.n
    evidence = [f"colength {n}"]
    if n == 8:
        local = model.shifted(centroid(model))
        chain = local.maximal_ideal_chain()
        if chain[-1].dim == 0:
            evidence += ["split into colengths [8]", "recentered colength-8 piece"]
            return _decide_local(local, chain, evidence)
    try:
        colengths = support_colengths(model)
    except IndeterminateSupport as exc:
        evidence.append(f"splitting failed: {exc}")
    else:
        evidence.append(f"split into colengths {colengths}")
    return SmoothabilityVerdict("Smoothable", tuple(evidence))


def _check_colength(G):
    """Refuses a basis outside the supported colengths 1 to 8."""
    n = G.colength(limit=9)
    if n == 0:
        raise PreconditionError("unit ideal is out of range")
    if n > 8:
        raise PreconditionError("colength > 8: outside the supported range")


def _decide_local(local, chain, evidence):
    """Verdict on a colength-8 algebra primary at one point, from its model
    centred there and the maximal-ideal chain of that model."""
    hf = HilbertFunction.of_chain(chain)
    evidence.append(f"local Hilbert function {hf}")
    if tuple(hf) != (1, 4, 3):
        return SmoothabilityVerdict("Smoothable", tuple(evidence))
    quadrics, dropped = _dual_quadrics(local, chain)
    if dropped:
        evidence.append("reduced to 4 variables")
    _, _, pf = _block_pfaffian(quadrics)
    evidence.append(f"pfaffian {pf}" if pf else "pfaffian zero")
    outcome = "NotSmoothable" if pf else "Smoothable"
    return SmoothabilityVerdict(outcome, tuple(evidence), pf)


def _dual_quadrics(local, chain):
    """The dual quadrics of a (1,4,3) algebra, from its model centred at
    its point and that model's maximal-ideal chain, and whether a variable
    was dropped.  The kept variables y (`artin._kept_variables`) generate
    the algebra; its ideal J in k[y] lies in m^2 (h_1 = 4) and contains m^3
    (h_3 = 0), so J_2 is the kernel of y_i y_j -> Y_i Y_j 1 on the
    quadratic monomials, and its perp is that of J in degree 2."""
    ctx = local.ctx
    field = ctx.field
    keep = artin._kept_variables(local, chain)
    unit = local.unit_vector()
    images = [artin._apply(local.ops[i], unit, field) for i in keep]
    monos = list(_monomials_of_degree(len(keep), 2))
    products = []
    for m in monos:
        i, j = (k for k, e in enumerate(m) for _ in range(e))
        products.append(artin._apply(local.ops[keep[i]], images[j], field))
    rows = _working_rows(field, [list(row) for row in zip(*products)])
    kernel = [{k: c for k, c in enumerate(v) if c} for v in kernel_basis(rows, field)]
    dual = VariableContext(field, [ctx.names[i] for i in keep], dual=True)
    return _apolar_complement(kernel, monos, dual), len(keep) < ctx.d
