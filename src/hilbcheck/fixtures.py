"""Named input ideals and point configurations used by the verification
suite, the tests, and the bundled data files.

Everything is built in code from short generator lists so the fixtures stay
exact over any supported field; seeded helpers produce the random point sets
and coordinate changes with reproducible draws.
"""

import random

from .apolarity import ideal_from_inverse_system
from .fields import QQ
from .groebner import Ideal
from .linalg import DenseMatrix, determinant
from .poly import context, parse_polynomial
from .scalars import rat

DEFAULT_SEED = 271828


def _ctx(d, field=QQ):
    return context(field, [f"x{i+1}" for i in range(d)])


def _ideal(ctx, *texts):
    return Ideal(ctx, [parse_polynomial(s, ctx) for s in texts])


def seven_quadrics_ideal(d=4, field=QQ):
    """Colength-8 ideal generated by seven quadrics (plus excess variables):
    the witness that the colength-8 locus has a second component."""
    if d < 4:
        raise ValueError("needs at least 4 variables")
    ctx = _ctx(d, field)
    I = _ideal(ctx, "x1^2", "x1*x2", "x2^2", "x3^2", "x3*x4", "x4^2",
               "x1*x4+x2*x3")
    extra = [ctx.variable(i) for i in range(4, d)]
    return Ideal(ctx, list(I.gens) + extra)


def monomial_143_ideal(field=QQ):
    """Monomial ideal with Hilbert function (1,4,3) and a 33-dimensional
    tangent space; it is a limit of distinct points."""
    return _ideal(_ctx(4, field), "x1^2", "x1*x2", "x2^2", "x3^2", "x3*x4",
                  "x4^2", "x1*x4")


def family_member_ideal(tval, field=QQ):
    """Member of the one-parameter family of (1,4,3) ideals at a finite t."""
    ctx = _ctx(4, field)
    t = field.from_int(tval) if isinstance(tval, int) else tval
    x = ctx.variables()
    return Ideal(ctx, [x[0] * x[0], x[1] * x[1], x[2] * x[2], x[3] * x[3],
                       x[0] * x[1], x[1] * x[2] + (x[2] * x[3]).scale(t),
                       x[0] * x[3] + (x[2] * x[3]).scale(t)])


def family_limit_ideal(field=QQ):
    """The t = infinity member of the family."""
    return _ideal(_ctx(4, field), "x1^2", "x2^2", "x3^2", "x4^2", "x1*x2",
                  "x2*x3 - x1*x4", "x3*x4")


def squares_cube_ideal(field=QQ):
    """x^2, y^2, z^2, xyz: tangent dimension 21."""
    ctx = context(field, "x y z")
    return _ideal(ctx, "x^2", "y^2", "z^2", "x*y*z")


def squares_ideal(field=QQ):
    """x^2, y^2, z^2: Hilbert function (1,3,3,1)."""
    return _ideal(context(field, "x y z"), "x^2", "y^2", "z^2")


def weight753_ideal(field=QQ):
    """The colength-8 ideal with a quartic tail and tangent dimension 24."""
    return _ideal(context(field, "x y z"), "x^2", "x*y - z^4", "y^2 - x*z", "y*z")


def salmon_cubic(field=QQ):
    """A cubic dual form whose three chosen partials span a 3-space of
    quadrics: the classical vanishing configuration for the skew form."""
    dctx = _ctx(4, field).dual_context()
    return parse_polynomial("x1^3 + x2^3 + x3^3 + x1*x2*x4 + x3*x4^2", dctx)


def salmon_partials(field=QQ):
    c = salmon_cubic(field)
    return [c.partial(i) for i in range(3)]


def salmon_ideal(field=QQ):
    return ideal_from_inverse_system(salmon_partials(field))


# --- the degenerations to initial ideals -------------------------------------


def degeneration_pencil_deg8():
    """(I, J, (J1, J2), w): colength-8 pencil-of-quadrics fixture in 3
    variables whose weight-(1,1,1) initial ideal is I, with J = J1 meet J2."""
    ctx = context(QQ, "x y z")
    I = _ideal(ctx, "y^2+z^2", "x^2+z^2", "z^3", "y*z^2", "x*z^2", "x*y*z")
    J = _ideal(ctx, "y^2+z^2", "x+x^2+z^2", "z^3", "y*z^2", "x*z^2", "x*y*z")
    J1 = _ideal(ctx, "x+1", "y^2", "y*z", "z^2")
    J2 = _ideal(ctx, "x+z^2", "y^2+z^2", "z^3", "y*z^2")
    return I, J, (J1, J2), (1, 1, 1)


def degeneration_axis_weight():
    """(I, (J1, J2), w): weight (1,0,0) degeneration of a two-point ideal."""
    ctx = context(QQ, "x y z")
    I = _ideal(ctx, "x^2", "x*y", "x*z", "y*z", "z^3 - y^4")
    J1 = _ideal(ctx, "x+1", "y", "z")
    J2 = _ideal(ctx, "x", "y*z", "z^3 - y^4")
    return I, (J1, J2), (1, 0, 0)


def degeneration_753():
    """(I, (J1, J2), w): weight (7,5,3) degeneration onto the quartic-tail
    ideal of tangent dimension 24.

    The sign of the cubic tail in J2 matters: with x*y - z^3 the limit is the
    y -> -y image of I, so the fixture carries x*y + z^3.
    """
    ctx = context(QQ, "x y z")
    I = weight753_ideal()
    J1 = _ideal(ctx, "x", "y", "z - 1")
    J2 = _ideal(ctx, "x^2", "x*y + z^3", "y^2 - x*z", "y*z")
    return I, (J1, J2), (7, 5, 3)


def degeneration_chain(d, m):
    """(I, J, (J1, J2), w): the (1,d,1,...,1) stratum degeneration with
    weight (m,...,m,2); J = J1 meet J2 and I = in_w(J)."""
    ctx = _ctx(d)
    P = lambda s: parse_polynomial(s, ctx)
    cross = [f"x{i+1}*x{j+1}" for i in range(d) for j in range(i + 1, d)]
    top = f"x{d}^{m}"
    I = Ideal(ctx, [P(f"x{i}^2 - {top}") for i in range(1, d)] +
              [P(f"x{d}^{m+1}")] + [P(s) for s in cross])
    J = Ideal(ctx, [P(f"x1^2 + x1 - {top}")] +
              [P(f"x{i}^2 - {top}") for i in range(2, d)] +
              [P(f"x{d}^{m+1}")] + [P(s) for s in cross])
    J1 = Ideal(ctx, [P("x1 + 1")] + [P(f"x{i}") for i in range(2, d + 1)])
    J2 = Ideal(ctx, [P(f"x1 - {top}")] +
               [P(f"x{i}^2 - {top}") for i in range(2, d)] +
               [P(f"x{d}^{m+1}")] + [P(s) for s in cross])
    w = tuple([m] * (d - 1) + [2])
    return I, J, (J1, J2), w


def degeneration_two_quadrics(d=3, a=2, b=3):
    """(I, (J1, J2), w): the (1,d,2) stratum degeneration, weight (1,...,1)."""
    ctx = _ctx(d)
    P = lambda s: parse_polynomial(s, ctx)
    cross = [f"x{i+1}*x{j+1}" for i in range(d) for j in range(i + 1, d)]
    sq = [f"x{i}^2 - {a}*x{d-1}^2 - {b}*x{d}^2" for i in range(1, d - 1)]
    I = Ideal(ctx, [P(s) for s in cross + sq])
    J1 = Ideal(ctx, [P(s) for s in cross] +
               [P(f"x1 + {a}*x{d-1}^2 + {b}*x{d}^2")] +
               [P(f"x{i}^2 - {a}*x{d-1}^2 - {b}*x{d}^2") for i in range(2, d - 1)])
    J2 = Ideal(ctx, [P("x1 - 1")] + [P(f"x{i}") for i in range(2, d + 1)])
    return I, (J1, J2), tuple([1] * d)


def degeneration_cubic_pair(d=3):
    """(I, (J1, J2), w): the cubic-socle component of the (1,d,2,1) stratum,
    weight (2,2,3,...,3)."""
    ctx = _ctx(d)
    P = lambda s: parse_polynomial(s, ctx)
    cross = [f"x{i+1}*x{j+1}" for i in range(d) for j in range(i + 1, d)]
    I = Ideal(ctx, [P(s) for s in cross] +
              [P(f"x{l}^2 + x1^3") for l in range(3, d + 1)] +
              [P("x1^3 - x2^3")])
    J1 = Ideal(ctx, [P("x1 + 1")] + [P(f"x{i}") for i in range(2, d + 1)])
    J2 = Ideal(ctx, [P(s) for s in cross] +
               [P(f"x{l}^2 + x1^2") for l in range(3, d + 1)] +
               [P("x1^2 - x2^3")])
    w = tuple([2, 2] + [3] * (d - 2))
    return I, (J1, J2), w


def degeneration_square_pair(d=3, b_mixed=1, b_diag=1):
    """(I, (J1, J2), w): the square-socle component of the (1,d,2,1) stratum,
    weight (2,3,...,3)."""
    ctx = _ctx(d)
    P = lambda s: parse_polynomial(s, ctx)

    def gens(power):
        out = [f"x1*x{l}" for l in range(2, d + 1)]
        out += [f"x{i}*x{j} + {b_mixed}*x1^{power}"
                for i in range(2, d) for j in range(i + 1, d + 1)]
        out += [f"x{k}^2 - x{k+1}^2 + {b_diag}*x1^{power}" for k in range(2, d)]
        return [P(s) for s in out]

    I = Ideal(ctx, gens(3))
    J1 = Ideal(ctx, gens(2))
    J2 = Ideal(ctx, [P("x1 + 1")] + [P(f"x{i}") for i in range(2, d + 1)])
    w = tuple([2] + [3] * (d - 1))
    return I, (J1, J2), w


# --- seeded random draws ------------------------------------------------------


def random_points(seed, n=8, d=4, field=QQ):
    """Distinct points with small coordinates, reproducible."""
    rng = random.Random(seed)
    seen = set()
    out = []
    while len(out) < n:
        if field == QQ:
            p = tuple(rat(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
        else:
            p = tuple(field.from_int(rng.randint(0, field.characteristic - 1))
                      for _ in range(d))
        key = tuple(map(repr, p))
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def random_invertible_matrix(seed, d, field=QQ):
    """Seeded invertible d x d matrix with small integer entries."""
    rng = random.Random(seed)
    while True:
        g = [[field.from_int(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
        if determinant(DenseMatrix(field, g)):
            return g


def random_skew_matrix(rng, n, field=QQ):
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rat(rng.randint(-9, 9), rng.randint(1, 4))
            rows[i][j] = v
            rows[j][i] = -v
    return rows


def bundled_monomial_ideals():
    """Monomial ideals of colength at most 8 across 2 to 4 variables."""
    out = []
    c2 = context(QQ, "x y")
    c3 = context(QQ, "x y z")
    c4 = _ctx(4)
    for ctx, texts in [
        (c2, ["x", "y^3"]),
        (c2, ["x^2", "y^2"]),
        (c2, ["x^3", "x*y", "y^3"]),
        (c2, ["x^4", "y^2"]),
        (c3, ["x", "y", "z^5"]),
        (c3, ["x^2", "y^2", "z^2"]),
        (c3, ["x^2", "y^2", "z^2", "x*y*z"]),
        (c3, ["x^2", "x*y", "y^2", "z^2", "y*z"]),
        (c3, ["x^3", "y^2", "x*y", "z^2", "x*z", "y*z"]),
        (c4, ["x1^2", "x2^2", "x3^2", "x4^2", "x1*x2", "x1*x3", "x1*x4",
              "x2*x3", "x2*x4", "x3*x4"]),
        (c4, ["x1^2", "x1*x2", "x2^2", "x3^2", "x3*x4", "x4^2", "x1*x4"]),
        (c4, ["x1^2", "x2^2", "x3^2", "x4^2", "x1*x2", "x2*x3", "x1*x4"]),
    ]:
        out.append(_ideal(ctx, *texts))
    return out


def graded_143_fixtures(field=QQ):
    """Five ideals with Hilbert function (1,4,3) generated in degree 2."""
    return [
        ("seven-quadrics", seven_quadrics_ideal(4, field)),
        ("family-t0", family_member_ideal(0, field)),
        ("family-t1", family_member_ideal(1, field)),
        ("family-limit", family_limit_ideal(field)),
        ("monomial-143", monomial_143_ideal(field)),
    ]
