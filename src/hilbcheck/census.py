"""Census of local Hilbert functions for colength at most 8, with the
component-dimension bookkeeping for the graded and local strata.

The staircase enumeration provides the Hilbert functions; closed formulas
give the component dimensions of the corresponding strata, checked against
the published census literals.  The graded stratum of a length-3 function
(1,d,e) is a Grassmannian of codimension-e subspaces of the quadrics, of
dimension (N-e)e with N = d(d+1)/2; one source states this dimension as
(N-e)N, which disagrees with its own census values, so the census report
carries an explicit discrepancy note.
"""

from dataclasses import dataclass

from .artin import enumerate_local_hfs
from .errors import PreconditionError

# census literals: (colength, hilbert function, graded-stratum component dims,
# local-stratum component dims), functions with h_1 >= 3 only
CENSUS_TABLE = (
    (4, (1, 3), (0,), (0,)),
    (5, (1, 3, 1), (5,), (5,)),
    (5, (1, 4), (0,), (0,)),
    (6, (1, 3, 1, 1), (2,), (7,)),
    (6, (1, 4, 1), (9,), (9,)),
    (6, (1, 5), (0,), (0,)),
    (7, (1, 3, 1, 1, 1), (2,), (9,)),
    (7, (1, 3, 2, 1), (5, 6), (9, 10)),
    (7, (1, 3, 3), (9,), (9,)),
    (7, (1, 4, 1, 1), (3,), (12,)),
    (7, (1, 4, 2), (16,), (16,)),
    (7, (1, 5, 1), (14,), (14,)),
    (7, (1, 6), (0,), (0,)),
    (8, (1, 3, 1, 1, 1, 1), (2,), (11,)),
    (8, (1, 3, 2, 1, 1), (6,), (11, 12)),
    (8, (1, 3, 2, 2), (4,), (12,)),
    (8, (1, 3, 3, 1), (9,), (12,)),
    (8, (1, 3, 4), (8,), (8,)),
    (8, (1, 4, 1, 1, 1), (3,), (15,)),
    (8, (1, 4, 2, 1), (7, 11), (15, 19)),
    (8, (1, 4, 3), (21,), (21,)),
    (8, (1, 5, 2), (26,), (26,)),
    (8, (1, 5, 1, 1), (4,), (18,)),
    (8, (1, 6, 1), (20,), (20,)),
    (8, (1, 7), (0,), (0,)),
)

GRASSMANNIAN_DISCREPANCY_NOTE = (
    "graded stratum of (1,d,e) is Gr(N-e, quadrics) of dimension (N-e)*e; the"
    " stated formula (N-e)*N contradicts the census values and is not used")

# (1,3,2) at colength 6 is a genuine staircase ({1,x,y,z,x^2,xy}) whose
# stratum is covered by the pencil-of-quadrics argument but is absent from
# the published census rows; it is reported as a known omission.
KNOWN_OMISSIONS = (
    (6, (1, 3, 2), (8,), (8,)),
)

OMISSION_NOTE = (
    "census row (1,3,2) at colength 6 (dimensions 8, 8) is missing from the"
    " published table although its stratum is treated by the text")


def quadric_space_dim(d):
    return d * (d + 1) // 2


def grassmannian_stratum_dim(d, e):
    """Dimension of the graded (1,d,e) stratum: Gr(N-e, S_2)."""
    n = quadric_space_dim(d)
    if not 0 <= e <= n:
        raise PreconditionError("second difference out of range")
    return (n - e) * e


def chain_stratum_dims(d, m):
    """(graded, local) dimensions for (1,d,1,...,1) with top socle degree m >= 3."""
    return d - 1, (d + 2 * m - 2) * (d - 1) // 2


def pencil_cubic_stratum_dims(d):
    """Graded component dimensions for (1,d,2,1): the two components."""
    return (2 * d - 1, (d * d + 3 * d - 6) // 2)


def fiber_dim(d, e, f):
    """Fiber dimension of the projection to the graded stratum for (1,d,e,f)."""
    return (quadric_space_dim(d) - e) * f


def graded_stratum_dims(h):
    """Component dimensions of the graded stratum of h, or None if unknown."""
    h = tuple(h)
    d = h[1]
    if len(h) == 2:
        return (grassmannian_stratum_dim(d, 0),)
    if len(h) == 3:
        return (grassmannian_stratum_dim(d, h[2]),)
    if all(x == 1 for x in h[2:]):
        return (d - 1,)
    if h[2:] == (2, 1):
        return tuple(sorted(pencil_cubic_stratum_dims(d)))
    if h[2:] == (2, 2):
        return (2 * d - 2,)
    if h == (1, 3, 3, 1):
        return (9,)
    if h[2:] == (2, 1, 1):
        # one linear form, an e-dimensional quadric space through its square
        return (d - 1 + (quadric_space_dim(d) - 2) * (2 - 1),)
    return None


def local_stratum_dims(h):
    """Component dimensions of the local stratum of h, or None if unknown."""
    h = tuple(h)
    d = h[1]
    if len(h) <= 3:
        return graded_stratum_dims(h)
    if all(x == 1 for x in h[2:]):
        return (chain_stratum_dims(d, len(h) - 1)[1],)
    if h == (1, 3, 2, 1, 1):
        # two irreducible sets, one needing a cubic generator
        return (11, 12)
    if len(h) == 4:
        graded = graded_stratum_dims(h)
        if graded is None:
            return None
        fd = fiber_dim(d, h[2], h[3])
        return tuple(sorted(x + fd for x in graded))
    return None


@dataclass
class CensusRow:
    colength: int
    h: tuple
    graded_dims: tuple
    local_dims: tuple
    census_hit: bool        # found by the staircase enumeration (h_1 <= 4)
    formulas_match: bool


@dataclass
class CensusReport:
    rows: list
    extra_functions: tuple   # census rows absent from BOTH the table and the omission list
    omissions: tuple
    notes: tuple

    def all_match(self):
        return not self.extra_functions and all(
            r.formulas_match and (r.census_hit or r.h[1] > 4) for r in self.rows)


def census_report():
    """Compare the staircase census and the dimension formulas to the table."""
    found = {}
    for n in range(1, 9):
        for d in range(1, 5):
            for h in enumerate_local_hfs(d, n):
                if len(h) > 1 and h[1] >= 3:
                    found.setdefault(n, set()).add(tuple(h))
    rows = []
    listed = set()
    for n, h, graded, local in CENSUS_TABLE + KNOWN_OMISSIONS:
        listed.add((n, h))
        g = graded_stratum_dims(h)
        l = local_stratum_dims(h)
        rows.append(CensusRow(
            colength=n, h=h, graded_dims=graded, local_dims=local,
            census_hit=h in found.get(n, set()),
            formulas_match=(g == graded and l == local)))
    rows.sort(key=lambda r: (r.colength, r.h))
    extras = tuple(sorted((n, h) for n, hs in found.items() for h in hs
                          if (n, h) not in listed))
    return CensusReport(rows=rows, extra_functions=extras,
                        omissions=KNOWN_OMISSIONS,
                        notes=(GRASSMANNIAN_DISCREPANCY_NOTE, OMISSION_NOTE))
