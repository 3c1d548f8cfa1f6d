import pathlib
import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import pytest

from hilbcheck.errors import PreconditionError
from hilbcheck.fields import GF, QQ, QT
from hilbcheck.fixtures import (family_limit_ideal, family_member_ideal,
                                graded_143_fixtures, monomial_143_ideal,
                                random_invertible_matrix,
                                random_points, salmon_ideal,
                                seven_quadrics_ideal, squares_cube_ideal,
                                squares_ideal, weight753_ideal)
from hilbcheck import artin, linalg, tangent, upoly
from hilbcheck.artin import LocalAlgebraModel, multiplication_operators, translate_ideal
from hilbcheck.groebner import (GroebnerBasis, Ideal, SyzygyBasis, buchberger,
                                intersect, points_ideal, schreyer_syzygies)
from hilbcheck.linalg import DenseMatrix, RowSpace, determinant, kernel_basis, mat_rank
from hilbcheck.poly import (context, mono_coprime, mono_deg, parse_ideal_file,
                            parse_polynomial)
from hilbcheck.smooth import change_coordinates
from hilbcheck.tangent import (FAMILY_COBASIS, build_tangent_machine,
                               curve_multiplicity, family_machine,
                               family_syzygies, graded_tangent_dimension,
                               tangent_dimension, tangent_report)

DATA = pathlib.Path(tangent.__file__).resolve().parent / "data"


def naive_rank(rows):
    mat = [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank][c]
        mat[rank] = [x / lead for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_tangent_dimension_frozen_values():
    for d in (4, 5, 6):
        assert tangent_dimension(seven_quadrics_ideal(d)) == 8 * d - 7
    assert tangent_dimension(squares_cube_ideal()) == 21
    assert tangent_dimension(weight753_ideal()) == 24
    assert tangent_dimension(monomial_143_ideal()) == 33


def test_tangent_dimension_prime_fields():
    for p in (5, 7):
        assert tangent_dimension(seven_quadrics_ideal(4, GF(p))) == 25
        assert tangent_dimension(squares_cube_ideal(GF(p))) == 21


def test_tangent_of_points_is_n_times_d():
    rng = random.Random(14)
    for d, n in ((2, 3), (3, 4), (4, 5)):
        pts = random_points(rng.randint(0, 10 ** 9), n=n, d=d)
        ctx = context(QQ, [f"x{i+1}" for i in range(d)])
        G = points_ideal(pts, ctx)
        assert tangent_dimension(G) == n * d


def test_tangent_invariant_under_coordinate_change():
    rng = random.Random(44)
    I = weight753_ideal()
    base = tangent_dimension(I)
    for _ in range(3):
        g = random_invertible_matrix(rng.randint(0, 10 ** 9), 3)
        assert tangent_dimension(change_coordinates(I, g)) == base


def test_graded_dimensions_and_totals():
    for I, expected in ((seven_quadrics_ideal(4), {0: 21, -1: 4}),
                        (family_member_ideal(0), {0: 21, -1: 12}),
                        (family_member_ideal(1), {0: 21, -1: 4}),
                        (family_limit_ideal(), {0: 21, -1: 4}),
                        (monomial_143_ideal(), {0: 21, -1: 12})):
        graded = tangent_report(I, graded=True).graded
        assert graded == expected
        assert sum(graded.values()) == tangent_dimension(I)
    assert graded_tangent_dimension(family_member_ideal(0), -2) == 0
    assert graded_tangent_dimension(seven_quadrics_ideal(4), -1) == 4


def test_graded_totals_small_homogeneous():
    for I in (squares_cube_ideal(), salmon_ideal()):
        graded = tangent_report(I, graded=True).graded
        assert sum(graded.values()) == tangent_dimension(I)


def test_graded_requires_homogeneous():
    with pytest.raises(PreconditionError):
        graded_tangent_dimension(weight753_ideal(), 0)


def test_tangent_report():
    rep = tangent_report(seven_quadrics_ideal(4), graded=True)
    assert rep.total == 25
    assert rep.graded == {0: 21, -1: 4}


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_tangent_dimension_builds_each_power_once(monkeypatch):
    # the model builds each of its 6 variable operators once, by _working,
    # and each power above degree 1 as one product
    built = [_count_calls(monkeypatch, artin, name) for name in ("_working", "_product")]
    assert tangent_dimension(seven_quadrics_ideal(6)) == 41
    assert sum(map(len, built)) <= 8


def test_graded_blocks_are_read_off_the_model(monkeypatch):
    I = dict(graded_143_fixtures())["family-t1"]
    calls = _count_calls(monkeypatch, GroebnerBasis, "normal_form")
    operators = _count_calls(monkeypatch, LocalAlgebraModel, "working_operator")
    assert graded_tangent_dimension(I, -1) == 4
    # the d * n normal forms of the multiplication operators, and no others
    assert len(calls) <= 4 * 8
    assert operators


def test_tangent_report_shares_one_model_and_one_syzygy_basis(monkeypatch):
    models = _count_calls(monkeypatch, tangent, "multiplication_operators")
    syzygies = _count_calls(monkeypatch, tangent, "trace_syzygies")
    rep = tangent_report(seven_quadrics_ideal(4), graded=True)
    assert (rep.total, rep.graded) == (25, {0: 21, -1: 4})
    assert len(models) == 1
    assert len(syzygies) == 1


def test_tangent_checks_only_the_s_pair_relations(monkeypatch):
    # a coprime leading-term pair gives a Koszul relation, whose blocks are
    # zero, and a pair whose Schreyer leading term another pair's divides is
    # not needed: under a GL_4 change tangent builds and checks 20 of the 24
    # traces of the other pairs
    I = change_coordinates(seven_quadrics_ideal(4), random_invertible_matrix(1818, 4))
    lts = buchberger(I).lts
    pairs = sum(1 for a, b in combinations(lts, 2) if not mono_coprime(a, b))
    handed = []
    init = SyzygyBasis.__init__

    def counted(basis, generators, relations):
        relations = list(relations)
        handed.append(len(relations))
        init(basis, generators, relations)

    monkeypatch.setattr(SyzygyBasis, "__init__", counted)
    assert tangent_dimension(I) == 25
    assert (handed, pairs) == ([20], 24)


def test_no_syzygy_coefficient_has_a_zero_operator(monkeypatch):
    # Koszul relations, whose coefficients lie in I, are dropped first
    original = LocalAlgebraModel.working_operator
    results = []

    def recorded(model, f):
        results.append(original(model, f))
        return results[-1]

    monkeypatch.setattr(LocalAlgebraModel, "working_operator", recorded)
    rep = tangent_report(seven_quadrics_ideal(4), graded=True)
    assert (rep.total, rep.graded) == (25, {0: 21, -1: 4})
    assert results and all(any(map(any, rows)) for rows, _ in results)


def test_graded_degree_no_syzygy_reaches_builds_no_syzygies(monkeypatch):
    # the lcm of two quadric leading terms has degree >= 3, and S/I stops at 2
    syzygies = _count_calls(monkeypatch, tangent, "trace_syzygies")
    assert graded_tangent_dimension(seven_quadrics_ideal(4), 0) == 21
    assert not syzygies


def _changed_tangent_fixtures(field):
    """Reduced bases of the benchmark's tangent fixtures under seeded GL_d
    changes: the seven quadrics for d = 4, 5, 6, monomial-143,
    squares-cube, weight753 and the three family members."""
    rng = random.Random(2704)
    fixtures = [(f"seven-quadrics-d{d}", seven_quadrics_ideal(d, field)) for d in (4, 5, 6)]
    fixtures += [("monomial-143", monomial_143_ideal(field)),
                 ("squares-cube", squares_cube_ideal(field)),
                 ("weight753", weight753_ideal(field))]
    fixtures += [(name, I) for name, I in graded_143_fixtures(field) if name.startswith("family")]
    return [(name, buchberger(change_coordinates(
                I, random_invertible_matrix(rng.randint(0, 10 ** 9), I.ctx.d, field))))
            for name, I in fixtures]


def _bundled_bases(field):
    """Reduced bases of the bundled ideal files, read over field."""
    header = f"field F {field.p}\n" if field.modulus else "field Q\n"
    out = []
    for path in sorted(DATA.glob("*.ideal")):
        ctx, polys = parse_ideal_file(path.read_text().replace("field Q\n", header))
        out.append((path.name, buchberger(Ideal(ctx, polys))))
    return out


def _point_bases(field):
    """Reduced bases of seeded point ideals, and of their intersections with
    a local ideal of colength 3 at the origin."""
    rng = random.Random(2705)
    ctx = context(field, "x y z")
    local = Ideal(ctx, [ctx.monomial(m) for m in ((2, 0, 0), (0, 2, 0), (1, 1, 0), (0, 0, 1))])
    out = []
    for n in (3, 4, 5):
        pts = random_points(rng.randint(0, 10 ** 9), n=n, d=3, field=field)
        G = points_ideal(pts, ctx)
        out.append((f"points-{n}", G))
        if not any(all(not c for c in q) for q in pts):
            out.append((f"mixed-{n}", buchberger(intersect(Ideal(ctx, G.gens), local))))
    return out


class _EveryTraceHomSystem(tangent._HomSystem):
    """The Hom system on every S-pair trace and Koszul relation."""

    @cached_property
    def relations(self):
        return schreyer_syzygies(self.G).relations


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_pruned_hom_system_matches_every_s_pair_trace(field):
    # the traces _minimal_pairs keeps and the Koszul relations generate the
    # syzygies, so the total and every graded piece stay as they were
    pruned = 0
    for name, G in _changed_tangent_fixtures(field) + _bundled_bases(field) + \
            _point_bases(field):
        system, every = tangent._HomSystem(G), _EveryTraceHomSystem(G)
        assert system.total() == every.total(), name
        if all(g.is_homogeneous() for g in G.elements):
            top = max(mono_deg(m) for m in G.quotient_basis())
            for e in range(-max(g.degree() for g in G.elements), top + 1):
                assert system.graded(e) == every.graded(e), (name, e)
        pairs = sum(1 for a, b in combinations(G.lts, 2) if not mono_coprime(a, b))
        assert len(system.relations) <= pairs
        pruned += len(system.relations) < pairs
    assert pruned


def _field_rows(op, field):
    """The rows of field elements of the working operator op = (rows, den)."""
    rows, den = op
    if field.modulus is None:
        return rows
    return [[field.element(x, den) for x in row] for row in rows]


def _commuting_tangent_dimension(G):
    """dim{(Y_1..Y_d) : [Y_i, X_j] + [X_i, Y_j] = 0 for i < j} + n - n^2 for
    the multiplication operators X_i of S/I: the tangent space of the
    commuting matrices with a cyclic vector, modulo the free GL_n action.
    It shares no syzygy and no Hom block with tangent_dimension."""
    field = G.ctx.field
    X = [_field_rows(op, field) for op in multiplication_operators(G).ops]
    d, n = len(X), len(X[0])
    rows = []
    for i, j in combinations(range(d), 2):
        for r in range(n):
            for c in range(n):
                # the (r, c) entry of Y_i X_j - X_j Y_i + X_i Y_j - Y_j X_i
                row = {}
                for s in range(n):
                    for key, x in (((i, r, s), X[j][s][c]), ((i, s, c), -X[j][r][s]),
                                   ((j, s, c), X[i][r][s]), ((j, r, s), -X[i][s][c])):
                        if x:
                            row[key] = row.get(key, field.zero) + x
                rows.append(row)
    return d * n * n - linalg.rank(field, rows) + n - n * n


def _moved_local_bases(field):
    """Reduced bases of local ideals of colength 8 moved off the origin to
    seeded rational points: the (1,4,3) fixtures, and the (1,3,3,1) and
    (1,3,2,1,1) bundled ideals."""
    rng = random.Random(2706)
    fixtures = graded_143_fixtures(field) + [("squares", squares_ideal(field)),
                                             ("weight753", weight753_ideal(field))]
    return [(f"{name}-moved", buchberger(translate_ideal(
                I, [field.from_int(rng.randint(-5, 5)) for _ in range(I.ctx.d)])))
            for name, I in fixtures]


@pytest.mark.parametrize("field", [QQ, GF(101), GF(10007)], ids=str)
def test_tangent_dimension_matches_the_commuting_matrices(field):
    for name, G in _changed_tangent_fixtures(field) + _bundled_bases(field) + \
            _moved_local_bases(field):
        assert tangent_dimension(G) == _commuting_tangent_dimension(G), name


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_graded_pieces_sum_to_total_under_coordinate_change(field):
    rng = random.Random(719)
    for name, I in graded_143_fixtures(field):
        g = random_invertible_matrix(rng.randint(0, 10 ** 9), 4, field)
        J = change_coordinates(I, g)
        graded = tangent_report(J, graded=True).graded
        assert sum(graded.values()) == tangent_dimension(J), name
        assert graded == tangent_report(I, graded=True).graded, name


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_mat_rank_runs_no_dense_elimination(monkeypatch, field):
    # the tangent ranks come from the sparse echelon on working integers: no
    # tracked pass over the columns and no row of field elements
    # (RowSpace.add) inside the linalg.working_rank call that tangent makes
    inside, calls, dense = [False], [], []
    rank, relations, add = linalg.working_rank, linalg._column_relations, RowSpace.add

    def counted_rank(field, rows):
        calls.append(len(rows))
        inside[0] = True
        try:
            return rank(field, rows)
        finally:
            inside[0] = False

    def counted_relations(rows, field):
        if inside[0]:
            dense.append("_column_relations")
        return relations(rows, field)

    def counted_add(self, vec):
        if inside[0]:
            dense.append("RowSpace.add")
        return add(self, vec)

    monkeypatch.setattr(tangent, "working_rank", counted_rank)
    monkeypatch.setattr(linalg, "_column_relations", counted_relations)
    monkeypatch.setattr(RowSpace, "add", counted_add)
    assert tangent_dimension(seven_quadrics_ideal(5, field)) == 33
    assert calls and not dense


def test_tangent_builds_no_dense_matrix_wider_than_the_colength(monkeypatch):
    # the Hom system hands its rows to rank sparse, and the quotient model
    # holds its operators as working operators: no dense matrix at all
    widths = []
    init = DenseMatrix.__init__

    def recorded(self, field, rows):
        init(self, field, rows)
        widths.append(self.ncols)

    monkeypatch.setattr(DenseMatrix, "__init__", recorded)
    assert tangent_dimension(seven_quadrics_ideal(5)) == 33
    assert widths == []


@pytest.mark.parametrize("field", [QQ, GF(101), GF(10007)], ids=str)
def test_seven_quadrics_tangent_is_8d_minus_7_across_fields(field):
    # Q and F_p agree at good primes, under a seeded GL_d change
    rng = random.Random(1003)
    for d in (4, 5, 6):
        g = random_invertible_matrix(rng.randint(0, 10 ** 9), d, field)
        J = change_coordinates(seven_quadrics_ideal(d, field), g)
        assert tangent_dimension(J) == 8 * d - 7, d


def test_machine_psi_rank_against_naive_oracle():
    m = build_tangent_machine(family_member_ideal(1))
    assert m.psi.nrows == 24 and m.psi.ncols == 28
    assert naive_rank(m.psi.rows) == 24
    assert m.rank_psi == 24
    assert m.dim_hom_minus1 == 4
    assert not m.singular
    assert determinant(m.hbar)
    assert m.cobasis == [mono for mono in m.cobasis]   # deterministic order


def test_machine_on_limit_member_is_smooth():
    m = build_tangent_machine(family_limit_ideal())
    assert determinant(m.hbar)
    assert m.dim_hom_minus1 == 4
    assert not m.singular


def test_machine_default_cobasis_matches_family_choice():
    m = build_tangent_machine(family_member_ideal(1))
    assert set(m.cobasis) == set(FAMILY_COBASIS)


def test_machine_detects_divisor_points():
    for I in (monomial_143_ideal(), salmon_ideal()):
        m = build_tangent_machine(I)
        assert m.singular
        assert m.corank_hbar >= 8
        assert len(kernel_basis(m.hbar)) >= 8
        assert m.dim_hom_minus1 >= 5


def test_machine_requires_degree_two_generation():
    # seven quadrics whose products with the variables miss four cubics, so
    # the (1,4,3) ideal they span needs cubic generators
    ctx = context(QQ, "x1 x2 x3 x4")
    from hilbcheck.poly import parse_polynomial
    quads = ["x1^2", "x1*x2", "x1*x3", "x1*x4", "x2^2", "x2*x3", "x2*x4"]
    cubics = ["x3^3", "x3^2*x4", "x3*x4^2", "x4^3"]
    bad = Ideal(ctx, [parse_polynomial(s, ctx) for s in quads + cubics])
    from hilbcheck.artin import local_hilbert_function
    assert tuple(local_hilbert_function(bad)) == (1, 4, 3)
    with pytest.raises(PreconditionError) as err:
        build_tangent_machine(bad)
    assert "cubic" in str(err.value)
    with pytest.raises(PreconditionError):
        build_tangent_machine(squares_cube_ideal())


def test_family_syzygies_annihilate_and_span():
    rels = family_syzygies()          # the constructor verifies annihilation
    assert len(rels.relations) == 8
    rels1 = family_syzygies(tval=1)
    assert len(rels1.relations) == 8


def test_family_specialization_t1_full_rank():
    m = family_machine(tval=1)
    assert m.rank_psi == 24
    assert mat_rank(m.psi) == 24


def test_curve_multiplicity_sixteen():
    rep = curve_multiplicity()
    assert rep.valuation == 16
    assert rep.sampled_valuation == 16
    assert rep.sampled_gcd == (0,) * 16 + (rep.sampled_gcd[16],)
    assert rep.rank_at_one == 24
    assert rep.syzygy_dimension == 8


def test_curve_multiplicity_never_eliminates_psi_whole(monkeypatch):
    # the sample's pivot columns and every drawn minor are read off psi's
    # peeled core, and the sample stops at t^16: 90 of the request's 93
    # tracked column passes are the sample's, none of psi whole.  Q(t) runs
    # no gcd against a constant and the relations are ranked at a point, so
    # the request makes 19 gcds, not 567.
    whole, gcds = [], []
    relations, zgcd = linalg._column_relations, upoly.zgcd

    def counted_relations(rows, field):
        whole.append(len(rows) == 24)
        return relations(rows, field)

    def counted_zgcd(a, b):
        gcds.append(1)
        return zgcd(a, b)

    monkeypatch.setattr(linalg, "_column_relations", counted_relations)
    monkeypatch.setattr(linalg, "zgcd", counted_zgcd)
    monkeypatch.setattr(upoly, "zgcd", counted_zgcd)
    assert curve_multiplicity().sampled_valuation == 16
    assert len(whole) == 93 and sum(whole) == 0
    assert len(gcds) <= 200


def test_curve_multiplicity_checks_each_family_relation_once(monkeypatch):
    # the quadrics and relations come from the one family machine, so the
    # SyzygyBasis annihilation check runs once over Q(t) and once at t = 1
    checked = []
    syzygies = tangent.family_syzygies

    def counted(tval=None):
        checked.append(tval)
        return syzygies(tval)

    monkeypatch.setattr(tangent, "family_syzygies", counted)
    assert curve_multiplicity().valuation == 16
    assert checked == [None, 1]


def test_curve_degenerate_quadric_gives_infinite_valuation():
    from hilbcheck.linalg import DenseMatrix, t_adic_minor_valuation
    psi = family_machine().psi
    rows = [row[:] for row in psi.rows]
    for r in rows:
        for c in range(24, 28):
            r[c] = QT.zero
    z = DenseMatrix(QT, rows)
    assert t_adic_minor_valuation(z) is None


def test_family_machine_evaluates_det_hbar_only_on_request(monkeypatch):
    # the machine holds hbar and takes no determinant; det hbar is the caller's
    def refuse(m):
        raise AssertionError("determinant evaluated")

    monkeypatch.setattr(linalg, "determinant", refuse)
    assert not hasattr(tangent, "determinant")
    assert family_machine().rank_psi == 24
    m = family_machine(tval=1)
    monkeypatch.undo()
    assert determinant(m.hbar)


def test_family_machine_reduces_each_quadratic_monomial_once(monkeypatch):
    # psi is assembled by linearity from the cobasis coordinates of the 10
    # quadratic monomials, not from one reduction per entry
    calls = []
    add = RowSpace.add
    monkeypatch.setattr(RowSpace, "add", lambda self, v: calls.append(1) or add(self, v))
    family_machine()
    assert len(calls) <= 100


def test_hom_system_makes_no_fraction_once_model_and_relations_exist(monkeypatch):
    # the blocks, rows and ranks of the Hom system stay in working integers
    import fractions
    from hilbcheck import scalars
    if scalars.RAT_BACKEND != "fractions":
        pytest.skip("counts Fraction objects of the fractions backend")
    J = change_coordinates(seven_quadrics_ideal(4), random_invertible_matrix(1818, 4, QQ))
    system = tangent._HomSystem(buchberger(J))
    system.model, system.relations
    made = []
    new = fractions.Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counted)
    assert (system.total(), system.graded(-1)) == (25, 4)
    assert not made


def test_tangent_dimensions_over_the_function_field():
    ctx = context(QT, "x y")
    P = lambda *texts: Ideal(ctx, [parse_polynomial(s, ctx) for s in texts])
    assert tangent_dimension(P("x^2 - t", "y^2 - 4")) == 8
    I = P("x^2", "x*y", "y^3")
    assert tangent_dimension(I) == 8
    assert graded_tangent_dimension(I, -1) == 4
