"""Buchberger engine, quotient bases, syzygies, ideal arithmetic, and the
vanishing-ideal-of-points algorithm.

All computations are deterministic: fixed S-pair selection, fixed tie
breaking, sorted reduced output.  Normal forms, initial ideals, ideal
intersection and equality, Schreyer syzygies from S-pair reduction traces,
and the evaluation-matrix construction of ideals of finite point sets all
live here.

Buchberger, division and the Schreyer traces run on dicts of working
coefficients, in the integer format of `fields` over Q and F_p and on field
elements over Q(t).  Their terms are keyed by the monomial order's
coordinates (`MonomialOrder.key`), which sort as the order and are linear in
the exponents: the leading term is max() with no key function, a shifted
term is a sum of coordinates and a quotient a difference, and divisibility
is a comparison with the divisor's bound.

Over Q each polynomial is a primitive integer polynomial, standing for its
rational multiples, and a reduction step multiplies the dividend rather than
dividing by the divisor's leading coefficient, then removes the content
(pseudo-division, as Singular's std does over Q).  A reduced basis is made
monic once, at the end.
"""

import heapq
from math import gcd, lcm
from operator import add, itemgetter, sub

from .errors import PreconditionError, InfiniteColengthError
from .linalg import DenseMatrix, RowSpace, determinant, kernel_basis, rank
from .poly import (GREVLEX, Polynomial, VariableContext, mono_coprime,
                   mono_deg, mono_divides, mono_lcm, weight_order)


class Ideal:
    __slots__ = ("ctx", "gens")

    def __init__(self, ctx, gens):
        self.ctx = ctx
        self.gens = tuple(g for g in gens if g)
        for g in self.gens:
            if g.ctx != ctx:
                raise PreconditionError("generator from a different context")

    def __repr__(self):
        return "<" + ", ".join(map(str, self.gens)) + ">"


class QuotientBasis:
    """Standard monomials of a leading-term ideal: an order ideal of monomials."""

    __slots__ = ("monomials", "index")

    def __init__(self, monomials):
        self.monomials = tuple(monomials)
        self.index = {m: i for i, m in enumerate(self.monomials)}

    def __len__(self):
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def __contains__(self, m):
        return m in self.index


class GroebnerBasis(Ideal):
    """Reduced Groebner basis: monic, auto-reduced, deterministically sorted.

    It is built from the division records of its elements (see _record), in
    the basis order.  As an Ideal its generators are the reduced basis, the
    monic polynomials of the records, so every function that takes an ideal
    takes a basis, and buchberger returns it unchanged.
    """

    __slots__ = ("order", "lts", "_records", "_first", "_qb")

    def __init__(self, ctx, order, records):
        super().__init__(ctx, [_monic(ctx, order, r) for r in records])
        self.order = order
        self._records = records
        self._first = {}    # the first-divisor table of _divide
        self.lts = tuple(order.monomial(r[0]) for r in records)
        self._qb = None

    @property
    def elements(self):
        return self.gens

    def normal_form(self, f):
        if f.ctx != self.ctx:
            raise PreconditionError("polynomial from a different context")
        field = self.ctx.field
        order = self.order
        work, (num, den) = _working_terms(f, order)
        rem, _, (lam_num, lam_den) = _divide(work, self._records, order, field,
                                             first=self._first)
        return Polynomial(self.ctx, _field_terms(rem, order, field, num * lam_den, den * lam_num))

    def quotient_basis(self):
        if self._qb is None:
            self._qb = _standard_monomials(self)
        return self._qb

    def colength(self, limit=None):
        """dim S/I; with a limit, counting stops there, so limit means at
        least limit.  Only a complete enumeration is kept."""
        if self._qb is not None or limit is None:
            return len(self.quotient_basis())
        qb = _standard_monomials(self, limit)
        if len(qb) < limit:
            self._qb = qb
        return len(qb)

    def __repr__(self):
        return f"GB[{self.order}](" + ", ".join(map(str, self.gens)) + ")"


# --- working coefficients ---------------------------------------------------
#
# Inside the Groebner loops a polynomial is a dict {coordinates: coefficient}:
# each monomial is keyed by its coordinates in the monomial order (see
# MonomialOrder), so max() picks the leading term, a product of monomials is
# a sum of coordinates and a quotient a difference.  The coefficients are
# the working coefficients of its field (see the module docstring): the
# integers of `Field.integers` over Q and F_p, field elements over Q(t).  A
# divisor is primitive with a positive leading coefficient over Q and monic
# otherwise.  Terms enter through _working_terms and leave through
# _field_terms, _monic and the quotients of _schreyer_relations.


def _working_terms(f, order=None):
    """The terms of a polynomial in working coefficients, primitive over Q,
    keyed by the order's coordinates or, with no order, by monomial; and
    (num, den) with f = num/den times them.  Over the fields that factor
    is 1."""
    terms = f.terms
    monos = terms if order is None else map(order.key, terms)
    field = f.ctx.field
    if field.modulus is None:
        return dict(zip(monos, terms.values())), (1, 1)
    ints, den = field.integers(terms.values())
    if field.modulus == 0 and ints:
        num = gcd(*ints)
        return {m: c // num for m, c in zip(monos, ints)}, (num, den)
    return dict(zip(monos, ints)), (1, 1)


def _field_terms(terms, order, field, num, den):
    """num/den times working terms keyed by the order's coordinates, as field
    elements keyed by monomial; over the fields the factor is 1."""
    monomial = order.monomial
    if field.modulus is None:
        return {monomial(k): c for k, c in terms.items()}
    element = field.element
    return {monomial(k): element(c * num, den) for k, c in terms.items()}


def _record(terms, order, field):
    """(lm, bound, lc, tail) of the normalized multiple of nonzero working
    terms: primitive with a positive leading coefficient over Q, monic over
    the fields.  lm is the leading coordinates, bound its divisor_bound and
    the tail the list of the other (coordinates, coefficient) pairs: what
    _divide reads of a divisor."""
    lm = max(terms)
    lc = terms[lm]
    p = field.modulus
    if p == 0:
        g = gcd(*terms.values())
        if lc < 0:
            g = -g
        if g != 1:
            terms = {m: c // g for m, c in terms.items()}
    elif p:
        if lc != 1:
            inv = pow(lc, -1, p)
            terms = {m: c * inv % p for m, c in terms.items()}
    elif lc != field.one:
        terms = {m: c / lc for m, c in terms.items()}
    return lm, order.divisor_bound(lm), terms[lm], [(m, c) for m, c in terms.items() if m != lm]


def _division_record(g, order):
    """The _record of a nonzero polynomial."""
    return _record(_working_terms(g, order)[0], order, g.ctx.field)


def _monic(ctx, order, record):
    """The monic polynomial of a record."""
    lm, _, lc, tail = record
    terms = {lm: lc}
    terms.update(tail)
    return Polynomial(ctx, _field_terms(terms, order, ctx.field, 1, lc))


def _subtract(work, b, mq, tail, p):
    """work -= b * x^mq * tail, in place, reducing mod p over F_p.  Terms are
    keyed by monomial or by coordinates, both of which add in a product."""
    for mm, cc in tail:
        mt = tuple(map(add, mm, mq))
        s = work.get(mt)
        s = -(b * cc) if s is None else s - b * cc
        if p:
            s %= p
        if s:
            work[mt] = s
        elif mt in work:
            del work[mt]


def _spoly(ri, rj, top, field):
    """The S-polynomial of the records ri and rj, top being the coordinates
    of the lcm of their leading monomials: (terms, lam) with terms lam times
    mi g_i - mj g_j for the monic g_i, g_j.  lam is an integer over Q and 1
    over the fields."""
    (li, _, ci, ti), (lj, _, cj, tj) = ri, rj
    p = field.modulus
    if p == 0:
        g = gcd(ci, cj)
        a, b = cj // g, ci // g
    else:
        a = b = field.one if p is None else 1
    mi = tuple(map(sub, top, li))
    work = {tuple(map(add, m, mi)): a * c for m, c in ti}
    _subtract(work, b, tuple(map(sub, top, lj)), tj, p)
    return work, a * ci if p == 0 else 1


def _divide(work, records, order, field, track=False, scale=1, first=None):
    """Multivariate division of working terms, consumed, by the divisors
    whose records are given, in that order.

    The leading work term is reduced by the first divisor whose leading
    monomial divides it, or moved to the remainder.  Its cancellation is
    exact, so it is popped rather than subtracted.  Over Q a step is
    v <- a v - b x^mq w with a, b the leading coefficients of w and v divided
    by their gcd, as in linalg.RowSpace; a step with a != 1 scales the
    remainder too, and then removes the content of work and remainder
    together.  Over the fields the divisor is monic and a is 1.

    first is the first-divisor table of these records, a dict that divisions
    by the same records, or by the same list grown at its end, share: it maps
    the coordinates of a term seen before to the index of its first divisor,
    or to ~n when none of the first n records divides it, so that only the
    records appended since are scanned again.  Without it the records are
    scanned for every term.

    work stands for scale times a polynomial f, and the result is (rem,
    quots, (num, den)): f = sum q_k g_k + den/num rem with g_k the monic
    divisors.  With track the quotients q_k are dicts of field elements,
    else quots is None.  Every term, of work, rem and the quotients, is
    keyed by the order's coordinates.
    """
    p = field.modulus
    element = field.element
    within = order.within
    rem = {}
    quots = [{} for _ in records] if track else None
    num, den = scale, 1
    if first is None:
        first = {}
    while work:
        m = max(work)
        c = work.pop(m)
        i = first.get(m, -1)
        if i < 0:
            for i in range(~i, len(records)):
                if all(map(within, m, records[i][1])):
                    break
            else:
                i = ~len(records)
            first[m] = i
            if i < 0:
                rem[m] = c
                continue
        lm, _, lc, tail = records[i]
        mq = tuple(map(sub, m, lm))
        if track:
            quots[i][mq] = c if p is None else element(c * den, num)
        a = 1
        if p == 0 and lc != 1:
            g = gcd(c, lc)
            a, c = lc // g, c // g
            if a != 1:
                num *= a
                for part in (work, rem):
                    for mm in part:
                        part[mm] *= a
        _subtract(work, c, mq, tail, p)
        if a != 1:
            content = gcd(*work.values(), *rem.values())
            if content > 1:
                den *= content
                for part in (work, rem):
                    for mm in part:
                        part[mm] //= content
    return rem, quots, (num, den)


def buchberger(ideal, order=GREVLEX):
    """Reduced Groebner basis of an ideal; deterministic for fixed input.

    A reduced basis is unique, so a GroebnerBasis in this order is returned
    as it is.  The basis is built in working coefficients and made monic
    once, at the end.
    """
    if isinstance(ideal, GroebnerBasis) and ideal.order == order:
        return ideal
    if not order.is_global(ideal.ctx.d):
        raise PreconditionError(f"{order} is not a global monomial order")
    return _complete(ideal.ctx, order, _input_records(ideal, order))


def _input_records(ideal, order):
    """The division records of the generators of an ideal, without repeats,
    sorted by leading monomial: where a Buchberger run starts."""
    records = []
    seen = set()
    for g in ideal.gens:
        if g:
            r = _division_record(g, order)
            kk = (r[0], r[2], frozenset(r[3]))
            if kk not in seen:
                seen.add(kk)
                records.append(r)
    records.sort(key=itemgetter(0))
    return records


def _complete(ctx, order, records):
    """The reduced basis of the ideal of the records of `_input_records`:
    Buchberger's S-pair loop, then `_reduce_basis`.  The list is not
    changed."""
    field = ctx.field
    records = list(records)
    lts = [order.monomial(r[0]) for r in records]
    heap = []
    done = set()
    first = {}      # records only grow, so one table serves every division

    def push_pairs(j):
        for i in range(j):
            lcm = mono_lcm(lts[i], lts[j])
            heapq.heappush(heap, (mono_deg(lcm), i, j))

    for j in range(len(records)):
        push_pairs(j)
    while heap:
        _, i, j = heapq.heappop(heap)
        if (i, j) in done:
            continue
        done.add((i, j))
        li, lj = lts[i], lts[j]
        if mono_coprime(li, lj):
            continue
        lcm = mono_lcm(li, lj)
        if _chain_criterion(i, j, lcm, lts, done):
            continue
        spoly, _ = _spoly(records[i], records[j], order.key(lcm), field)
        rem, _, _ = _divide(spoly, records, order, field, first=first)
        if rem:
            records.append(_record(rem, order, field))
            lts.append(order.monomial(records[-1][0]))
            push_pairs(len(records) - 1)
    return GroebnerBasis(ctx, order, _reduce_basis(records, order, field))


def _reduced_candidate(ctx, order, records):
    """The GroebnerBasis of the records of `_input_records` when they have
    the shape of a reduced basis, else None: no leading monomial divides
    another and no tail monomial is divisible by a leading monomial.  The
    shape alone does not make a basis; see `artin.quotient_model`.  Tails
    are put in decreasing order, as `_reduce_basis` leaves them."""
    within = order.within
    bounds = [r[1] for r in records]
    for lm, _, _, tail in records:
        if sum(all(map(within, lm, b)) for b in bounds) > 1 or \
                any(all(map(within, m, b)) for m, _ in tail for b in bounds):
            return None
    return GroebnerBasis(ctx, order, [(lm, bound, lc, sorted(tail, key=itemgetter(0),
                                                             reverse=True))
                                      for lm, bound, lc, tail in records])


def _chain_criterion(i, j, lcm, lts, done):
    for k in range(len(lts)):
        if k in (i, j) or not mono_divides(lts[k], lcm):
            continue
        p1 = (min(i, k), max(i, k))
        p2 = (min(j, k), max(j, k))
        if p1 in done and p2 in done:
            return True
    return False


def _reduce_basis(records, order, field):
    """The records of the reduced basis from the records of a Groebner
    basis."""
    # minimalize leading terms, then inter-reduce tails.  In increasing order
    # of leading terms no kept one can be a multiple of a later one.
    # Reduction keeps every leading term, so one pass leaves every tail
    # reduced and the result in that order.
    within = order.within
    kept = []
    for r in sorted(records, key=itemgetter(0)):
        if not any(all(map(within, r[0], h[1])) for h in kept):
            kept.append(r)
    for i, (lm, _, lc, tail) in enumerate(kept):
        work = {lm: lc}
        work.update(tail)
        rem, _, _ = _divide(work, kept[:i] + kept[i + 1:], order, field)
        # later divisions see the new element
        kept[i] = _record(rem, order, field)
    return kept


def _standard_monomials(G, limit=None):
    """Standard monomials in increasing order; only the first limit of them
    when a limit is given."""
    ctx, order, lts = G.ctx, G.order, G.lts
    d = ctx.d
    zero = (0,) * d
    if any(lt == zero for lt in lts):
        return QuotientBasis([])
    for i in range(d):
        if not any(all(e == 0 for k, e in enumerate(lt) if k != i) and lt[i] > 0
                   for lt in lts):
            raise InfiniteColengthError(
                f"no power of {ctx.names[i]} among leading terms: infinite colength")
    out = []
    seen = {zero}
    heap = [(order.key(zero), zero)]
    while heap:
        _, m = heapq.heappop(heap)
        if any(mono_divides(lt, m) for lt in lts):
            continue
        out.append(m)
        if len(out) == limit:
            break
        for i in range(d):
            mm = list(m)
            mm[i] += 1
            mm = tuple(mm)
            if mm not in seen:
                seen.add(mm)
                heapq.heappush(heap, (order.key(mm), mm))
    return QuotientBasis(out)


def ideal_equal(I, J):
    """Exact equality of ideals: identical reduced grevlex bases."""
    if I.ctx != J.ctx:
        raise PreconditionError("ideals from different contexts")
    GI = buchberger(I, GREVLEX)
    GJ = buchberger(J, GREVLEX)
    return GI.gens == GJ.gens


def intersect(I, J):
    """Intersection of two ideals: eliminate u from u*I + (1-u)*J."""
    if I.ctx != J.ctx:
        raise PreconditionError("ideals from different contexts")
    ctx = I.ctx
    aux = "_u"
    while aux in ctx.names:
        aux = "_" + aux
    ext = VariableContext(ctx.field, (aux,) + ctx.names, dual=ctx.dual)
    u = ext.variable(0)
    one = ext.one()

    def lift(p):
        return Polynomial(ext, {(0,) + m: c for m, c in p.terms.items()})

    gens = [u * lift(f) for f in I.gens] + [(one - u) * lift(g) for g in J.gens]
    elim = weight_order((1,) + (0,) * ctx.d)
    G = buchberger(Ideal(ext, gens), elim)
    out = []
    for g in G.gens:
        if all(m[0] == 0 for m in g.terms):
            out.append(Polynomial(ctx, {m[1:]: c for m, c in g.terms.items()}))
    return Ideal(ctx, out)


def initial_ideal(I, w):
    """Ideal of w-initial forms.

    Nonnegative w: the initial forms of the reduced basis under the w-refined
    order, which are the reduced basis of in_w(I) in that order (Sturmfels,
    Groebner Bases and Convex Polytopes, Prop. 1.8); equal weights refine to
    grevlex itself.  Mixed or negative w: only for ideals containing a power
    of the maximal ideal.  With s the largest degree of a monomial outside I,
    m^(s+1) lies in I, so in_w(I) = <in_w(I cap S_<=s)> + m^(s+1); I cap
    S_<=s is the kernel of the normal-form map on the monomials of degree at
    most s, read off one degree at a time.
    """
    w = tuple(w)
    if len(w) != I.ctx.d:
        raise PreconditionError("weight length must match the variable count")
    if all(wi >= 0 for wi in w):
        order = GREVLEX if len(set(w)) == 1 else weight_order(w)
        G = buchberger(I, order)
        forms = [g.weight_initial_form(w) for g in G.gens]
        return GroebnerBasis(I.ctx, order, [_division_record(f, order) for f in forms])
    return _initial_ideal_truncated(I, w)


def _initial_ideal_truncated(I, w):
    ctx = I.ctx
    G = buchberger(I, GREVLEX)
    n = G.colength()
    # normal forms of the monomials of degree <= s; the loop stops at the
    # first degree s + 1 whose monomials, the generators of m^(s+1), all
    # reduce to 0
    nf = {}
    for j in range(n + 1):
        top = list(_monomials_of_degree(ctx.d, j))
        forms = [G.normal_form(ctx.monomial(m)) for m in top]
        if not any(forms):
            break
        nf.update(zip(top, forms))
    else:
        raise PreconditionError(
            "negative weights need an ideal containing a power of the maximal ideal")
    # columns ascending in the w-refined order: each kernel vector ends at
    # its leading monomial, so the leading monomials are distinct and the
    # initial forms of the kernel basis span those of the whole kernel
    cols = sorted(nf, key=weight_order(w).key)
    index = G.quotient_basis().index
    rows = [[ctx.field.zero] * len(cols) for _ in index]
    for c, m in enumerate(cols):
        for mm, x in nf[m].terms.items():
            rows[index[mm]][c] = x
    gens = [Polynomial(ctx, {cols[c]: x for c, x in enumerate(v) if x}).weight_initial_form(w)
            for v in kernel_basis(DenseMatrix(ctx.field, rows))]
    gens += [ctx.monomial(m) for m in top]
    # a monomial generator that another one divides is redundant; by degree,
    # a monomial is kept when no kept monomial divides it
    kept = []
    for m in sorted((next(iter(g.terms)) for g in gens if len(g.terms) == 1), key=mono_deg):
        if not any(mono_divides(k, m) for k in kept):
            kept.append(m)
    kept = set(kept)
    return Ideal(ctx, [g for g in gens if len(g.terms) > 1 or next(iter(g.terms)) in kept])


def _monomials_of_degree(d, j):
    if d == 1:
        yield (j,)
        return
    for e in range(j + 1):
        for rest in _monomials_of_degree(d - 1, j - e):
            yield (e,) + rest


class SyzygyBasis:
    """Relations among a fixed list of polynomials: each relation is a cofactor
    vector r with sum_i r[i] * g[i] == 0 exactly."""

    __slots__ = ("generators", "relations")

    def __init__(self, generators, relations):
        self.generators = tuple(generators)
        self.relations = tuple(tuple(r) for r in relations)
        if not self.relations:
            return
        p = self.generators[0].ctx.field.modulus
        gens = [(list(t.items()), scale) for t, scale in map(_working_terms, self.generators)]
        for rel in self.relations:
            if _combination(rel, gens, p):
                raise ArithmeticError("syzygy does not annihilate the generators")

    def __len__(self):
        return len(self.relations)

    def __iter__(self):
        return iter(self.relations)


def _combination(rel, gens, p):
    """sum_k rel[k] g_k times a nonzero constant, in working coefficients:
    empty exactly when the sum is zero.  Each g_k is given as its working
    terms, as a list, and their scale; over Q the denominators are
    cleared."""
    parts = []
    for r, (g, (gnum, gden)) in zip(rel, gens):
        if r:
            t, (num, den) = _working_terms(r)
            parts.append((t, g, num * gnum, den * gden))
    common = lcm(*(den for *_, den in parts))
    acc = {}
    for t, g, num, den in parts:
        w = num * (common // den)
        for m, c in t.items():
            _subtract(acc, c * w if w != 1 else c, m, g, p)
    return acc


def schreyer_syzygies(G):
    """Generators of the syzygy module of a reduced basis, from S-pair traces.

    Coprime leading-term pairs contribute their Koszul relations, which is
    what the S-pair trace reduces to in that case; every other pair records
    its division trace.
    """
    return SyzygyBasis(G.gens, _schreyer_relations(G, koszul=True))


def trace_syzygies(G):
    """The S-pair traces of schreyer_syzygies, in its order, that together
    with the Koszul relations of the coprime pairs still generate the
    syzygy module: those of the pairs that `_minimal_pairs` keeps, coprime
    pairs not built."""
    return SyzygyBasis(G.gens, _schreyer_relations(G, koszul=False))


def _minimal_pairs(lts):
    """The pairs i < j of leading terms whose Schreyer leading term is a
    minimal generator of the initial syzygy module.

    The trace of pair (i, j), and its Koszul relation when the pair is
    coprime, has leading term m_ij e_i, m_ij = lcm(lt_i, lt_j) / lt_i, in
    Schreyer's order (ties to the smaller index), and these relations are a
    Groebner basis of the syzygies (Schreyer's theorem; Eisenbud,
    Commutative Algebra, Thm 15.10).  So the pairs whose m_ij is a minimal
    generator of <m_ik : k > i> keep that leading-term module and still
    generate (Gebauer and Moeller, JSC 6, 1988).  A pair is dropped when
    another m_ik divides m_ij, an equal one only for k < j.
    """
    keep = set()
    for i, li in enumerate(lts):
        ms = {k: tuple(map(sub, mono_lcm(li, lk), li)) for k, lk in enumerate(lts) if k > i}
        for j, mij in ms.items():
            if not any(k != j and mono_divides(mik, mij) and (k < j or mik != mij)
                       for k, mik in ms.items()):
                keep.add((i, j))
    return keep


def _schreyer_relations(G, koszul):
    """The relations of the pairs i < j of a reduced basis, by j and then i:
    with koszul the trace of each S-pair and the Koszul relation of each
    coprime pair, without it the traces of the non-coprime pairs that
    `_minimal_pairs` keeps."""
    ctx, order, field = G.ctx, G.order, G.ctx.field
    basis, records, lts = G.gens, G._records, G.lts
    one = field.one
    minus_one = -one
    monomial = order.monomial
    keep = None if koszul else _minimal_pairs(lts)
    rels = []
    for j in range(len(basis)):
        for i in range(j):
            li, lj = lts[i], lts[j]
            if mono_coprime(li, lj):
                if koszul:
                    rel = [ctx.zero()] * len(basis)
                    rel[i] = basis[j]
                    rel[j] = -basis[i]
                    rels.append(rel)
                continue
            if keep is not None and (i, j) not in keep:
                continue
            # divide mj g_j - mi g_i, so that the quotients are the
            # relation's coefficients
            top = order.key(mono_lcm(li, lj))
            spoly, lam = _spoly(records[j], records[i], top, field)
            rem, quots, _ = _divide(spoly, records, order, field, track=True, scale=lam,
                                    first=G._first)
            if rem:
                raise ArithmeticError("S-polynomial of a Groebner basis did not reduce to zero")
            quots[i][tuple(map(sub, top, records[i][0]))] = one
            quots[j][tuple(map(sub, top, records[j][0]))] = minus_one
            rels.append([Polynomial(ctx, {monomial(k): c for k, c in q.items()})
                         for q in quots])
    return rels


def linear_syzygies(quadrics, ctx):
    """Linear-form relations among 7 independent quadrics in 4 variables.

    The kernel of the 28-dimensional multiplication map into the cubics; its
    dimension is 8 exactly when the quadrics span a 7-dimensional space whose
    ideal needs no cubic generators.
    """
    if ctx.d != 4:
        raise PreconditionError("linear syzygies are computed in 4 variables")
    if len(quadrics) != 7:
        raise PreconditionError("need exactly 7 quadrics")
    for q in quadrics:
        if not q or not q.is_homogeneous() or q.degree() != 2:
            raise PreconditionError("generators must be nonzero homogeneous quadrics")
    field = ctx.field
    if rank(field, [q.terms for q in quadrics]) != 7:
        raise PreconditionError("quadrics are linearly dependent")
    deg3 = list(_monomials_of_degree(4, 3))
    row_of = {m: i for i, m in enumerate(deg3)}
    cols = []
    for q in quadrics:
        for j in range(4):
            e = [0, 0, 0, 0]
            e[j] = 1
            prod = q.mul_term(tuple(e), field.one)
            col = [field.zero] * len(deg3)
            for m, c in prod.terms.items():
                col[row_of[m]] = c
            cols.append(col)
    mat = DenseMatrix(field, [[cols[c][r] for c in range(28)] for r in range(len(deg3))])
    ker = kernel_basis(mat)
    if 28 - len(ker) != 20:
        raise PreconditionError(
            "quadrics do not span all cubics: Hilbert function is not (1,4,3) "
            "or a cubic generator is needed")
    rels = []
    xs = ctx.variables()
    for v in ker:
        rel = []
        for i in range(7):
            l = ctx.zero()
            for j in range(4):
                c = v[4 * i + j]
                if c:
                    l = l + xs[j].scale(c)
            rel.append(l)
        rels.append(rel)
    return SyzygyBasis(quadrics, rels)


def cyclic_annihilator_gb(ctx, apply_var, start):
    """Reduced grevlex basis of the annihilator of a cyclic vector under
    commuting variable actions.

    apply_var(i, vec) is multiplication by the i-th variable.  Monomials are
    scanned in increasing order; a linear dependence of x^m * start on the
    smaller standard monomials yields a reduced basis element with leading
    term x^m.
    """
    field = ctx.field
    rs = RowSpace(field, track=True)
    lam = []
    lam_slot = {}   # insertion index in rs -> position in lam
    gb = []
    lts = []
    zero = (0,) * ctx.d
    heap = [(GREVLEX.key(zero), zero)]
    seen = {zero}
    pending = {zero: list(start)}
    while heap:
        _, m = heapq.heappop(heap)
        vec = pending.pop(m)
        if any(mono_divides(lt, m) for lt in lts):
            continue
        combo = rs.add(vec)
        if combo is None:
            lam_slot[rs.count - 1] = len(lam)
            lam.append(m)
            for i in range(ctx.d):
                mm = list(m)
                mm[i] += 1
                mm = tuple(mm)
                if mm not in seen:
                    seen.add(mm)
                    heapq.heappush(heap, (GREVLEX.key(mm), mm))
                    pending[mm] = apply_var(i, vec)
        else:
            terms = {m: field.one}
            for idx, c in combo.items():
                if c:
                    terms[lam[lam_slot[idx]]] = -c
            gb.append(_division_record(Polynomial(ctx, terms), GREVLEX))
            lts.append(m)
    gb.sort(key=itemgetter(0))
    G = GroebnerBasis(ctx, GREVLEX, gb)
    G._qb = QuotientBasis(lam)
    return G


def points_ideal(points, ctx):
    """Reduced grevlex basis of the vanishing ideal of distinct points
    (evaluation matrix elimination, one monomial at a time in increasing
    order)."""
    field = ctx.field
    pts = [tuple(field.from_int(c) if isinstance(c, int) else c for c in q) for q in points]
    for q in pts:
        if len(q) != ctx.d:
            raise PreconditionError("point dimension does not match the context")
    if len({tuple(map(repr, q)) for q in pts}) != len(pts):
        raise PreconditionError("points must be pairwise distinct")
    n = len(pts)

    def apply_var(i, vec):
        return [v * q[i] for v, q in zip(vec, pts)]

    G = cyclic_annihilator_gb(ctx, apply_var, [field.one] * n)
    if len(G.quotient_basis()) != n:
        raise ArithmeticError("evaluation matrix did not reach full rank")
    return G


def delta_ratio(points, lam, m, m_prime, ctx):
    """Ratio of evaluation-matrix determinants giving a chart coordinate.

    lam is an ordered list of monomials whose evaluation matrix at the points
    is invertible; the numerator replaces m_prime by m in place.
    """
    field = ctx.field
    monos = list(lam)
    if m_prime not in monos:
        raise PreconditionError("m_prime must be one of the basis monomials")
    if m in monos:
        raise PreconditionError("m must lie outside the basis monomials")
    pts = [tuple(field.from_int(c) if isinstance(c, int) else c for c in q) for q in points]
    if len(pts) != len(monos):
        raise PreconditionError("need as many points as basis monomials")
    base = DenseMatrix(field, [[ctx.monomial(mi).evaluate(q) for q in pts] for mi in monos])
    d0 = determinant(base)
    if not d0:
        raise PreconditionError("points lie outside this chart (denominator vanishes)")
    replaced = [m if mi == m_prime else mi for mi in monos]
    num = DenseMatrix(field, [[ctx.monomial(mi).evaluate(q) for q in pts] for mi in replaced])
    return determinant(num) / d0
