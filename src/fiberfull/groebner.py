"""Division algorithm, Buchberger's algorithm for submodules of graded free
modules, Schreyer syzygies, kernels, colon/saturation/elimination, initial
modules, square-free testing, weight-order homogenization and weight-vector
recovery.

The engine works on "term vectors": lists of ``(key, (monomial, component),
coefficient)`` sorted descending under the active module order.  Keys are
precomputed order keys, so merging and comparisons never re-derive them;
multiplying a term vector by a term adds the order's shift vector to its keys.
A marked element is a monic term vector: its first term is its lead, with
coefficient one.  Term vectors stay inside this module; public entry points
convert to and from :class:`PolyVector`, and the Schreyer frame leaves it as
sparse rows of polynomials.

Division looks up divisors in a "lead index": the basis positions grouped by
the component of their leading term, in basis order within each group.  A
term can only be divided by a lead in its own component, so a scan of that
group finds the same first divisor as a scan of the whole basis.
"""

import heapq
from itertools import combinations_with_replacement
from operator import add, mul, sub

from .errors import InvalidArgumentError, OrderMismatchError, WeightVectorMismatchError
from .modules import GradedFreeModule, PolyVector, SubmodulePresentation
from .orders import BlockTOPOrder, SchreyerOrder, TermOrder, TOPOrder
from .rings import Polynomial, mon_div, mon_divides, mon_gcd, mon_is_one, mon_lcm, mon_mul

# ---------------------------------------------------------------------------
# term-vector primitives


def _tv_from_vector(v, morder):
    terms = []
    for comp, poly in enumerate(v.components):
        for mon, coeff in poly.terms:
            terms.append((morder.key(mon, comp), (mon, comp), coeff))
    terms.sort(key=lambda t: t[0], reverse=True)
    return terms


def _tv_to_vector(tv, module):
    # the terms of a term vector are coerced, distinct and nonzero, so they
    # are a polynomial's coefficients as they stand
    ring = module.ring
    per_comp = [{} for _ in range(module.rank)]
    for _, (mon, comp), coeff in tv:
        per_comp[comp][mon] = coeff
    zero = ring.zero()
    return PolyVector(module, [Polynomial(ring, cs) if cs else zero for cs in per_comp])


def _tv_add(a, b, field):
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    zero = field.zero
    while i < na and j < nb:
        ka, kb = a[i][0], b[j][0]
        if ka > kb:
            out.append(a[i])
            i += 1
        elif ka < kb:
            out.append(b[j])
            j += 1
        else:
            c = field.add(a[i][2], b[j][2])
            if c != zero:
                out.append((ka, a[i][1], c))
            i += 1
            j += 1
    if i < na:
        out.extend(a[i:])
    if j < nb:
        out.extend(b[j:])
    return out


def _tv_mul_term(tv, mon, coeff, morder, field):
    shift, mul = morder.shift(mon), field.mul
    return [(tuple(map(add, k, shift)), (mon_mul(m, mon), comp), mul(cf, coeff))
            for k, (m, comp), cf in tv]


def _monic(tv, field):
    """The marked form of a nonzero term vector: scaled to lead coefficient
    one."""
    coeff = tv[0][2]
    if coeff == field.one:
        return tv
    inv, mul = field.inv(coeff), field.mul
    return [(k, mm, mul(cf, inv)) for k, mm, cf in tv]


def _spoly(a, b, morder, field):
    """S-vector u_a * a - u_b * b of two marked elements whose leads share a
    component, with the cofactors u = lcm / lead that cancel the leads.  Both
    are monic, so the leads cancel exactly and only the tails are
    multiplied."""
    ma, mb = a[0][1][0], b[0][1][0]
    lcm = mon_lcm(ma, mb)
    ua, ub = mon_div(lcm, ma), mon_div(lcm, mb)
    sp = _tv_add(_tv_mul_term(a[1:], ua, field.one, morder, field),
                 _tv_mul_term(b[1:], ub, field.neg(field.one), morder, field), field)
    return sp, ua, ub


def _lead_degrees(marked, twists, ring):
    """Degrees of homogeneous marked elements in a module with the given
    twists, read off their leads."""
    return tuple(ring.degree(b[0][1][0]) + twists[b[0][1][1]] for b in marked)


def _lead_index(basis):
    """Lead index of a marked basis: component -> list of ``(position, lead
    monomial, element)`` in basis order."""
    index = {}
    for idx, b in enumerate(basis):
        _index_add(index, idx, b)
    return index


def _index_add(index, idx, b):
    bm, bc = b[0][1]
    index.setdefault(bc, []).append((idx, bm, b))


def _tv_normal_form(tv, index, morder, field, quotients=None):
    """Full normal form against a marked basis given by its lead index; every
    term of the result is outside the initial module of the basis.  Each term
    is divided by the first element of its component group whose lead divides
    it, which is the first such element of the basis.  ``quotients``
    accumulates the division coefficients per basis position when
    supplied."""
    work = list(tv)
    out = []
    pos = 0
    while pos < len(work):
        _, (m, comp), coeff = work[pos]
        for idx, bm, b in index.get(comp, ()):
            if mon_divides(bm, m):
                break
        else:
            out.append(work[pos])
            pos += 1
            continue
        q = mon_div(m, bm)
        # b is monic, so its multiple cancels the term at pos exactly
        scaled = _tv_mul_term(b[1:], q, field.neg(coeff), morder, field)
        work = _tv_add(work[pos + 1:], scaled, field)
        pos = 0
        if quotients is not None:
            quotients.setdefault(idx, []).append((q, coeff))
    return out


# ---------------------------------------------------------------------------
# Buchberger


def gb_engine(tvs, morder, ring, twists):
    """Compute a reduced marked basis from raw term vectors.

    Elements enter the basis one at a time, the input sorted by lead key, and
    pairs are pruned once, when an element g_n enters (Gebauer-Moeller):

      * criterion B drops a pending pair (i, j) when lm(g_n) divides its lcm
        and that lcm differs from both lcm(i, n) and lcm(j, n);
      * the pair of two single-term elements is never formed: its S-vector
        is zero;
      * criteria M and F keep, among the new pairs (i, n) sorted by the key
        of their lcm, only those whose lcm no kept pair's lcm divides;
      * the product criterion, valid at rank 1 only: a pair with coprime
        leads is kept, so that it drops later pairs (it comes first on
        equal lcms), but never pushed.

    Pairs pop by sugar degree, then lcm key (normal strategy).  The lead
    index of the basis grows with it, so pairs and reductions scan only the
    elements whose lead shares the component in question.
    """
    field = ring.field
    rank = len(twists)
    basis = []
    sugar = []  # sugar degree of each basis element
    index = {}
    heap = []
    pending = {}  # component -> {(i, j): lcm of the two leads}

    def enter(b):
        n = len(basis)
        basis.append(b)
        sugar.append(max(ring.degree(m) + twists[c] for _, (m, c), _ in b))
        mn, comp = b[0][1]
        pairs = pending.setdefault(comp, {})
        for (i, j), lcm in list(pairs.items()):
            if (mon_divides(mn, lcm) and lcm != mon_lcm(basis[i][0][1][0], mn)
                    and lcm != mon_lcm(basis[j][0][1][0], mn)):
                del pairs[(i, j)]
        single = len(b) == 1
        candidates = []
        for i, mi, gi in index.get(comp, ()):
            if single and len(gi) == 1:
                continue
            coprime = rank == 1 and mon_is_one(mon_gcd(mi, mn))
            lcm = mon_lcm(mi, mn)
            candidates.append((morder.key(lcm, comp), not coprime, i, lcm))
        candidates.sort()
        kept = []
        for lcm_key, nonzero, i, lcm in candidates:
            if any(mon_divides(k, lcm) for k in kept):
                continue
            kept.append(lcm)
            if nonzero:
                s = max(sugar[i] + ring.degree(mon_div(lcm, basis[i][0][1][0])),
                        sugar[n] + ring.degree(mon_div(lcm, mn)))
                heapq.heappush(heap, (s, lcm_key, i, n))
                pairs[(i, n)] = lcm
        _index_add(index, n, b)

    for b in sorted((_monic(tv, field) for tv in tvs if tv), key=lambda b: b[0][0]):
        enter(b)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        if pending[basis[i][0][1][1]].pop((i, j), None) is None:
            continue
        sp, _, _ = _spoly(basis[i], basis[j], morder, field)
        rem = _tv_normal_form(sp, index, morder, field)
        if rem:
            enter(_monic(rem, field))

    return _interreduce(basis, morder, field)


def _interreduce(basis, morder, field):
    """Minimalize leads, then reduce tails; result is the unique reduced
    basis sorted ascending by leading key.  No other kept lead divides a
    kept lead, and no element's lead divides its own tail, whose terms all
    lie below it; so each element keeps its lead and only its tail is
    divided, by the whole kept basis."""
    kept = []
    index = {}
    for b in sorted(basis, key=lambda b: b[0][0]):
        m, c = b[0][1]
        if any(mon_divides(km, m) for _, km, _ in index.get(c, ())):
            continue
        _index_add(index, len(kept), b)
        kept.append(b)
    return [b[:1] + _tv_normal_form(b[1:], index, morder, field) for b in kept]


class GroebnerBasis:
    """Reduced marked basis of a submodule of a graded free module.

    Keeps the monic term vectors the engine produced (``marked``), so
    division and syzygies reuse their order keys; ``elements``, ``leads`` and
    the lead index used by division are derived from them once."""

    __slots__ = ("module", "module_order", "marked", "elements", "leads", "_index")

    def __init__(self, module, module_order, marked):
        self.module = module
        self.module_order = module_order
        self.marked = tuple(marked)
        self.elements = tuple(_tv_to_vector(b, module) for b in self.marked)
        self.leads = tuple(b[0][1] for b in self.marked)
        self._index = _lead_index(self.marked)

    @property
    def ring(self):
        return self.module.ring

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return "GroebnerBasis(%d elements, %s)" % (
            len(self.elements), self.module_order.term_order.describe())


def buchberger(pres, order=None):
    """Reduced Groebner basis of the submodule spanned by the generators."""
    ring = pres.ring
    order = order or TermOrder.grevlex()
    morder = TOPOrder(ring, order)
    twists = pres.ambient.twists
    tvs = [_tv_from_vector(v, morder) for v in pres.generators]
    marked = gb_engine(tvs, morder, ring, twists)
    return GroebnerBasis(pres.ambient, morder, marked)


def normal_form(v, G):
    """Remainder of v on division by a marked basis; no term of the result is
    divisible by a leading term of G, and v - result lies in <G>."""
    if v.module != G.module:
        raise OrderMismatchError("vector and basis live in different modules")
    tv = _tv_from_vector(v, G.module_order)
    rem = _tv_normal_form(tv, G._index, G.module_order, G.ring.field)
    return _tv_to_vector(rem, G.module)


def initial_module(G):
    """Monomial submodule generated by the leading terms of G."""
    ring = G.ring
    gens = []
    for (mon, comp) in G.leads:
        vec = [ring.zero()] * G.module.rank
        vec[comp] = ring.poly([(mon, 1)])
        gens.append(PolyVector(G.module, tuple(vec)))
    return SubmodulePresentation(G.module, gens)


# ---------------------------------------------------------------------------
# Schreyer syzygies


def _schreyer_level(marked, morder, ring, degrees):
    """Syzygies of a marked basis whose elements have the given degrees.

    Returns (marked syzygies, their order, their degrees).  The syzygy of a
    pair i < j whose leads m_i, m_j share a component is led by u e_i, with
    u = lcm(m_i, m_j)/m_i, under the induced order.  Only the minimal pairs
    are formed (La Scala-Stillman, "Strategies for computing minimal free
    resolutions", JSC 1998): for each i, one pair per u that no other u of i
    strictly divides, the smallest j.  Their leads generate the initial
    module of all the pair syzygies, so by Schreyer's theorem they are a
    Groebner basis of the syzygy module.
    """
    field = ring.field
    leads = [b[0][1] for b in marked]
    sorder = SchreyerOrder(morder, leads)
    index = _lead_index(marked)
    syz = []
    for i, (mi, ci) in enumerate(leads):
        # u -> the smallest j > i in component ci with lcm(m_i, m_j)/m_i = u
        cands = {}
        for j in range(i + 1, len(marked)):
            if leads[j][1] == ci:
                cands.setdefault(mon_div(mon_lcm(mi, leads[j][0]), mi), j)
        for j in sorted(j for u, j in cands.items()
                        if not any(v != u and mon_divides(v, u) for v in cands)):
            sp, ui, uj = _spoly(marked[i], marked[j], morder, field)
            quotients = {}
            if _tv_normal_form(sp, index, morder, field, quotients):
                raise InvalidArgumentError("syzygy computation requires a Groebner basis")
            coeffs = {(ui, i): field.one, (uj, j): field.neg(field.one)}
            for idx, qterms in quotients.items():
                for qm, qc in qterms:
                    key = (qm, idx)
                    coeffs[key] = field.sub(coeffs.get(key, field.zero), qc)
            tv = [
                (sorder.key(m, c), (m, c), coeff)
                for (m, c), coeff in coeffs.items()
                if coeff != field.zero
            ]
            tv.sort(key=lambda t: t[0], reverse=True)
            syz.append(_monic(tv, field))
            assert syz[-1][0][1] == (ui, i)
    return syz, sorder, _lead_degrees(syz, degrees, ring)


def _schreyer_levels(G):
    """The Schreyer frame over a reduced basis G of homogeneous elements, one
    level k >= 1 at a time: (twists of F_k, rows of d_k: F_k -> F_{k-1}),
    where rows[r] maps each column c to the nonzero entry (r, c).

    Each level is re-sorted so that leading monomials descend
    lexicographically, component ascending on ties, before the next level is
    formed; with that ordering the variable support of the induced leading
    terms shrinks at every step, which keeps iterated syzygy chains short.
    """
    ring = G.ring
    morder = G.module_order
    rank = G.module.rank
    marked, degrees = G.marked, _lead_degrees(G.marked, G.module.twists, ring)
    while marked:
        order = sorted(range(len(marked)),
                       key=lambda i: (tuple(-e for e in marked[i][0][1][0]), marked[i][0][1][1]))
        marked = [marked[i] for i in order]
        degrees = tuple(degrees[i] for i in order)
        # column c is the element marked[c]
        rows = [{} for _ in range(rank)]
        for c, b in enumerate(marked):
            for _, (mon, comp), coeff in b:
                rows[comp].setdefault(c, {})[mon] = coeff
        yield degrees, [{c: Polynomial(ring, cs) for c, cs in row.items()} for row in rows]
        rank = len(marked)
        marked, morder, degrees = _schreyer_level(marked, morder, ring, degrees)


def syzygies(G):
    """Generators of the syzygy module of a reduced basis, homogeneous for
    the induced twists (degree of each basis element)."""
    ring = G.ring
    degrees = _lead_degrees(G.marked, G.module.twists, ring)
    level, _, _ = _schreyer_level(G.marked, G.module_order, ring, degrees)
    ambient = GradedFreeModule(ring, degrees)
    # Schreyer-key term vectors sort differently from canonical form;
    # conversion re-sorts per component
    vecs = [_tv_to_vector(b, ambient) for b in level]
    return SubmodulePresentation(ambient, vecs)


# ---------------------------------------------------------------------------
# kernels, colon, saturation, elimination


def module_kernel(vectors, source_twists, ambient, modulo=()):
    """Kernel of the map from a free module with the given twists to
    ambient/<modulo> sending the i-th basis vector to ``vectors[i]``.

    Computed by a Groebner basis of the graph generators (v_i, e_i) and
    (u, 0) for u in ``modulo`` under a component-block elimination order:
    the elements with zero ambient part span the kernel and, the order
    restricted to the source being term over position, are its reduced
    basis."""
    ring = ambient.ring
    f = ambient.rank
    morder = BlockTOPOrder(ring, TermOrder.grevlex(), f)
    one = ring.one_monomial()
    # e_{f+i} lies in the lower block, so its term sorts last
    tvs = [_tv_from_vector(v, morder) + [(morder.key(one, f + i), (one, f + i), ring.field.one)]
           for i, v in enumerate(vectors)]
    tvs += [_tv_from_vector(u, morder) for u in modulo]
    marked = gb_engine(tvs, morder, ring, ambient.twists + tuple(source_twists))
    source = GradedFreeModule(ring, tuple(source_twists))
    return [_tv_to_vector([(k, (m, c - f), cf) for k, (m, c), cf in b], source)
            for b in marked if b[0][1][1] >= f]


def colon(pres, h):
    """(U : h) = all v in the ambient with h*v in U: the kernel of the map
    e_j -> h*e_j into ambient/U, as a reduced basis."""
    if h.is_zero():
        raise InvalidArgumentError("colon by the zero polynomial")
    amb = pres.ambient
    hdeg = h.degree() if h.is_homogeneous() else 0
    zero = pres.ring.zero()
    vectors = [PolyVector(amb, [h if i == j else zero for i in range(amb.rank)])
               for j in range(amb.rank)]
    twists = [d + hdeg for d in amb.twists]
    kernel = module_kernel(vectors, twists, ambient=amb, modulo=pres.generators)
    # the source twists are shifted by deg h; the same vectors in the ambient
    return SubmodulePresentation(amb, [PolyVector(amb, v.components) for v in kernel])


def saturate(pres, h):
    """(U : h^inf) as a reduced basis, by colons until they stabilize; colon
    returns a reduced basis, so the first comparison holds too when the
    generators of ``pres`` already are one."""
    if h.is_zero():
        raise InvalidArgumentError("saturation by the zero polynomial")
    current, nxt = pres, colon(pres, h)
    while nxt.generators != current.generators:
        current, nxt = nxt, colon(nxt, h)
    return current


def contract_to_parameter(pres):
    """Generators of I intersected with k[t], for an ideal I in k[t][x]: the
    elements in k[t] of its reduced basis.  t has degree 0, so grevlex ranks
    every monomial containing an x above every power of t and eliminates x."""
    ring = pres.ring
    if not ring.has_parameter:
        raise InvalidArgumentError("contraction needs a ring with a parameter variable")
    if pres.ambient.rank != 1:
        raise InvalidArgumentError("contraction is defined for ideals")
    polys = (v.components[0] for v in buchberger(pres).elements)
    return [p for p in polys if p.is_parameter_only()]


def is_squarefree(pres):
    """True when every minimal monomial generator has all exponents <= 1."""
    for g in pres.generators:
        nonzero = [(i, c) for i, c in enumerate(g.components) if not c.is_zero()]
        if len(nonzero) != 1 or not nonzero[0][1].is_monomial():
            raise InvalidArgumentError("square-free test needs monomial generators")
        mon = next(iter(nonzero[0][1].coeffs))
        if any(e > 1 for e in mon):
            return False
    return True


# ---------------------------------------------------------------------------
# weight vectors and homogenization


def _compositions(total, parts):
    """The compositions of ``total`` into ``parts`` nonnegative parts in
    lexicographic order, which is that of their partial sums: stars and bars,
    the nondecreasing sums s_1 <= ... <= s_{parts-1} <= total as
    ``combinations_with_replacement`` yields them."""
    for sums in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, sums + (total,), (0,) + sums))


def weight_vector_for(G):
    """A nonnegative integer vector giving each element of the reduced basis
    G its marked leading term with slack >= 1; deterministic: minimal total
    weight, then lexicographically smallest.  The candidates are the
    compositions of each total weight 0, 1, ..., 10000 into r parts, walked
    by total and within a total in lexicographic order; the first that
    qualifies is returned.  The all-zero solution (monomial ideal) is
    normalized to all ones."""
    ring = G.ring
    if ring.has_parameter:
        raise InvalidArgumentError("weight vectors are computed over parameter-free rings")
    r = ring.num_positive
    # omega must weigh each lead - other exponent difference at least 1
    constraints = []
    for v, (lead_mon, _) in zip(G.elements, G.leads):
        for mon, _ in v.components[0].terms:
            if mon != lead_mon:
                constraints.append(mon_div(lead_mon, mon))
    if not constraints:
        return (1,) * r
    for total in range(10001):
        for omega in _compositions(total, r):
            if all(sum(map(mul, omega, d)) >= 1 for d in constraints):
                return omega
    raise InvalidArgumentError("no weight vector found below total weight 10000")


def homogenize_omega(G, omega):
    """Homogenize the reduced basis G with respect to a weight vector: each
    term c*x^a of g becomes c*t^(m - omega.a)*x^a with m the maximal weight
    over the terms of g.  Setting t=0 must recover the marked leading terms
    and t=1 must recover the inputs; failures raise weight-vector-mismatch."""
    ring = G.ring
    if ring.has_parameter:
        raise InvalidArgumentError("input ideal must live in a parameter-free ring")
    if G.module.rank != 1:
        raise InvalidArgumentError("homogenization is defined for ideals")
    omega = tuple(omega)
    if len(omega) != ring.num_positive:
        raise InvalidArgumentError("weight vector length does not match the ring")
    tring = ring.with_parameter()
    out = []
    for v, (lead_mon, _) in zip(G.elements, G.leads):
        g = v.components[0]
        if not g.is_homogeneous():
            raise InvalidArgumentError("homogenization needs homogeneous input")
        wdegs = [sum(o * e for o, e in zip(omega, m)) for m, _ in g.terms]
        m = max(wdegs)
        terms = [
            (mon + (m - wd,), c)
            for (mon, c), wd in zip(g.terms, wdegs)
        ]
        hom = tring.poly(terms)
        at_zero = [(mon, c) for (mon, c) in terms if mon[-1] == 0]
        if len(at_zero) != 1 or at_zero[0][0][:-1] != lead_mon:
            raise WeightVectorMismatchError(
                "weight vector does not isolate the marked leading term of %s" % g)
        if hom.specialize_parameter(1, ring) != g:
            raise WeightVectorMismatchError("t=1 specialization failed for %s" % g)
        out.append(hom)
    return SubmodulePresentation.ideal(tring, out)
