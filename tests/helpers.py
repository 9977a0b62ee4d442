"""Shared test utilities: random element generators and independent oracles
(a printer that sorts the terms itself, brute-force standard-monomial
counting, Krull dimension by a subset scan, S-pair closure, Buchberger over
all pairs with no criterion, the Schreyer frame over all pairs and the
invariants a resolution must not change, degreewise exactness by exact
linear algebra, division by a linear scan of the basis, minimization that
restarts its scan after every pivot, the storage rule of a resolution's
sparse rows, colon and Ext relations as the heads of a syzygy graph,
saturation from a reduced basis of its own, the torsion annihilator
contracted to k[t] by a block-order basis, the k[t]-torsion of Ext^i read
off the cokernel of the transposed differential, the parameter values at
which a fiber's graded pieces jump, the H^i tables from every cokernel of a
transposed differential, with no short cut below the codimension,
recursive references for the library's enumerations: compositions with the
weight-vector search over them, the monomials of a degree, and the negative
exponent vectors that Hochster's formula counts, interreduction by full
division of each kept element, and simplicial cohomology from dense
coboundary rows)."""

from contextlib import contextmanager
from operator import mul
from unittest import mock

import fiberfull.groebner
from fiberfull import (
    GradedFreeModule,
    HilbertTable,
    PolyVector,
    SubmodulePresentation,
    TermOrder,
    betti_table,
    buchberger,
    colon,
    fiber_full_check,
    fiber_full_locus,
    free_resolution,
    hilbert_function,
    make_ring,
    module_kernel,
    monomials_of_degree,
    normal_form,
    parameter_monic,
    specialize_presentation,
)
from fiberfull.ext import _dual_columns, _tables_from_resolution
from fiberfull.fiberfull import _module_certificates
from fiberfull.groebner import (
    _index_add,
    _lead_degrees,
    _lead_index,
    _monic,
    _spoly,
    _tv_add,
    _tv_mul_term,
    _tv_normal_form,
)
from fiberfull.linalg import matrix_rank
from fiberfull.orders import SchreyerOrder
from fiberfull.resolution import specialize_resolution
from fiberfull.rings import mon_div, mon_divides, mon_lcm


def rand_monomial(rng, ring, max_exp=3):
    return tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))


def rand_poly(rng, ring, max_terms=4, max_exp=3, coeff_pool=(-3, -2, -1, 1, 2, 3)):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        terms.append((rand_monomial(rng, ring, max_exp), rng.choice(coeff_pool)))
    return ring.poly(terms)


def reference_str(p):
    """p printed from its terms sorted descending by the ring's canonical
    key: signs between the terms, a coefficient 1 left out."""
    ring = p.ring
    out = []
    for mon, c in sorted(p.terms, key=lambda mc: ring.canonical_key(mc[0]), reverse=True):
        cs = ring.field.coeff_str(c)
        sign, mag = ("-", cs[1:]) if cs.startswith("-") else ("+", cs)
        mono = "*".join(n if e == 1 else "%s^%d" % (n, e) for n, e in zip(ring.names, mon) if e)
        out.append((sign, mag if not mono else mono if mag == "1" else mag + "*" + mono))
    if not out:
        return "0"
    head = out[0][1] if out[0][0] == "+" else "-" + out[0][1]
    return head + "".join(" %s %s" % term for term in out[1:])


def rand_homogeneous(rng, ring, degree, tries=50):
    mons = monomials_of_degree(ring, degree)
    terms = []
    for _ in range(rng.randint(1, 3)):
        terms.append((rng.choice(mons), rng.choice((-2, -1, 1, 2, 3))))
    p = ring.poly(terms)
    return p if not p.is_zero() else ring.poly([(mons[0], 1)])


def brute_hilbert_counts(pres, window):
    """Standard-monomial count per degree by direct enumeration; independent
    of the series-based production implementation.  Parameter-free rings."""
    ring = pres.ring
    amb = pres.ambient
    gens = pres.generators
    if gens:
        G = buchberger(SubmodulePresentation(amb, gens))
        leads = G.leads
    else:
        leads = []
    lo, hi = window
    dims = {}
    for nu in range(lo, hi + 1):
        count = 0
        for comp in range(amb.rank):
            d = nu - amb.twists[comp]
            if d < 0:
                continue
            for mon in monomials_of_degree(ring, d):
                if not any(c == comp and mon_divides(m, mon) for (m, c) in leads):
                    count += 1
        dims[nu] = count
    return dims


def brute_monomial_counts(weights, gens, top):
    """Monomials of each weighted degree 0..top outside the ideal of the
    given exponent vectors, by enumeration."""
    ring = make_ring(list(weights))
    return [sum(1 for mon in monomials_of_degree(ring, d)
                if not any(mon_divides(g, mon) for g in gens)) for d in range(top + 1)]


def compositions(total, parts):
    """The compositions of ``total`` into ``parts`` nonnegative parts in
    lexicographic order, by recursion on the first part (depth ``parts``)."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def search_weight_vector(G):
    """The weight vector of a reduced basis by the first search: for each
    total 0, 1, ..., 10000, the first of ``compositions`` that weighs every
    lead above each other term of its element by at least one; all ones when
    no element has a second term, None when the search runs out."""
    r = G.ring.num_positive
    constraints = [mon_div(lead_mon, mon) for v, (lead_mon, _) in zip(G.elements, G.leads)
                   for mon, _ in v.components[0].terms if mon != lead_mon]
    if not constraints:
        return (1,) * r
    for total in range(10001):
        for omega in compositions(total, r):
            if all(sum(map(mul, omega, d)) >= 1 for d in constraints):
                return omega
    return None


def recursive_monomials_of_degree(ring, degree):
    """All monomials of the given weighted degree in lexicographic order, by
    recursion on the first exponent (depth the number of variables)."""
    weights = ring.weights

    def rec(i, remaining):
        if i == len(weights) - 1:
            if remaining % weights[i] == 0:
                yield (remaining // weights[i],)
            return
        w = weights[i]
        for e in range(remaining // w + 1):
            for rest in rec(i + 1, remaining - w * e):
                yield (e,) + rest

    if degree < 0:
        return []
    return [m for m in rec(0, degree)]


def negative_support_counts(weights, target):
    """Number of vectors with every entry <= -1 and weighted sum equal to
    ``target``; weights indexed by the chosen face."""
    if not weights:
        return 1 if target == 0 else 0
    total = -target
    if total < sum(weights):
        return 0

    def rec(i, remaining):
        if i == len(weights) - 1:
            return 1 if remaining >= weights[i] and remaining % weights[i] == 0 else 0
        w = weights[i]
        count = 0
        upper = remaining - sum(weights[i + 1:])
        e = w
        while e <= upper:
            count += rec(i + 1, remaining - e)
            e += w
        return count

    return rec(0, total)


def dense_reduced_cohomology_dims(faces, field):
    """Reduced simplicial cohomology dimensions over the field, augmented
    complex included, from dense coboundary rows that look every facet up
    and give a missing one the entry zero.  The rows reach ``matrix_rank``
    as ``{column: entry}`` dicts, zeros included."""
    if not faces:
        return {}
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for d in by_dim:
        by_dim[d] = sorted(by_dim[d], key=sorted)
    top = max(by_dim)
    ranks = {}
    sizes = {d: len(by_dim.get(d, [])) for d in range(-1, top + 1)}
    signs = (1, field.neg(1))
    for d in range(-1, top):
        lower = by_dim.get(d, [])
        upper = by_dim.get(d + 1, [])
        if not lower or not upper:
            ranks[d] = 0
            continue
        index = {f: i for i, f in enumerate(lower)}
        rows = []
        for f in upper:
            row = [0] * len(lower)
            verts = sorted(f)
            for pos, v in enumerate(verts):
                sub = frozenset(f - {v})
                j = index.get(sub)
                if j is not None:
                    row[j] = signs[pos % 2]
            rows.append(row)
        # rank of the coboundary C^d -> C^{d+1} equals the rank of its
        # transpose, assembled here with one row per (d+1)-face
        ranks[d] = matrix_rank(field, [dict(enumerate(row)) for row in rows])
    dims = {}
    for d in range(-1, top + 1):
        dim_cd = sizes.get(d, 0)
        out_rank = ranks.get(d, 0)
        in_rank = ranks.get(d - 1, 0)
        h = dim_cd - out_rank - in_rank
        if h:
            dims[d] = h
    return dims


def subset_scan_dimension(num_vars, gens):
    """Krull dimension of k[x]/<monomial gens> by scanning all 2^n coordinate
    subspaces for the largest one that contains no generator support."""
    supports = [frozenset(i for i, e in enumerate(g) if e > 0) for g in gens]
    if any(not s for s in supports):
        return -1
    best = 0
    for mask in range(1 << num_vars):
        subset = {i for i in range(num_vars) if mask >> i & 1}
        if all(not s <= subset for s in supports):
            best = max(best, len(subset))
    return best


def spair_closure_holds(G):
    """Every S-pair of the basis reduces to zero under division: the defining
    property of a Groebner basis, checked directly."""
    for i in range(len(G.elements)):
        for j in range(i + 1, len(G.elements)):
            (mi, ci) = G.leads[i]
            (mj, cj) = G.leads[j]
            if ci != cj:
                continue
            lcm = mon_lcm(mi, mj)
            sp = G.elements[i].mul_term(mon_div(lcm, mi), 1) - G.elements[j].mul_term(
                mon_div(lcm, mj), 1)
            if not normal_form(sp, G).is_zero():
                return False
    return True


def all_pairs_engine(tvs, morder, ring, twists):
    """Reduced marked basis from raw term vectors by Buchberger's algorithm
    with no criterion: every pair of elements whose leads share a component
    is reduced, first in first out, and the basis is interreduced by
    ``reference_interreduce``.  Takes the arguments of ``gb_engine``, so it
    can stand in for it."""
    field = ring.field
    basis = []
    index = {}
    queue = []

    def enter(b):
        queue.extend((i, len(basis)) for i, a in enumerate(basis) if a[0][1][1] == b[0][1][1])
        _index_add(index, len(basis), b)
        basis.append(b)

    for tv in tvs:
        if tv:
            enter(_monic(tv, field))
    while queue:
        i, j = queue.pop(0)
        sp, _, _ = _spoly(basis[i], basis[j], morder, field)
        rem = _tv_normal_form(sp, index, morder, field)
        if rem:
            enter(_monic(rem, field))
    return reference_interreduce(basis, morder, field)


def reference_interreduce(basis, morder, field):
    """Minimalize leads, then divide each kept element fully, lead included,
    by the kept basis with its own position left out (a linear scan).  The
    result is what ``groebner._interreduce`` must return."""
    kept = []
    for b in sorted(basis, key=lambda b: b[0][0]):
        m, c = b[0][1]
        if any(k[0][1][1] == c and mon_divides(k[0][1][0], m) for k in kept):
            continue
        kept.append(b)
    return [linear_scan_division(b, kept, morder, field, skip=i)[0]
            for i, b in enumerate(kept)]


def all_pairs_schreyer_level(marked, morder, ring, degrees):
    """Syzygies of a marked basis, one for every pair i < j whose leads share
    a component, led by (lcm/m_i) e_i: the frame of Taylor-complex size.
    Takes the arguments of ``_schreyer_level`` and returns what it returns,
    so it can stand in for it."""
    field = ring.field
    leads = [b[0][1] for b in marked]
    sorder = SchreyerOrder(morder, leads)
    index = _lead_index(marked)
    syz = []
    for i in range(len(marked)):
        for j in range(i + 1, len(marked)):
            if leads[i][1] != leads[j][1]:
                continue
            sp, ui, uj = _spoly(marked[i], marked[j], morder, field)
            quotients = {}
            assert not _tv_normal_form(sp, index, morder, field, quotients)
            coeffs = {(ui, i): field.one, (uj, j): field.neg(field.one)}
            for idx, qterms in quotients.items():
                for qm, qc in qterms:
                    key = (qm, idx)
                    coeffs[key] = field.sub(coeffs.get(key, field.zero), qc)
            tv = sorted(((sorder.key(m, c), (m, c), coeff)
                         for (m, c), coeff in coeffs.items() if coeff != field.zero),
                        key=lambda t: t[0], reverse=True)
            syz.append(_monic(tv, field))
            assert syz[-1][0][1] == (ui, i)
    return syz, sorder, _lead_degrees(syz, degrees, ring)


@contextmanager
def all_pairs_frame():
    """Every resolution built inside the block rests on the all-pairs
    frame.  The one-entry certificate memo is emptied on the way in and
    out, so that no result crosses from one frame to the other."""
    _module_certificates.cache_clear()
    try:
        with mock.patch.object(fiberfull.groebner, "_schreyer_level", all_pairs_schreyer_level):
            yield
    finally:
        _module_certificates.cache_clear()


def frame_invariants(pres, window=(-6, 2)):
    """What every free resolution of a module determines, read off
    ``free_resolution``: over k[x] the Betti table and the H^i tables; over
    k[t][x] the Ext annihilators and verdicts at t = 0..3, the fiber-full
    locus, and the Betti and H^i tables of the fibers at t = 0, 1, 2, whose
    minimal complexes are unique up to isomorphism."""
    res = free_resolution(pres)
    assert res.check_complex()
    if not pres.ring.has_parameter:
        return betti_table(res), _tables_from_resolution(res, window)
    reports = [fiber_full_check(pres, at=c) for c in range(4)]
    specs = [specialize_resolution(res, c) for c in range(3)]
    return ([[(v.certificate.annihilator, v.free_over_base) for v in r.verdicts]
             for r in reports], fiber_full_locus(pres),
            [(betti_table(s), _tables_from_resolution(s, window)) for s in specs])


def degree_slice_matrix(res, k, nu):
    """Matrix of d_{k+1} restricted to degree nu, as sparse ``{column:
    entry}`` rows: rows indexed by the source basis, columns by the target
    basis."""
    ring = res.ring
    source = res.modules[k + 1]
    target = res.modules[k]
    src_basis = []
    for comp in range(source.rank):
        d = nu - source.twists[comp]
        if d >= 0:
            src_basis.extend((mon, comp) for mon in monomials_of_degree(ring, d))
    tgt_basis = []
    for comp in range(target.rank):
        d = nu - target.twists[comp]
        if d >= 0:
            tgt_basis.extend((mon, comp) for mon in monomials_of_degree(ring, d))
    tgt_index = {mc: i for i, mc in enumerate(tgt_basis)}
    rows = []
    for mon, comp in src_basis:
        row = {}
        for tcomp, target_row in enumerate(res.rows[k]):
            if comp in target_row:
                for m, c in target_row[comp].mul_term(mon, 1).terms:
                    row[tgt_index[(m, tcomp)]] = c
        rows.append(row)
    return rows, len(src_basis), len(tgt_basis)


def rows_are_sparse(res):
    """Every differential has one row per basis element of its target, and
    every stored entry is nonzero with a column key that indexes the source
    basis."""
    return len(res.rows) == len(res.modules) - 1 and all(
        len(A) == res.modules[k].rank
        and all(0 <= c < res.modules[k + 1].rank and not entry.is_zero()
                for row in A for c, entry in row.items())
        for k, A in enumerate(res.rows))


def resolution_exact_in_degree(res, k, nu):
    """Exactness at homological position k (1 <= k <= length) in degree nu:
    the kernel of d_k matches the image of d_{k+1} dimensionwise."""
    ring = res.ring
    field = ring.field
    rows_k, src_k, _ = degree_slice_matrix(res, k - 1, nu)
    rank_k = matrix_rank(field, rows_k)
    kernel_dim = src_k - rank_k
    if k < res.length:
        rows_next, _, _ = degree_slice_matrix(res, k, nu)
        image_dim = matrix_rank(field, rows_next)
    else:
        image_dim = 0
    return kernel_dim == image_dim


def vector_in_submodule(v, G):
    return normal_form(v, G).is_zero()


def linear_scan_division(tv, basis, morder, field, skip=None):
    """Division of a term vector by a marked basis that scans the whole basis
    for the first lead dividing each term, leaving out position ``skip``.
    Returns the remainder and the quotient terms per basis position."""
    work = list(tv)
    out = []
    quotients = {}
    pos = 0
    while pos < len(work):
        _, (m, comp), coeff = work[pos]
        for idx, b in enumerate(basis):
            bm, bc = b[0][1]
            if idx != skip and bc == comp and mon_divides(bm, m):
                break
        else:
            out.append(work[pos])
            pos += 1
            continue
        q = mon_div(m, bm)
        work = _tv_add(work[pos:], _tv_mul_term(b, q, field.neg(coeff), morder, field), field)
        pos = 0
        quotients.setdefault(idx, []).append((q, coeff))
    return out, quotients


def restart_minimize(res):
    """Prune the unit entries of a resolution in place by rescanning from the
    first differential after every pivot: the first nonzero constant entry,
    lowest homological index first, then row-major."""
    ring = res.ring
    field = ring.field
    zero = ring.zero()
    mats = [[[row.get(c, zero) for c in range(res.modules[k + 1].rank)] for row in A]
            for k, A in enumerate(res.rows)]
    twists = [list(m.twists) for m in res.modules]

    def unit_entry():
        for lvl, A in enumerate(mats):
            for p, row in enumerate(A):
                for q, entry in enumerate(row):
                    if not entry.is_zero() and entry.is_constant():
                        return lvl, p, q
        return None

    while True:
        hit = unit_entry()
        if hit is None:
            break
        lvl, p, q = hit
        A = mats[lvl]
        u = A[p][q].constant_value()
        for l in range(len(A[0])):
            if l == q or A[p][l].is_zero():
                continue
            scale = A[p][l] * field.inv(u)
            for k in range(len(A)):
                if k != p and not A[k][q].is_zero():
                    A[k][l] = A[k][l] - A[k][q] * scale
        for row in A:
            del row[q]
        del A[p]
        del twists[lvl + 1][q]
        del twists[lvl][p]
        if lvl + 1 < len(mats):
            del mats[lvl + 1][q]
        if lvl >= 1:
            for row in mats[lvl - 1]:
                del row[p]
    modules = [GradedFreeModule(ring, tuple(tw)) for tw in twists]
    rows = [[{c: entry for c, entry in enumerate(row) if not entry.is_zero()} for row in A]
            for A in mats]
    while len(modules) > 1 and modules[-1].rank == 0:
        modules.pop()
        rows.pop()
    res.modules = modules
    res.rows = rows


def _syzygy_heads(vectors, twists, ambient, head_module, rank):
    """First ``rank`` components of the syzygies of ``vectors``, as vectors
    of ``head_module``; the zero heads (syzygies among the rest) dropped."""
    heads = []
    for s in module_kernel(vectors, twists, ambient=ambient):
        head = PolyVector(head_module, s.components[:rank])
        if not head.is_zero():
            heads.append(head)
    return heads


def graph_colon(pres, h):
    """(U : h) as a reduced basis: the heads of the syzygies of
    (h*e_1, ..., h*e_f, generators of U), then Buchberger."""
    amb = pres.ambient
    hdeg = h.degree() if h.is_homogeneous() else 0
    vectors = [amb.basis_vector(j).mul_poly(h) for j in range(amb.rank)] + list(pres.generators)
    twists = [d + hdeg for d in amb.twists] + [g.degree() for g in pres.generators]
    heads = _syzygy_heads(vectors, twists, amb, amb, amb.rank)
    return SubmodulePresentation(amb, buchberger(SubmodulePresentation(amb, heads)).elements)


def graph_ext(res, i):
    """Ext^i for 0 <= i <= the length of ``res``, presented by the heads of
    the syzygies of (kernel generators | image of the previous transposed
    differential) in the dual of F_i."""
    dual = res.modules[i].dual()
    if i < res.length:
        kernel = module_kernel(_dual_columns(res, i + 1), dual.twists,
                               ambient=res.modules[i + 1].dual())
    else:
        kernel = [dual.basis_vector(j) for j in range(dual.rank)]
    image = _dual_columns(res, i) if i else []
    kernel_twists = tuple(v.degree() for v in kernel)
    twists = kernel_twists + tuple(0 if v.is_zero() else v.degree() for v in image)
    ambient = GradedFreeModule(res.ring, kernel_twists)
    heads = _syzygy_heads(list(kernel) + image, twists, dual, ambient, len(kernel))
    return SubmodulePresentation(ambient, heads)


def is_zero_module(pres):
    """Every basis vector of the ambient lies in the relations."""
    if pres.ambient.rank == 0:
        return True
    if not pres.generators:
        return False
    G = buchberger(pres)
    return all(vector_in_submodule(pres.ambient.basis_vector(c), G)
               for c in range(pres.ambient.rank))


def cokernel_tables(res, window):
    """The tables H^0..H^r over k[x] the long way: the Hilbert function Q_j
    of every cokernel of a transposed differential, with no short cut below
    the codimension, and dim Ext^j = Q_{j+1} + Q_j - dim F_{j+1}^* (Ext^n =
    Q_n at the length n)."""
    r, delta = res.ring.num_positive, res.ring.delta
    lo, hi = window
    inner = (-hi - delta, -lo - delta)
    n = res.length
    coker = [hilbert_function(transposed_cokernel(res, j), inner).dims for j in range(n + 1)]
    out = []
    for i in range(r + 1):
        j = r - i
        dims = coker[n] if j == n else {}
        if j < n:
            free = hilbert_function(SubmodulePresentation(res.modules[j + 1].dual(), []), inner)
            dims = {nu: coker[j + 1][nu] + coker[j][nu] - d for nu, d in free.dims.items()}
        out.append(HilbertTable(window, {nu: dims.get(-nu - delta, 0) for nu in range(lo, hi + 1)}))
    return out


def buchberger_saturate(pres, h):
    """(U : h^inf) as a reduced basis: a Groebner basis of U to compare the
    first colon with, then colons until the basis stabilizes."""
    current = SubmodulePresentation(pres.ambient, buchberger(pres).elements)
    nxt = colon(pres, h)
    while nxt.generators != current.generators:
        current, nxt = nxt, colon(nxt, h)
    return current


def contraction_annihilator(G, torsion):
    """Monic generator of {p in k[t] : p * w in <G> for every w in
    ``torsion``}: the kernel of p -> p * (w_1, ..., w_m) modulo slotted
    copies of G, then a basis of that ideal under the block order (x above
    t), whose elements free of x generate its contraction to k[t]."""
    ring = G.ring
    f = G.module.rank
    m = len(torsion)
    stacked_module = GradedFreeModule(ring, G.module.twists * m)
    stacked = PolyVector(stacked_module, tuple(c for w in torsion for c in w.components))
    slotted = []
    for j in range(m):
        for u in G.elements:
            slot = [ring.zero()] * (f * m)
            slot[j * f:(j + 1) * f] = u.components
            slotted.append(PolyVector(stacked_module, tuple(slot)))
    kernel = module_kernel([stacked], (0,), ambient=stacked_module, modulo=slotted)
    ideal = SubmodulePresentation.ideal(ring, [v.components[0] for v in kernel])
    r = ring.num_positive
    contracted = [v.components[0] for v in buchberger(ideal, TermOrder.block_x_over_t()).elements
                  if all(not any(mon[:r]) for mon, _ in v.components[0].terms)]
    return parameter_monic(contracted[0])


def transposed_cokernel(res, i):
    """coker d_i^T, the dual of F_i modulo the columns of the transposed
    differential (F_0^* itself for i = 0), for 0 <= i <= the length.  Ext^i
    is the submodule ker d_{i+1}^T / im d_i^T of it, and the quotient
    F_i^*/ker d_{i+1}^T embeds in the free F_{i+1}^*, so both have the same
    k[t]-torsion, hence the same torsion annihilator."""
    return SubmodulePresentation(res.modules[i].dual(), _dual_columns(res, i) if i else [])


def fiber_jumps(pres, points, window):
    """The points c among ``points`` at which some graded piece in the
    window of the module presented by ``pres``, specialized at t = c, is
    larger than the least such piece over all the points.  Each piece M_d is
    a finitely generated k[t]-module, whose fiber at c exceeds its rank by
    the number of its (t - c)-primary summands; with more points than
    torsion roots the least piece is the rank, so these are the points at
    which M has torsion in a degree of the window."""
    lo, hi = window
    dims = [hilbert_function(specialize_presentation(pres, c), window).dims for c in points]
    generic = {nu: min(d.get(nu, 0) for d in dims) for nu in range(lo, hi + 1)}
    return {c for c, d in zip(points, dims)
            if any(d.get(nu, 0) > generic[nu] for nu in range(lo, hi + 1))}
