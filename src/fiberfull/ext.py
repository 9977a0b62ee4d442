"""Ext against the ring from dualized free resolutions, Hilbert functions of
graded module presentations, and Hilbert functions of graded local cohomology
through the duality with Ext: over a field base,

    dim [H^i(M)]_nu  =  dim [Ext^{r-i}(M, T)]_{-nu-delta},

where r counts the positive-degree variables and delta is their total weight.
The dual twist and the degree flip of the base dual compose into the single
index shift above.  The transposed differentials need no transposing: row r
of d_k, as the resolution stores it, is the r-th column of d_k^T.
"""

from .errors import IndexOutOfRangeError, InvalidArgumentError
from .groebner import buchberger, module_kernel
from .hilbert import HilbertTable, _expand, _leads_numerator, check_window, hilbert_from_leads
from .modules import GradedFreeModule, PolyVector, SubmodulePresentation
from .resolution import _twist_codimension, free_resolution


def _dual_columns(res, k):
    """Columns of the transpose of d_k, as vectors in the dual of F_k: the
    r-th one is row r of d_k, filled with zeros."""
    source_dual = res.modules[k].dual()
    zero = res.ring.zero()
    return [PolyVector(source_dual, tuple(row.get(c, zero) for c in range(source_dual.rank)))
            for row in res.rows[k - 1]]


def _ext_from_resolution(res, i):
    """Presentation of the i-th right-derived Hom(-, ring) from a free
    resolution: the kernel of the next transposed differential modulo the
    image of the previous one.  Its generators K are the ambient basis; its
    relations, the reduced basis of the kernel of that basis onto
    F_i^*/<image>, come from one ``module_kernel`` call modulo the image."""
    ring = res.ring
    if i < 0:
        raise IndexError("negative cohomological index")
    if i > res.length:
        return SubmodulePresentation(GradedFreeModule(ring, ()), [])
    Fi_dual = res.modules[i].dual()
    image = _dual_columns(res, i) if i else []
    if i == res.length:
        # the cokernel of the last transposed differential is presented by
        # its image
        return SubmodulePresentation(Fi_dual, image)
    kernel = module_kernel(_dual_columns(res, i + 1), Fi_dual.twists,
                           ambient=res.modules[i + 1].dual())
    if not kernel:
        return SubmodulePresentation(GradedFreeModule(ring, ()), [])
    kernel_twists = tuple(v.degree() for v in kernel)
    relations = module_kernel(kernel, kernel_twists, ambient=Fi_dual, modulo=image)
    return SubmodulePresentation(GradedFreeModule(ring, kernel_twists), relations)


def ext_modules(pres):
    """Presentations of Ext^i(ambient/<gens>, ring) for i = 0..r, r the
    number of positive-degree variables.  Indices beyond the resolution
    length give zero modules."""
    res = free_resolution(pres)
    return [_ext_from_resolution(res, i) for i in range(pres.ring.num_positive + 1)]


def hilbert_function(pres, window):
    """Exact dimensions of the graded pieces of a module presentation on a
    finite window, by standard-monomial counting against the initial module
    of the relations."""
    check_window(window)
    ambient = pres.ambient
    return hilbert_from_leads(ambient.ring, ambient.rank, ambient.twists,
                              _relation_leads(pres), window)


def _relation_leads(pres):
    """Leads of the reduced basis of the relations of ``pres``; none for a
    free module."""
    return buchberger(pres).leads if pres.generators else []


def _field_base_rank(ring):
    """r for a parameter-free ring; local cohomology is taken over a field."""
    if ring.has_parameter:
        raise InvalidArgumentError(
            "local cohomology tables need a parameter-free ring; specialize first")
    return ring.num_positive


def local_cohomology_hilbert(pres, i, window):
    """Hilbert table of the i-th graded local cohomology of ambient/<gens>
    supported at the ideal of positive-degree variables, over a field base.

    Computed as the base dual of Ext^{r-i} twisted by -delta; an index
    i > r, where it vanishes, is an error."""
    check_window(window)
    r = _field_base_rank(pres.ring)
    if i < 0:
        raise IndexOutOfRangeError("negative cohomological index")
    if i > r:
        raise IndexOutOfRangeError("cohomological index %d exceeds the variable count %d" % (i, r))
    return _tables_from_resolution(free_resolution(pres), window)[i]


def local_cohomology_tables(pres, window):
    """All tables H^0..H^r at once, sharing one resolution."""
    check_window(window)
    _field_base_rank(pres.ring)
    return _tables_from_resolution(free_resolution(pres), window)


def _tables_from_resolution(res, window):
    """Tables of H^0..H^r, each the base dual of Ext^{r-i} read off the
    one resolution ``res`` over k[x].  Only dimensions are needed, so no Ext
    module is presented: they are expanded from the Hilbert series
    numerators of ``_ext_numerators``."""
    return _tables_from_numerators(res.ring, _ext_numerators(res), window)


def _tables_from_numerators(ring, numerators, window):
    """Tables of H^0..H^r on ``window`` from the Hilbert series numerators
    of Ext^0..Ext^r over k[x], each expanded against the denominator of k[x]
    on the dual window: H^i in degree nu is dual to Ext^(r-i) in degree
    -nu - delta."""
    delta = ring.delta
    lo, hi = window
    inner_lo, inner_hi = -hi - delta, -lo - delta
    tables = []
    for num in reversed(numerators):
        low = min(inner_lo, min(num, default=inner_lo))
        series = _expand(num, ring.weights, low, inner_hi)
        tables.append(HilbertTable(window, {nu: series[-nu - delta - low]
                                            for nu in range(lo, hi + 1)}))
    return tables


def _ext_numerators(res):
    """Numerators of the Hilbert series of Ext^0..Ext^r against k[x] over
    the denominator of k[x], each a map from degrees to nonzero integers,
    read off the resolution ``res`` of length n.

    With N(Q_j) the numerator of Q_j, the cokernel of the transposed d_j in
    F_j^* (Q_0 = F_0^*), counted off the leads of its reduced basis: in
    every degree dim Ext^j = dim ker d_{j+1}^T - dim im d_j^T, so
    Ext^j has N(Q_{j+1}) + N(Q_j) - sum_tau z^tau over the twists of F_{j+1}^*
    for j < n, and N(Q_n) at n.

    Over a Cohen-Macaulay ring such as k[x], Ext^j(M, R) = 0 for every
    j < grade(ann M) = codim M (Bruns-Herzog, Cohen-Macaulay Rings, 1.2.10
    and 2.1.4), so no Q_j below codim M is formed; the codimension is read
    off the twists of ``res``.  Ext^j is 0 above n too."""
    n = res.length
    codim = _twist_codimension(res)
    coker = {}
    for j in range(n + 1):
        if j >= codim:
            dual = res.modules[j].dual()
            leads = _relation_leads(SubmodulePresentation(dual, _dual_columns(res, j) if j else []))
            coker[j] = _leads_numerator(leads, dual.twists, res.ring.weights)
    out = []
    for j in range(res.ring.num_positive + 1):
        ext = {}
        if j == n and j in coker:
            ext = coker[n]
        elif j in coker:
            ext = dict(coker[j + 1])
            for k, c in coker[j].items():
                ext[k] = ext.get(k, 0) + c
            for tau in res.modules[j + 1].dual().twists:
                ext[tau] = ext.get(tau, 0) - 1
        out.append({k: c for k, c in ext.items() if c})
    return out
