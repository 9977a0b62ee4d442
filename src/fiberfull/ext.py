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
from .hilbert import HilbertTable, check_window, hilbert_from_leads
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
    leads = buchberger(pres).leads if pres.generators else []
    return hilbert_from_leads(ambient.ring, ambient.rank, ambient.twists, leads, window)


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
    one resolution ``res``.

    Only dimensions are needed, so no Ext module is presented.  With Q_j
    the Hilbert function of the cokernel of the transposed d_j (Q_0 that of
    F_0^*), in every degree dim Ext^j = dim ker d_{j+1}^T - dim im d_j^T =
    Q_{j+1} + Q_j - dim F_{j+1}^*, and Ext^n = Q_n at the length n.

    Over a Cohen-Macaulay ring such as k[x], Ext^j(M, R) = 0 for every
    j < grade(ann M) = codim M (Bruns-Herzog, Cohen-Macaulay Rings, 1.2.10
    and 2.1.4), so H^{r-j} is written as zero there and Q_j is formed only
    for j >= codim M, which is read off the twists of ``res``."""
    r, delta = res.ring.num_positive, res.ring.delta
    lo, hi = window
    inner = (-hi - delta, -lo - delta)
    n = res.length
    codim = _twist_codimension(res)
    coker = {j: hilbert_function(SubmodulePresentation(
        res.modules[j].dual(), _dual_columns(res, j) if j else []), inner).dims
        for j in range(n + 1) if j >= codim}
    out = []
    for i in range(r + 1):
        j = r - i
        dims = {}
        if codim <= j == n:
            dims = coker[n]
        elif codim <= j < n:
            free = hilbert_function(SubmodulePresentation(res.modules[j + 1].dual(), []), inner)
            dims = {nu: coker[j + 1][nu] + coker[j][nu] - d for nu, d in free.dims.items()}
        out.append(HilbertTable(window, {nu: dims.get(-nu - delta, 0) for nu in range(lo, hi + 1)}))
    return out
