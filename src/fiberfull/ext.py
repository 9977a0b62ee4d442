"""Ext against the ring from dualized free resolutions, Hilbert functions of
graded module presentations, and Hilbert functions of graded local cohomology
through the duality with Ext: over a field base,

    dim [H^i(M)]_nu  =  dim [Ext^{r-i}(M, T)]_{-nu-delta},

where r counts the positive-degree variables and delta is their total weight.
The dual twist and the degree flip of the base dual compose into the single
index shift above.
"""

from .errors import IndexOutOfRangeError, InvalidArgumentError
from .groebner import buchberger, module_kernel
from .hilbert import HilbertTable, hilbert_from_leads, zero_table
from .modules import GradedFreeModule, PolyVector, SubmodulePresentation
from .resolution import free_resolution


def _dual_columns(res, k):
    """Columns of the transpose of d_k, as vectors in the dual of F_k."""
    cols = res.diffs[k - 1]
    source_dual = res.modules[k].dual()
    out = []
    for row in range(res.modules[k - 1].rank):
        comps = tuple(col.components[row] for col in cols)
        out.append(PolyVector(source_dual, comps))
    return out


def _ext_from_resolution(res, i):
    """Presentation of the i-th right-derived Hom(-, ring) from a free
    resolution: kernel of the next transposed differential modulo the image
    of the previous one, as a quotient presentation."""
    ring = res.ring
    if i < 0:
        raise IndexError("negative cohomological index")
    if i > res.length:
        return SubmodulePresentation(GradedFreeModule(ring, ()), [])
    Fi_dual = res.modules[i].dual()
    if i == res.length:
        # the cokernel of the last transposed differential is presented by
        # its image
        return SubmodulePresentation(Fi_dual, _dual_columns(res, i) if i else [])
    next_cols = _dual_columns(res, i + 1)
    kernel = module_kernel(next_cols, Fi_dual.twists, ambient=res.modules[i + 1].dual())
    if not kernel:
        return SubmodulePresentation(GradedFreeModule(ring, ()), [])
    image = _dual_columns(res, i) if i >= 1 else []
    kernel_twists = tuple(v.degree() for v in kernel)
    stacked = list(kernel) + list(image)
    stacked_twists = list(kernel_twists) + [0 if v.is_zero() else v.degree() for v in image]
    syz = module_kernel(stacked, stacked_twists, ambient=Fi_dual)
    ambient = GradedFreeModule(ring, kernel_twists)
    relations = []
    for s in syz:
        head = PolyVector(ambient, s.components[: len(kernel)])
        if not head.is_zero():
            relations.append(head)
    return SubmodulePresentation(ambient, relations)


def ext_modules(pres, top_index=None):
    """Presentations of Ext^i(ambient/<gens>, ring) for i = 0..top_index
    (default: the number of positive-degree variables).  Indices beyond the
    resolution length give zero modules."""
    if top_index is None:
        top_index = pres.ring.num_positive
    res = free_resolution(pres)
    return [_ext_from_resolution(res, i) for i in range(top_index + 1)]


def hilbert_function(pres, window):
    """Exact dimensions of the graded pieces of a module presentation on a
    finite window, by standard-monomial counting against the initial module
    of the relations."""
    ambient = pres.ambient
    if ambient.rank == 0:
        return zero_table(window)
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
    r = _field_base_rank(pres.ring)
    if i < 0:
        raise IndexOutOfRangeError("negative cohomological index")
    if i > r:
        raise IndexOutOfRangeError("cohomological index %d exceeds the variable count %d" % (i, r))
    return _tables_from_resolution(free_resolution(pres), window, (i,))[0]


def local_cohomology_tables(pres, window):
    """All tables H^0..H^r at once, sharing one resolution."""
    r = _field_base_rank(pres.ring)
    return _tables_from_resolution(free_resolution(pres), window, range(r + 1))


def _tables_from_resolution(res, window, indices):
    """Tables of H^i for the given indices, each the base dual of
    Ext^{r-i} read off the one resolution ``res``.

    Only dimensions are needed, so no Ext module is presented.  With Q_j
    the Hilbert function of the cokernel of the transposed d_j (Q_0 that of
    F_0^*), in every degree dim Ext^j = dim ker d_{j+1}^T - dim im d_j^T =
    Q_{j+1} + Q_j - dim F_{j+1}^*, and Ext^n = Q_n at the length n."""
    r, delta = res.ring.num_positive, res.ring.delta
    lo, hi = window
    inner = (-hi - delta, -lo - delta)
    n = res.length
    coker = [hilbert_function(SubmodulePresentation(
        res.modules[j].dual(), _dual_columns(res, j) if j else []), inner).dims
        for j in range(n + 1)]
    out = []
    for i in indices:
        j = r - i
        dims = coker[n] if j == n else {}
        if j < n:
            free = hilbert_function(SubmodulePresentation(res.modules[j + 1].dual(), []), inner)
            dims = {nu: coker[j + 1][nu] + coker[j][nu] - d for nu, d in free.dims.items()}
        out.append(HilbertTable(window, {nu: dims.get(-nu - delta, 0) for nu in range(lo, hi + 1)}))
    return out
