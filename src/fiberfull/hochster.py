"""Independent route to local cohomology Hilbert functions of square-free
monomial quotients: reduced simplicial cohomology of links in the associated
simplicial complex, weighted by counts of strictly negative exponent vectors
on the face support.  Those counts are read off the power series
z^(w_F) / prod_{v in F} (1 - z^(w_v)) of each face F, expanded once over the
window.

This is deliberately disjoint from the resolution/duality machinery so the
two can cross-check each other.  The link cohomology of every face does not
depend on the index i or the window; it is computed once per complex, and
that of the last presentation asked about is kept (one entry).
"""

from functools import lru_cache
from itertools import combinations

from .errors import InvalidArgumentError
from .groebner import is_squarefree
from .hilbert import HilbertTable, check_window
from .linalg import matrix_rank


def complex_from_squarefree(pres):
    """Faces of the simplicial complex whose face ring is ambient/<gens>, as
    a frozenset: subsets whose product monomial avoids every generator."""
    if pres.ambient.rank != 1:
        raise InvalidArgumentError("square-free quotients are rank-1 presentations")
    if not is_squarefree(pres):
        raise InvalidArgumentError("generators must be square-free monomials")
    ring = pres.ring
    if ring.has_parameter:
        raise InvalidArgumentError("simplicial route needs a parameter-free ring")
    n = ring.num_positive
    supports = []
    for g in pres.generators:
        mon = next(iter(g.components[0].coeffs))
        supports.append(frozenset(i for i, e in enumerate(mon) if e))
    faces = set()
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            fs = frozenset(subset)
            if not any(s <= fs for s in supports):
                faces.add(fs)
    return frozenset(faces)


def link(faces, face):
    """Faces g of the complex ``faces`` (a frozenset) disjoint from ``face``
    with g | face a face."""
    face = frozenset(face)
    return [g for g in faces if not g & face and (g | face) in faces]


def reduced_cohomology_dims(faces, field):
    """Reduced simplicial cohomology dimensions over the field, augmented
    complex included: the empty complex has one unit of H~^{-1}.  ``faces``
    is a simplicial complex, so every facet of a face is a face."""
    if not faces:
        return {}
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for d in by_dim:
        by_dim[d] = sorted(by_dim[d], key=sorted)
    top = max(by_dim)
    # rank of the coboundary C^d -> C^{d+1}, read off its transpose: the row
    # of a (d+1)-face holds (-1)^pos at the facet without its pos-th vertex
    ranks = {}
    for d in range(-1, top):
        index = {f: i for i, f in enumerate(by_dim[d])}
        ranks[d] = matrix_rank(field, [{index[f - {v}]: (-1) ** pos
                                        for pos, v in enumerate(sorted(f))}
                                       for f in by_dim[d + 1]])
    dims = {}
    for d in range(-1, top + 1):
        h = len(by_dim[d]) - ranks.get(d, 0) - ranks.get(d - 1, 0)
        if h:
            dims[d] = h
    return dims


@lru_cache(maxsize=1)
def _link_cohomology(pres):
    """(face, reduced cohomology dimensions of its link) for every face of
    the complex of a square-free monomial quotient, the face sorted."""
    faces = complex_from_squarefree(pres)
    field = pres.ring.field
    return tuple((tuple(sorted(face)), reduced_cohomology_dims(link(faces, face), field))
                 for face in faces)


def _negative_support_series(weights, lo):
    """[c_0, ..., c_{-lo}]: c_k is the number of vectors with every entry
    <= -1 and weighted sum -k, weights indexed by the chosen face.  These are
    the coefficients of z^(sum w) / prod_w (1 - z^w) up to z^(-lo)."""
    counts, shift = [0] * (1 - lo), sum(weights)
    if shift < len(counts):
        counts[shift] = 1
    for w in weights:
        for k in range(w, len(counts)):
            counts[k] += counts[k - w]
    return counts


def hochster_hilbert(pres, i, window):
    """Hilbert table of the i-th local cohomology of a square-free monomial
    quotient, via links: each face contributes its reduced cohomology in
    dimension i - |face| - 1 times the count of negative exponent vectors
    supported on the face with the prescribed total degree nu, the
    coefficient of z^(-nu) in its series z^(sum w) / prod_w (1 - z^w).  The
    series of each contributing face is expanded once, down to the bottom
    of the window."""
    lo, hi = check_window(window)
    weights = pres.ring.weights
    dims = {}
    for face, coh in _link_cohomology(pres):
        h = coh.get(i - len(face) - 1, 0)
        if h:
            counts = _negative_support_series([weights[v] for v in face], lo)
            for nu in range(lo, min(hi, 0) + 1):
                dims[nu] = dims.get(nu, 0) + h * counts[-nu]
    return HilbertTable(window, dims)
