"""Independent route to local cohomology Hilbert functions of square-free
monomial quotients: reduced simplicial cohomology of links in the associated
simplicial complex, weighted by counts of strictly negative exponent vectors
on the face support.

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
    complex included: the empty complex has one unit of H~^{-1}."""
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
        ranks[d] = matrix_rank(field, rows)
    dims = {}
    for d in range(-1, top + 1):
        dim_cd = sizes.get(d, 0)
        out_rank = ranks.get(d, 0)
        in_rank = ranks.get(d - 1, 0)
        h = dim_cd - out_rank - in_rank
        if h:
            dims[d] = h
    return dims


def _negative_support_counts(weights, target):
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


@lru_cache(maxsize=1)
def _link_cohomology(pres):
    """(face, reduced cohomology dimensions of its link) for every face of
    the complex of a square-free monomial quotient, the face sorted."""
    faces = complex_from_squarefree(pres)
    field = pres.ring.field
    return tuple((tuple(sorted(face)), reduced_cohomology_dims(link(faces, face), field))
                 for face in faces)


def hochster_hilbert(pres, i, window):
    """Hilbert table of the i-th local cohomology of a square-free monomial
    quotient, via links: each face contributes its reduced cohomology in
    dimension i - |face| - 1 times the count of negative exponent vectors
    supported on the face with the prescribed total degree."""
    lo, hi = check_window(window)
    weights = pres.ring.weights
    contributions = []
    for face, coh in _link_cohomology(pres):
        h = coh.get(i - len(face) - 1, 0)
        if h:
            contributions.append((face, h))
    dims = {}
    for nu in range(lo, hi + 1):
        total = 0
        for face, h in contributions:
            total += h * _negative_support_counts([weights[v] for v in face], nu)
        if total:
            dims[nu] = total
    return HilbertTable(window, dims)
