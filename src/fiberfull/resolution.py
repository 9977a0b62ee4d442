"""Graded free resolutions by iterated syzygies, minimization by pivoting on
unit entries, graded Betti numbers, extremal Betti positions, depth and
Castelnuovo-Mumford regularity.

Each syzygy level is re-sorted so that leading monomials descend
lexicographically before the next level is formed; with that ordering the
variable support of the induced leading terms shrinks at every step, which
keeps iterated syzygy chains short.
"""

from .errors import InvalidArgumentError
from .groebner import _schreyer_level, _tv_to_vector, buchberger
from .hilbert import monomial_quotient_dimension
from .modules import GradedFreeModule, PolyVector
from .orders import SchreyerOrder


class Resolution:
    """Chain F_0 <- F_1 <- ... with graded differentials; diffs[k] holds the
    columns of d_{k+1}: F_{k+1} -> F_k as vectors in F_k."""

    __slots__ = ("modules", "diffs", "minimal")

    def __init__(self, modules, diffs, minimal):
        self.modules = list(modules)
        self.diffs = list(diffs)
        self.minimal = minimal

    @property
    def length(self):
        return len(self.diffs)

    @property
    def ring(self):
        return self.modules[0].ring

    def ranks(self):
        return [m.rank for m in self.modules]

    def apply(self, k, vector):
        """Image under d_{k+1} of a vector of F_{k+1} (components given)."""
        cols = self.diffs[k]
        out = self.modules[k].zero_vector()
        for col, coeff in zip(cols, vector.components):
            out = out + col.mul_poly(coeff)
        return out

    def check_complex(self):
        """d o d = 0 for every consecutive pair."""
        for k in range(1, len(self.diffs)):
            for col in self.diffs[k]:
                if not self.apply(k - 1, col).is_zero():
                    return False
        return True

    def __repr__(self):
        return "Resolution(ranks=%s, minimal=%s)" % (self.ranks(), self.minimal)


def _sorted_level(marked, twists, ring):
    """Sort marked elements (and their degrees) by descending lex on the
    leading monomial, component ascending on ties."""
    order = sorted(
        range(len(marked)),
        key=lambda i: (tuple(-e for e in marked[i].lead_mm[0]), marked[i].lead_mm[1]),
    )
    return [marked[i] for i in order], tuple(twists[i] for i in order)


def free_resolution(pres):
    """The graded free resolution of ambient/<generators>.  It is minimal
    exactly when the ring has no parameter: unit entries of the Schreyer
    frame are pruned.  Over k[t][x] minimality is not defined and the frame
    itself is returned."""
    res = _schreyer_frame(pres)
    if not res.ring.has_parameter:
        _minimize_in_place(res)
        res.minimal = True
    return res


def _schreyer_frame(pres):
    """The unminimized resolution by iterated Schreyer syzygies."""
    ring = pres.ring
    for g in pres.generators:
        if not g.is_homogeneous():
            raise InvalidArgumentError("resolution requires homogeneous generators")
    F0 = pres.ambient
    G = buchberger(pres)
    if len(G) == 0:
        return Resolution([F0], [], False)

    morder = G.module_order
    twists = tuple(v.degree() for v in G.elements)
    marked, twists = _sorted_level(G.marked, twists, ring)

    modules = [F0]
    diffs = []
    parent_twists = F0.twists
    while marked:
        level_module = GradedFreeModule(ring, twists)
        cols = [_tv_to_vector(b.tv, modules[-1]) for b in marked]
        modules.append(level_module)
        diffs.append(cols)
        syz_marked, _, _, syz_twists = _schreyer_level(
            marked, morder, ring.field, ring, parent_twists)
        if not syz_marked:
            break
        morder = SchreyerOrder(morder, [b.lead_mm for b in marked])
        parent_twists = twists
        marked, twists = _sorted_level(syz_marked, syz_twists, ring)

    return Resolution(modules, diffs, False)


def _to_matrices(res):
    mats = []
    for k, cols in enumerate(res.diffs):
        rank_target = res.modules[k].rank
        mats.append([[col.components[row] for col in cols] for row in range(rank_target)])
    return mats


def _unit_entry(mats):
    """First nonzero constant entry, lowest homological index first, then
    row-major within the differential."""
    for lvl, A in enumerate(mats):
        for p, row in enumerate(A):
            for q, entry in enumerate(row):
                if not entry.is_zero() and entry.is_constant():
                    return lvl, p, q
    return None


def _minimize_in_place(res):
    ring = res.ring
    field = ring.field
    mats = _to_matrices(res)
    twists = [list(m.twists) for m in res.modules]
    while True:
        hit = _unit_entry(mats)
        if hit is None:
            break
        lvl, p, q = hit
        A = mats[lvl]
        u = A[p][q].constant_value()
        nrows = len(A)
        ncols = len(A[0])
        # split off the trivial subcomplex spanned by the pivot: Gaussian
        # update on this differential, then delete row p and column q; the
        # neighbouring differentials only lose the matching row/column
        for l in range(ncols):
            if l == q:
                continue
            factor = A[p][l]
            if factor.is_zero():
                continue
            scale = factor * field.inv(u)
            for k in range(nrows):
                if k != p and not A[k][q].is_zero():
                    A[k][l] = A[k][l] - A[k][q] * scale
        for k in range(nrows):
            del A[k][q]
        del A[p]
        del twists[lvl + 1][q]
        del twists[lvl][p]
        if lvl + 1 < len(mats):
            del mats[lvl + 1][q]
        if lvl >= 1:
            for row in mats[lvl - 1]:
                del row[p]
    modules = [GradedFreeModule(ring, tuple(tw)) for tw in twists]
    diffs = []
    for k, A in enumerate(mats):
        target = modules[k]
        ncols = len(twists[k + 1])
        cols = []
        for c in range(ncols):
            cols.append(PolyVector(target, tuple(A[r][c] for r in range(len(A)))))
        diffs.append(cols)
    # an exact minimal tail of rank-0 modules carries no information; the
    # zero module keeps a single rank-0 slot
    while len(modules) > 1 and modules[-1].rank == 0:
        modules.pop()
        if diffs:
            diffs.pop()
    res.modules = modules
    res.diffs = diffs


class BettiTable:
    """beta_{i,i+j} laid out as (i, j) -> multiplicity, with the extremal
    corner positions marked."""

    __slots__ = ("entries", "extremal")

    def __init__(self, entries):
        self.entries = {k: v for k, v in entries.items() if v}
        self.extremal = self._extremal_positions()

    def _extremal_positions(self):
        out = set()
        for (i, j), beta in self.entries.items():
            dominated = False
            for (h, k), other in self.entries.items():
                if (h, k) != (i, j) and h >= i and k >= j and other:
                    dominated = True
                    break
            if not dominated:
                out.add((i, j, beta))
        return out

    def projective_dimension(self):
        if not self.entries:
            raise InvalidArgumentError("Betti table of the zero module")
        return max(i for i, _ in self.entries)

    def regularity(self):
        if not self.entries:
            raise InvalidArgumentError("Betti table of the zero module")
        return max(j for _, j in self.entries)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def to_json_dict(self):
        grid = {}
        for (i, j), beta in sorted(self.entries.items()):
            grid.setdefault(str(i), {})[str(j)] = beta
        return {
            "table": grid,
            "extremal": [[i, j, b] for (i, j, b) in sorted(self.extremal)],
        }

    def __repr__(self):
        return "BettiTable(%s)" % (dict(sorted(self.entries.items())),)


def betti_table(res):
    """Graded Betti numbers of a minimal resolution: a twist tau in
    homological position i contributes to beta_{i, tau}."""
    if not res.minimal:
        raise InvalidArgumentError(
            "Betti numbers need a minimal resolution, which exists only over a "
            "parameter-free ring")
    entries = {}
    for i, module in enumerate(res.modules):
        for tau in module.twists:
            key = (i, tau - i)
            entries[key] = entries.get(key, 0) + 1
    return BettiTable(entries)


def extremal_betti(table):
    """Positions (i, j, beta) with no other nonzero entry weakly
    north-east of them."""
    return set(table.extremal)


def depth_and_regularity(table, num_vars):
    """depth via the Auslander-Buchsbaum formula, regularity as the maximal
    j with some beta_{i,i+j} nonzero."""
    pd = table.projective_dimension()
    return num_vars - pd, table.regularity()


def krull_dimension(pres):
    """Dimension of ambient/<gens> via the initial module."""
    G = buchberger(pres)
    ring = pres.ring
    leads_by_comp = {}
    for mon, comp in G.leads:
        leads_by_comp.setdefault(comp, []).append(mon)
    best = -1
    for comp in range(pres.ambient.rank):
        gens = leads_by_comp.get(comp, [])
        best = max(best, monomial_quotient_dimension(ring.nvars, gens))
    return best
