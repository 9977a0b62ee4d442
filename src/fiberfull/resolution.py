"""Graded free resolutions by iterated syzygies, pruned by pivoting on unit
entries, graded Betti numbers, extremal Betti positions, depth and
Castelnuovo-Mumford regularity.

Every ring takes the same route: the Schreyer frame over the minimal pairs
(La Scala-Stillman), then one pruning sweep.  Over k[x] the result is the
minimal resolution; over k[t][x] it is a free resolution that may keep
degree-0 entries such as t - 1, so it carries no Betti table.

A differential is stored as its sparse rows, which the Groebner engine
hands over level by level and which are pruned in place; read in
F_{k+1}^* they are the columns of the transposed map that Ext and the
local cohomology tables use.
"""

from math import inf

from .errors import InvalidArgumentError
from .groebner import _schreyer_levels, buchberger
from .hilbert import _numerator, _order_at_one
from .modules import GradedFreeModule


class Resolution:
    """Chain F_0 <- F_1 <- ... with graded differentials; rows[k][r] maps each
    column c to the nonzero entry (r, c) of d_{k+1}: F_{k+1} -> F_k.

    ``basis`` is the reduced basis of the relations that the frame starts
    from, so that the torsion certificate and the codimension of the module
    read the basis its resolution already computed; a specialized
    resolution has none.  ``minimal`` stays False until the pruning sweep
    settles it."""

    __slots__ = ("modules", "rows", "minimal", "basis")

    def __init__(self, modules, rows, basis=None):
        self.modules = list(modules)
        self.rows = list(rows)
        self.minimal = False
        self.basis = basis

    @property
    def length(self):
        return len(self.rows)

    @property
    def ring(self):
        return self.modules[0].ring

    def ranks(self):
        return [m.rank for m in self.modules]

    def check_complex(self):
        """d o d = 0 for every consecutive pair."""
        zero = self.ring.zero()
        for upper, lower in zip(self.rows, self.rows[1:]):
            for row in upper:
                product = {}
                for m, a in row.items():
                    for c, b in lower[m].items():
                        product[c] = product.get(c, zero) + a * b
                if any(not entry.is_zero() for entry in product.values()):
                    return False
        return True

    def __repr__(self):
        return "Resolution(ranks=%s, minimal=%s)" % (self.ranks(), self.minimal)


def free_resolution(pres):
    """The graded free resolution of ambient/<generators>: the Schreyer
    frame with the unit entries pruned.  It is minimal exactly when the ring
    has no parameter; over k[t][x] degree-0 entries such as t - 1 can
    remain, so it is a free resolution that is not claimed minimal."""
    res = _schreyer_frame(pres)
    _minimize_in_place(res)
    return res


def specialize_resolution(res, c):
    """The complex F (x) k[t]/(t - c) of a resolution F over k[t][x], with
    its unit entries pruned: the minimal resolution of M/(t - c)M over k[x]
    when the module M that F resolves has no (t - c)-torsion, for then
    Tor_1 over k[t] vanishes and the specialized complex stays exact.
    Entries vanishing at t = c are dropped; ``res`` is left as it was."""
    target = res.ring.without_parameter()
    modules = [GradedFreeModule(target, m.twists) for m in res.modules]
    rows = [[{col: s for col, entry in row.items()
              if not (s := entry.specialize_parameter(c, target)).is_zero()} for row in A]
            for A in res.rows]
    out = Resolution(modules, rows)
    _minimize_in_place(out)
    return out


def _schreyer_frame(pres):
    """The unminimized resolution by iterated Schreyer syzygies of the
    minimal pairs."""
    for g in pres.generators:
        if not g.is_homogeneous():
            raise InvalidArgumentError("resolution requires homogeneous generators")
    G = buchberger(pres)
    modules, rows = [pres.ambient], []
    for twists, level in _schreyer_levels(G):
        modules.append(GradedFreeModule(pres.ring, twists))
        rows.append(level)
    return Resolution(modules, rows, G)


def _minimize_in_place(res):
    """Split off the trivial subcomplex of every unit entry, in one sweep per
    level: rows in order, each scanned from column 0 for a nonzero constant.
    A pivot deletes its row, so the scan moves on to the next row.

    An update A[k][l] -= A[k][q] * A[p][l] / u of homogeneous entries makes
    a new unit only when both factors have degree 0.  Over a positively
    graded k[x] that makes A[k][q] a unit in a row already scanned, which
    the scan ruled out: one sweep leaves no unit and the result is minimal.
    Over k[t][x] degree-0 entries such as t - 1 may combine into a unit the
    sweep has passed; the result is still a free resolution of the same
    module, so ``res.minimal`` is set exactly when the ring has no
    parameter.

    The rows of ``res`` are pruned as they stand; a stored entry is nonzero,
    so a constant one is a unit.  Rows and columns keep their frame indices
    until the survivors are renumbered at the end, so the first column is
    the smallest index."""
    ring = res.ring
    field = ring.field
    rows = res.rows
    alive = [[True] * m.rank for m in res.modules]
    zero = ring.zero()
    for lvl, A in enumerate(rows):
        for p, pivot_row in enumerate(A):
            q = min((c for c, entry in pivot_row.items() if entry.is_constant()), default=None)
            if q is None:
                continue
            # Gaussian update on this differential, then delete row p and
            # column q; the neighbouring differentials only lose the
            # matching row/column
            inv = field.inv(pivot_row.pop(q).constant_value())
            scales = [(l, factor * inv) for l, factor in pivot_row.items()]
            A[p] = {}
            for row in A:
                a = row.pop(q, None)
                if a is None:
                    continue
                for l, scale in scales:
                    entry = row.get(l, zero).minus_product(a, scale)
                    if entry.is_zero():
                        row.pop(l, None)
                    else:
                        row[l] = entry
            alive[lvl][p] = alive[lvl + 1][q] = False
            if lvl + 1 < len(rows):
                rows[lvl + 1][q] = {}
            if lvl >= 1:
                for row in rows[lvl - 1]:
                    row.pop(p, None)
    kept = [[i for i, a in enumerate(flags) if a] for flags in alive]
    modules = [GradedFreeModule(ring, tuple(m.twists[i] for i in kept[k]))
               for k, m in enumerate(res.modules)]
    index = [{i: j for j, i in enumerate(ks)} for ks in kept]
    rows = [[{index[k + 1][c]: entry for c, entry in A[r].items()} for r in kept[k]]
            for k, A in enumerate(rows)]
    # an exact minimal tail of rank-0 modules carries no information; the
    # zero module keeps a single rank-0 slot
    while len(modules) > 1 and modules[-1].rank == 0:
        modules.pop()
        rows.pop()
    res.modules = modules
    res.rows = rows
    res.minimal = not ring.has_parameter


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


def depth_and_regularity(table, num_vars):
    """depth via the Auslander-Buchsbaum formula, regularity as the maximal
    j with some beta_{i,i+j} nonzero."""
    pd = table.projective_dimension()
    return num_vars - pd, table.regularity()


def _codimension(G):
    """Codimension of the module presented by the reduced basis G of its
    relations, read off the leads with every variable (the parameter
    included) of degree one: the order of vanishing at z = 1 of the sum
    over the components c of the numerators of k[x]/<leads in c>.  Each
    numerator is (1 - z)^(n - dim_c) times a polynomial positive at z = 1,
    or zero when c holds 1, so the sum vanishes to order n minus the largest
    dim_c, the Krull dimension of the module.  The zero module has infinite
    codimension."""
    leads_by_comp = [[] for _ in range(G.module.rank)]
    for mon, comp in G.leads:
        leads_by_comp[comp].append(mon)
    ones = (1,) * G.ring.nvars
    N = {}
    for leads in leads_by_comp:
        for e, c in _numerator(leads, ones).items():
            N[e] = N.get(e, 0) + c
    return _order_at_one(N)


def _twist_codimension(res):
    """Codimension of the module a resolution over k[x] resolves, read off
    its twists alone: the order of vanishing at z = 1 of the numerator
    K(z) = sum_k (-1)^k sum_tau z^tau of the Hilbert series.  The
    denominator prod (1 - z^w_i) vanishes there to order r, and the series
    has a pole of order dim M, so K vanishes to order r - dim M.  K = 0
    exactly for the zero module, of infinite codimension."""
    K = {}
    for k, module in enumerate(res.modules):
        for tau in module.twists:
            K[tau] = K.get(tau, 0) + (-1) ** k
    return _order_at_one(K)


def krull_dimension(pres):
    """Dimension of ambient/<gens> via the initial module, whose summed
    numerators give the codimension (``_codimension``); -1 for the zero
    module."""
    c = _codimension(buchberger(pres))
    return pres.ring.nvars - c if c != inf else -1
