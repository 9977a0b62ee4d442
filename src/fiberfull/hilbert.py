"""Exact Hilbert functions of graded module presentations.

Counting standard monomials degree by degree is done through the numerator
of the monomial-ideal Hilbert series: Bigatti's pivot recursion splits the
ideal on a power of its most frequent variable until the generators are
pairwise coprime, and the numerator is then expanded against the weighted
denominator on the requested window.  When a degree-0 parameter
variable is present, the counts per positive-degree monomial are the number
of parameter powers that stay standard, which is finite exactly when the
parameter-free generator supports eventually cover everything; otherwise the
quotient has infinite dimension in some degree and we refuse.

The same numerators give codimensions: a Hilbert series numerator over a
denominator vanishing at z = 1 to order n vanishes there to order n minus
the dimension, and ``_order_at_one`` takes that order for the module of a
resolution and for the leads of a Groebner basis alike.
"""

from math import comb, inf
from operator import mul

from .errors import InfiniteDimensionError, InvalidArgumentError
from .rings import mon_divides

# ---------- monomial ideal numerator: Bigatti's pivot ----------


def _minimalize(gens):
    """Minimal generators of a monomial ideal as a sorted tuple, the memo
    key.  A proper divisor has a strictly smaller total degree, so each
    generator is tested only against kept generators of smaller degree."""
    kept = []
    smaller = 0  # kept[:smaller] have a degree below the current one
    current = None
    for d, g in sorted((sum(g), g) for g in set(gens)):
        if d != current:
            current, smaller = d, len(kept)
        if not any(mon_divides(h, g) for h in kept[:smaller]):
            kept.append(g)
    return tuple(sorted(kept))


def _coprime_numerator(gens, weights):
    """Numerator of R/<gens> for pairwise coprime generators: the product of
    the factors 1 - t^deg(g)."""
    out = {0: 1}
    for g in gens:
        d = sum(map(mul, weights, g))
        nxt = dict(out)
        for k, c in out.items():
            nxt[k + d] = nxt.get(k + d, 0) - c
        out = {k: c for k, c in nxt.items() if c}
    return out


def _pivot_split(gens):
    """``(I + (p), I : p, i, e)`` for the pivot p = x_i^e of Bigatti's
    strategy, or None when the minimal generators ``gens`` are pairwise
    coprime.  x_i occurs in the most generators and e is the lower median of
    its positive exponents; a pure power of x_i among minimal generators has
    the strictly largest x_i-exponent, so p is not in I."""
    occurrences = [len(gens) - column.count(0) for column in zip(*gens)]
    top = max(occurrences, default=0)
    if top < 2:
        return None
    i = occurrences.index(top)
    exps = sorted(g[i] for g in gens if g[i])
    e = exps[(len(exps) - 1) // 2]
    pure = tuple(e if j == i else 0 for j in range(len(gens[0])))
    # generators not divisible by p stay minimal beside p
    plus = tuple(sorted([g for g in gens if g[i] < e] + [pure]))
    colon = _minimalize([g[:i] + (max(0, g[i] - e),) + g[i + 1:] for g in gens])
    return plus, colon, i, e


def _numerator(gens, weights):
    """dict degree -> coefficient of the Hilbert series numerator of R/<gens>.

    Bigatti's pivot recursion N(I) = N(I + (p)) + t^deg(p) N(I : p)
    (Bigatti, "Computation of Hilbert-Poincare series", JPAA 1997), from
    the exact sequence 0 -> R/(I : p)(-deg p) -> R/I -> R/(I + (p)) -> 0.
    Each step lowers the sum of the total degrees of the minimal generators:
    I + (p) replaces the two or more generators divisible by p with p, and
    in I : p at least two generators lose part of their x_i-power.  So the
    recursion ends.  It runs on an explicit stack, so its depth meets no
    interpreter limit, and a memo shares the numerators of repeated ideals."""
    root = _minimalize(gens)
    memo = {}
    stack = [(root, None)]
    while stack:
        ideal, split = stack.pop()
        if ideal in memo:
            continue
        if split is None:
            split = _pivot_split(ideal)
            if split is None:
                memo[ideal] = _coprime_numerator(ideal, weights)
                continue
            stack.append((ideal, split))
            stack.extend((child, None) for child in split[:2])
            continue
        plus, colon, i, e = split
        out = dict(memo[plus])
        shift = weights[i] * e
        for k, c in memo[colon].items():
            out[k + shift] = out.get(k + shift, 0) + c
        memo[ideal] = {k: c for k, c in out.items() if c}
    return memo[root]


def monomial_quotient_counts(weights, gens, max_degree):
    """Hilbert function of k[x]/<monomial gens> in degrees 0..max_degree."""
    if max_degree < 0:
        return []
    num = _numerator([tuple(g) for g in gens], tuple(weights))
    series = [0] * (max_degree + 1)
    for k, c in num.items():
        if 0 <= k <= max_degree:
            series[k] += c
    for w in weights:
        for d in range(w, max_degree + 1):
            series[d] += series[d - w]
    return series


def _order_at_one(num):
    """Order of vanishing at z = 1 of the Laurent polynomial whose
    coefficients are ``num`` (degree -> coefficient): the least m with a
    nonzero m-th Taylor coefficient there.  The zero polynomial vanishes to
    infinite order."""
    num = {e: c for e, c in num.items() if c}
    if not num:
        return inf
    low = min(num)
    # the m-th Taylor coefficient at z = 1 of z^-low * num(z)
    m = 0
    while not sum(c * comb(e - low, m) for e, c in num.items()):
        m += 1
    return m


def monomials_of_degree(ring, degree):
    """All monomials of the given weighted degree (parameter-free rings)."""
    if ring.has_parameter:
        raise InvalidArgumentError("monomial enumeration needs a parameter-free ring")
    if degree < 0:
        return []
    *head, last = ring.weights
    # (prefix, degree left), extended one variable at a time in lexicographic
    # order; a prefix with no degree left gets its zeros once, at the end
    prefixes = [((), degree)]
    for w in head:
        prefixes = [(p + (e,), left - w * e) if left else (p, 0)
                    for p, left in prefixes for e in range(left // w + 1)]
    return [p + (0,) * (len(head) - len(p)) + (left // last,)
            for p, left in prefixes if left % last == 0]


class HilbertTable:
    """Degree -> dimension map on a finite window, values exact."""

    __slots__ = ("window", "dims")

    def __init__(self, window, dims):
        lo, hi = window
        self.window = (lo, hi)
        self.dims = {nu: dims.get(nu, 0) for nu in range(lo, hi + 1)}

    def __getitem__(self, nu):
        return self.dims[nu]

    def is_zero(self):
        return all(v == 0 for v in self.dims.values())

    def __eq__(self, other):
        return (
            isinstance(other, HilbertTable)
            and self.window == other.window
            and self.dims == other.dims
        )

    def to_json_dict(self):
        return {
            "window": [self.window[0], self.window[1]],
            "dims": {str(nu): self.dims[nu] for nu in range(self.window[0], self.window[1] + 1)},
        }

    def __repr__(self):
        nz = {nu: d for nu, d in sorted(self.dims.items()) if d}
        return "HilbertTable(%s on [%d, %d])" % (nz, self.window[0], self.window[1])


def check_window(window):
    """The bounds (lo, hi) of a window; every entry point taking a window
    calls this first, so an empty one is reported as the caller gave it."""
    lo, hi = window
    if lo > hi:
        raise InvalidArgumentError("empty window [%d, %d]" % (lo, hi))
    return lo, hi


def hilbert_from_leads(ring, rank, twists, leads, window):
    """Hilbert table of ambient/<monomial module generated by leads> where
    ``leads`` is a list of (monomial, component) pairs."""
    lo, hi = window
    weights = ring.weights
    r = ring.num_positive
    per_comp = [[] for _ in range(rank)]
    for mon, comp in leads:
        per_comp[comp].append(mon)
    dims = {}
    for comp in range(rank):
        shift = twists[comp]
        top = hi - shift
        if top < 0:
            continue
        gens = per_comp[comp]
        levels = [gens]
        if ring.has_parameter:
            # for a positive-degree monomial m the number of standard
            # parameter powers is the least t-exponent among generators whose
            # x-part divides m; sum over b of the quotients by the x-part
            # ideals of generators with t-exponent <= b
            tmax = max((g[r] for g in gens), default=0)
            tail_counts = monomial_quotient_counts(weights, [g[:r] for g in gens], top)
            if any(tail_counts[d] != 0 for d in range(max(0, lo - shift), top + 1)):
                raise InfiniteDimensionError(
                    "quotient has infinite dimension per degree; specialize or "
                    "eliminate the parameter first")
            levels = [[g[:r] for g in gens if g[r] <= b] for b in range(tmax)]
        for level in levels:
            for d, c in enumerate(monomial_quotient_counts(weights, level, top)):
                nu = d + shift
                if lo <= nu <= hi and c:
                    dims[nu] = dims.get(nu, 0) + c
    return HilbertTable(window, dims)
