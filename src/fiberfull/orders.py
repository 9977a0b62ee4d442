"""Term orders on monomials and module orders on free-module terms.

Orders are exposed as key functions producing tuples; bigger key means
bigger monomial.  All orders here are global (1 is minimal) and
multiplicative, so sorted term lists stay sorted under term multiplication.
Keys are flat tuples whose entries are linear in the exponents, so the key
of m * u is the key of m plus a shift vector that depends on u alone
(``shift``); multiplying a term list by a term updates its keys by one
entrywise sum instead of re-deriving them.

Module monomials are pairs ``(monomial, component)``.  Each module order
has ``key(mon, comp)`` and ``shift(mon)``, the vector adding which to
``key(m, c)`` gives ``key(m * mon, c)``.  The standing module order is
term-over-position (lower component index wins ties), with the parameter
exponent ranked after the position, so that x-module terms m*e_c are
compared before powers of t; syzygy levels use the order induced by the
leading terms of a marked basis, which is what makes iterated syzygy
computation canonical.
"""

from .errors import InvalidArgumentError, OrderMismatchError
from .rings import mon_mul


class TermOrder:
    """One of lex, grevlex or weight-refined.

    grevlex takes the ring's canonical key: the degree, then grevlex on the
    positive-degree part, then the parameter exponent.  t has degree 0, so
    every monomial containing an x-variable sits above every power of t and
    grevlex eliminates x over k[t].  ``block-x-over-t`` names the same order
    in the input grammar and takes grevlex's key.  A weight-refined order
    breaks weight ties by grevlex.  Over a ring with a parameter every key
    ends with the parameter exponent alone; ``TOPOrder`` puts the position
    just before it.
    """

    __slots__ = ("kind", "omega")

    def __init__(self, kind, omega=None):
        if kind not in ("lex", "grevlex", "weighted", "block-x-over-t"):
            raise InvalidArgumentError("unknown term order kind %r" % (kind,))
        self.kind = kind
        self.omega = tuple(omega) if omega is not None else None
        if kind == "weighted":
            if self.omega is None:
                raise InvalidArgumentError("weight-refined order needs a weight vector")
            if any(w < 0 for w in self.omega):
                raise InvalidArgumentError("order weights must be nonnegative")

    @staticmethod
    def lex():
        return TermOrder("lex")

    @staticmethod
    def grevlex():
        return TermOrder("grevlex")

    @staticmethod
    def weighted(omega):
        return TermOrder("weighted", omega)

    @staticmethod
    def block_x_over_t():
        return TermOrder("block-x-over-t")

    def key(self, ring, mon):
        if self.kind == "lex":
            return mon
        if self.kind in ("grevlex", "block-x-over-t"):
            return ring.canonical_key(mon)
        # weight-refined
        w = sum(o * e for o, e in zip(self.omega, mon))
        return (w, *ring.canonical_key(mon))

    def describe(self):
        if self.kind == "weighted":
            return "weights:%s" % ",".join(str(w) for w in self.omega)
        return self.kind

    def __eq__(self, other):
        return (
            isinstance(other, TermOrder)
            and self.kind == other.kind
            and self.omega == other.omega
        )

    def __hash__(self):
        return hash((self.kind, self.omega))

    def __repr__(self):
        return "TermOrder(%s)" % self.describe()


def order_from_string(text):
    """Parse ``lex``, ``grevlex``, ``block-x-over-t`` or ``weights:1,2,2``."""
    text = text.strip()
    if text == "lex":
        return TermOrder.lex()
    if text == "grevlex":
        return TermOrder.grevlex()
    if text == "block-x-over-t":
        return TermOrder.block_x_over_t()
    if text.startswith("weights:"):
        try:
            omega = [int(s) for s in text[len("weights:"):].split(",")]
        except ValueError:
            raise InvalidArgumentError("bad weight list in order %r" % text)
        return TermOrder.weighted(omega)
    raise InvalidArgumentError("unknown term order %r" % text)


class TOPOrder:
    """Term over position: the positive-degree part of the ring order first,
    then the position (lower component wins ties), then the parameter
    exponent.  Within one component this is the ring order; across
    components an x-module term m*e_c outranks every t-multiple of a smaller
    one, so a reduced basis of a module over k[t][x] is led by its x-module
    terms, as it is for an ideal.  A weight-refined order must carry one
    weight per positive-degree variable of the ring."""

    __slots__ = ("ring", "term_order", "_head", "_tail")

    def __init__(self, ring, term_order):
        omega, r = term_order.omega, len(ring.weights)
        if omega is not None and len(omega) != r:
            raise OrderMismatchError(
                "weight vector has %d entries for a ring with %d positive-degree variables"
                % (len(omega), r))
        self.ring = ring
        self.term_order = term_order
        # the slices of a term key before and after the position
        self._head, self._tail = ((slice(-1), slice(-1, None)) if ring.has_parameter
                                  else (slice(None), slice(0)))

    def key(self, mon, comp):
        k = self.term_order.key(self.ring, mon)
        return (*k[self._head], -comp, *k[self._tail])

    def shift(self, mon):
        k = self.term_order.key(self.ring, mon)
        return (*k[self._head], 0, *k[self._tail])


class SchreyerOrder:
    """Order induced by the leading terms of a marked basis living in a
    parent module: compare images of leading terms, then position.  The
    key is the parent key of the image with -comp appended."""

    __slots__ = ("parent", "leads")

    def __init__(self, parent, leads):
        self.parent = parent
        self.leads = tuple(leads)

    def key(self, mon, comp):
        pm, pc = self.leads[comp]
        return (*self.parent.key(mon_mul(mon, pm), pc), -comp)

    def shift(self, mon):
        return (*self.parent.shift(mon), 0)


class BlockTOPOrder(TOPOrder):
    """Elimination order on components: the first ``split`` components sit
    above the rest; within each block, term over position.  The key is the
    block flag in front of the ``TOPOrder`` key."""

    __slots__ = ("split",)

    def __init__(self, ring, term_order, split):
        super().__init__(ring, term_order)
        self.split = split

    def key(self, mon, comp):
        return (1 if comp < self.split else 0, *TOPOrder.key(self, mon, comp))

    def shift(self, mon):
        return (0, *TOPOrder.shift(self, mon))
