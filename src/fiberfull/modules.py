"""Graded free modules with twists, their elements, and module presentations.

A ``GradedFreeModule`` is a direct sum of twisted copies of the ring; the
``twists`` list records the degree of each basis element.  Every module
presentation, a submodule or the quotient by it, including each Ext module,
is a ``SubmodulePresentation``: ambient free module plus homogeneous
generators.  ``relations`` is the quotient-side name of the generators.
"""

from .errors import InvalidArgumentError, RingMismatchError
from .rings import Polynomial


class GradedFreeModule:
    __slots__ = ("ring", "twists")

    def __init__(self, ring, twists):
        self.ring = ring
        self.twists = tuple(twists)

    @property
    def rank(self):
        return len(self.twists)

    def basis_vector(self, i):
        comps = [self.ring.zero()] * self.rank
        comps[i] = self.ring.one()
        return PolyVector(self, tuple(comps))

    def vector(self, components):
        comps = []
        for c in components:
            if isinstance(c, Polynomial):
                if c.ring != self.ring:
                    raise RingMismatchError("component in wrong ring")
                comps.append(c)
            else:
                comps.append(self.ring.constant(c))
        if len(comps) != self.rank:
            raise InvalidArgumentError("expected %d components, got %d" % (self.rank, len(comps)))
        return PolyVector(self, tuple(comps))

    def dual(self):
        return GradedFreeModule(self.ring, tuple(-d for d in self.twists))

    def __eq__(self, other):
        return (
            isinstance(other, GradedFreeModule)
            and self.ring == other.ring
            and self.twists == other.twists
        )

    def __hash__(self):
        return hash((self.ring, self.twists))

    def __repr__(self):
        return "FreeModule(rank=%d, twists=%s)" % (self.rank, list(self.twists))


class PolyVector:
    """Element of a graded free module; components are polynomials."""

    __slots__ = ("module", "components")

    def __init__(self, module, components):
        self.module = module
        self.components = tuple(components)

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def _check(self, other):
        if self.module != other.module:
            raise RingMismatchError("vectors live in different modules")

    def __add__(self, other):
        self._check(other)
        return PolyVector(self.module, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        self._check(other)
        return PolyVector(self.module, tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self):
        return PolyVector(self.module, tuple(-a for a in self.components))

    def scale(self, c):
        return PolyVector(self.module, tuple(a * c for a in self.components))

    def mul_poly(self, f):
        return PolyVector(self.module, tuple(a * f for a in self.components))

    def mul_term(self, mon, coeff):
        return PolyVector(self.module, tuple(a.mul_term(mon, coeff) for a in self.components))

    def degrees(self):
        out = set()
        for twist, c in zip(self.module.twists, self.components):
            out.update(d + twist for d in c.degrees())
        return sorted(out)

    def is_homogeneous(self):
        return len(self.degrees()) <= 1 and all(c.is_homogeneous() for c in self.components)

    def degree(self):
        degs = self.degrees()
        if not degs:
            raise InvalidArgumentError("degree of the zero vector")
        if len(degs) > 1:
            raise InvalidArgumentError("vector is not homogeneous")
        return degs[0]

    def __eq__(self, other):
        return (
            isinstance(other, PolyVector)
            and self.module == other.module
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.module, self.components))

    def __str__(self):
        if self.module.rank == 1:
            return str(self.components[0])
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    def __repr__(self):
        return "<vec %s>" % self


class SubmodulePresentation:
    """Ambient free module together with homogeneous generators.  It stands
    for the submodule they span or for the quotient ambient/<generators>;
    on the quotient side the generators are its relations."""

    __slots__ = ("ambient", "generators")

    def __init__(self, ambient, generators):
        gens = []
        for g in generators:
            if g.module != ambient:
                raise RingMismatchError("generator outside the ambient module")
            if not g.is_zero():
                gens.append(g)
        self.ambient = ambient
        self.generators = tuple(gens)

    @staticmethod
    def ideal(ring, polys):
        amb = GradedFreeModule(ring, (0,))
        return SubmodulePresentation(amb, [amb.vector([f]) for f in polys])

    @property
    def ring(self):
        return self.ambient.ring

    @property
    def relations(self):
        return self.generators

    def as_quotient(self):
        """The presentation already stands for its quotient."""
        return self

    def __eq__(self, other):
        return (
            isinstance(other, SubmodulePresentation)
            and self.ambient == other.ambient
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.ambient, self.generators))

    def __repr__(self):
        return "SubmodulePresentation(rank=%d, gens=%d)" % (self.ambient.rank, len(self.generators))
