"""Fiber-fullness over a polynomial line, torsion certificates, the
fiber-full locus, fiber comparison, and verification of square-free initial
degenerations.

The base is k[t] with t of degree 0 adjoined to the graded ring.  Freeness of
a finitely generated graded piece over the localized base at (t - c) is
exactly the absence of (t - c)-torsion, so every check reduces to computing
the torsion submodule and a monic annihilator in k[t]:

  * the torsion of ambient/<relations> is the saturation of the relations at
    a single polynomial h(t), the least common multiple of the parameter
    coefficients of the leading positive-degree terms of the reduced basis;
  * the certificate polynomial generates the contraction to k[t] of the
    annihilator of the torsion generators.  The module order ranks the
    positive-degree part of a term first, then its position, then its power
    of t (``orders.TOPOrder``), so every x-module term m*e_c sits above each
    t-multiple of a smaller one: the lead of a basis element is its leading
    x-module term, which is what generic freeness reads, and one basis per
    module serves every step.

A module is fiber-full at (t - c) when neither the module itself nor any of
Ext^0..Ext^r against the ambient polynomial ring has torsion there.  These
certificates do not depend on c, so they are computed once per module, the
Ext modules read off its one resolution and none presented below the
codimension, where Ext vanishes: a check at (t - c) evaluates their
annihilators at c, and the locus polynomial is the monic lcm of the
annihilators; its nonvanishing set is exactly the set of good fibers.  The
certificates of the last presentation checked are kept
(``functools.lru_cache`` of one entry), so the locus followed by checks at
several points computes them once.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import InvalidArgumentError, TheoremViolationError
from .ext import _ext_from_resolution, _tables_from_resolution, local_cohomology_tables
from .groebner import (
    buchberger,
    homogenize_omega,
    initial_module,
    is_squarefree,
    module_kernel,
    normal_form,
    saturate,
    weight_vector_for,
)
from .hilbert import check_window
from .modules import GradedFreeModule, PolyVector, SubmodulePresentation
from .resolution import (
    _codimension,
    betti_table,
    depth_and_regularity,
    free_resolution,
    specialize_resolution,
)
from .rings import Polynomial, evaluate_parameter, parameter_lcm


# ---------------------------------------------------------------------------
# torsion certificates


@dataclass(frozen=True)
class TorsionCertificate:
    index: object  # Ext index, or None for the module itself
    torsion_generators: tuple
    annihilator: object  # monic polynomial in the parameter; 1 when no torsion

    def is_torsion_free(self):
        return not self.torsion_generators

    @cached_property
    def _printed(self):
        """The strings of the torsion generators and of the annihilator,
        formed once: a memoized certificate is printed by every report."""
        return tuple(str(v) for v in self.torsion_generators), str(self.annihilator)

    def to_json_dict(self):
        generators, annihilator = self._printed
        return {
            "index": self.index,
            "torsion_generators": list(generators),
            "annihilator": annihilator,
        }


def _leading_parameter_content(G):
    """lcm over the basis of the parameter coefficient of each element's
    leading x-module term (the module order ranks x and the position above
    t)."""
    ring = G.ring
    r = ring.num_positive
    xzero = (0,) * r
    h = ring.one()
    for v, (lead_mon, comp) in zip(G.elements, G.leads):
        xpart = lead_mon[:r]
        content = {xzero + mon[r:]: c for mon, c in v.components[comp].terms
                   if mon[:r] == xpart}
        h = parameter_lcm(h, Polynomial(ring, content))
    return h


def parameter_torsion(pres):
    """Torsion certificate of ambient/<relations> over the parameter line:
    generators of the saturation of the relations at the leading-content
    polynomial, reduced to normal form, plus the monic annihilator obtained
    by contracting the colon ideal to the parameter.  One reduced basis of
    the relations serves all three steps."""
    ring = pres.ring
    if not ring.has_parameter:
        raise InvalidArgumentError("parameter torsion needs a ring with a parameter")
    if pres.ambient.rank == 0:
        return TorsionCertificate(None, (), ring.one())
    return _basis_torsion(buchberger(pres))


def _basis_torsion(G):
    """``parameter_torsion`` of the module presented by the reduced basis G
    of its relations."""
    one = G.ring.one()
    if len(G) == 0:
        return TorsionCertificate(None, (), one)
    h = _leading_parameter_content(G)
    if h.is_constant():
        return TorsionCertificate(None, (), one)
    sat = saturate(SubmodulePresentation(G.module, G.elements), h)
    torsion = []
    for v in sat.generators:
        nf = normal_form(v, G)
        if not nf.is_zero():
            torsion.append(nf)
    if not torsion:
        return TorsionCertificate(None, (), one)
    g = _torsion_annihilator(G, torsion)
    return TorsionCertificate(None, tuple(torsion), g)


def _torsion_annihilator(G, torsion):
    """Monic generator of {p in k[t] : p * w in <relations> for all torsion
    generators w}: the lcm over distinct w of the contraction to k[t] of the
    kernel of p -> p * w modulo the relations.  Each kernel is an ideal, and
    in rank one the module order is grevlex, which ranks every monomial
    containing an x above every power of t: its reduced basis has one
    element in k[t], and that element is monic."""
    g = G.ring.one()
    for w in dict.fromkeys(torsion):
        ann = module_kernel([w], (0,), ambient=G.module, modulo=G.elements)
        polys = [v.components[0] for v in ann if v.components[0].is_parameter_only()]
        if not polys:
            raise InvalidArgumentError("torsion annihilator does not meet the parameter ring")
        g = parameter_lcm(g, polys[0])
    return g


# ---------------------------------------------------------------------------
# fiber-fullness


@dataclass(frozen=True)
class IndexVerdict:
    index: int
    free_over_base: bool
    certificate: TorsionCertificate

    def to_json_dict(self):
        return {
            "index": self.index,
            "free_over_base": self.free_over_base,
            "certificate": self.certificate.to_json_dict(),
        }


@dataclass(frozen=True)
class FiberFullReport:
    at: object  # field element c; the prime checked is (t - c)
    module_free_over_base: bool
    module_certificate: TorsionCertificate
    verdicts: tuple
    overall: bool

    def prime_str(self):
        c = self.at
        if c == 0:
            return "t"
        return "t+%s" % (-c,) if c < 0 else "t-%s" % (c,)

    def to_json_dict(self):
        return {
            "prime": self.prime_str(),
            "module_free_over_base": self.module_free_over_base,
            "module_certificate": self.module_certificate.to_json_dict(),
            "ext_verdicts": [v.to_json_dict() for v in self.verdicts],
            "overall": self.overall,
        }


def _free_at(cert, c):
    g = cert.annihilator
    if g.is_constant():
        return True
    return evaluate_parameter(g, c) != g.ring.field.zero


def _certificates(res):
    """Torsion certificates of the module that ``res`` resolves and of
    Ext^0..Ext^r against the ambient ring (r counting positive-degree
    variables only), the Ext modules read off ``res``: the pair (module
    certificate, tuple of Ext certificates).  The module certificate and the
    codimension read the reduced basis the resolution was built on.

    The ambient ring is Cohen-Macaulay, so Ext^i(M, R) = 0 for every
    i < grade(ann M) = codim M (Bruns-Herzog, Cohen-Macaulay Rings, 1.2.10
    and 2.1.4): such an Ext^i is not presented and gets the certificate of
    the zero module."""
    G = res.basis
    module_cert = _basis_torsion(G)
    codim = _codimension(G)
    ext_certs = []
    for i in range(res.ring.num_positive + 1):
        if i < codim:
            ext_certs.append(TorsionCertificate(i, (), res.ring.one()))
            continue
        cert = parameter_torsion(_ext_from_resolution(res, i))
        ext_certs.append(TorsionCertificate(i, cert.torsion_generators, cert.annihilator))
    return module_cert, tuple(ext_certs)


@lru_cache(maxsize=1)
def _module_certificates(pres):
    """The certificates of a module over a parameter ring, from its one
    resolution; those of the last module asked about are kept."""
    if not pres.ring.has_parameter:
        raise InvalidArgumentError("fiber-fullness is checked over a parameter ring")
    return _certificates(free_resolution(pres))


def _report(certs, at):
    """The fiber-fullness report at (t - at) read off the certificates."""
    module_cert, ext_certs = certs
    verdicts = tuple(IndexVerdict(c.index, _free_at(c, at), c) for c in ext_certs)
    module_free = _free_at(module_cert, at)
    overall = module_free and all(v.free_over_base for v in verdicts)
    return FiberFullReport(at, module_free, module_cert, verdicts, overall)


def fiber_full_check(pres, at):
    """Decide fiber-fullness of ambient/<gens> at the prime (t - at): the
    module and every Ext^i against the ambient ring, i = 0..r, must be
    torsion-free there, that is, no certificate annihilator vanishes at
    ``at``."""
    return _report(_module_certificates(pres), at)


def fiber_full_locus(pres):
    """Monic polynomial g(t) whose nonvanishing locus is exactly the set of
    primes (t - c) at which the module is fiber-full: the lcm of the
    certificate annihilators."""
    module_cert, ext_certs = _module_certificates(pres)
    g = pres.ring.one()
    for cert in (module_cert,) + ext_certs:
        g = parameter_lcm(g, cert.annihilator)
    return g


def specialize_presentation(pres, c):
    """Substitute the parameter by a field element in every generator."""
    target = pres.ring.without_parameter()
    amb = GradedFreeModule(target, pres.ambient.twists)
    gens = []
    for g in pres.generators:
        gens.append(PolyVector(amb, tuple(p.specialize_parameter(c, target) for p in g.components)))
    return SubmodulePresentation(amb, gens)


def generic_point(pres):
    """Smallest nonnegative integer c with g(c) != 0 for the locus
    polynomial g; stands in for the generic fiber.  g has at most deg g
    roots, so the candidates 0..deg g suffice (fewer in a small field)."""
    g = fiber_full_locus(pres)
    field = pres.ring.field
    candidates = max(mon[-1] for mon in g.coeffs) + 1
    if field.p is not None:
        candidates = min(candidates, field.p)
    for c in range(candidates):
        if evaluate_parameter(g, c) != field.zero:
            return c
    raise InvalidArgumentError("no good specialization point exists in the field")


def fiber_hilbert_compare(pres, points, window):
    """Local cohomology tables H^0..H^r of the fibers at the given points
    ("generic" resolves to the smallest good integer point, computed once),
    one list per point and one resolution per distinct point.  Inside the
    fiber-full locus these tables agree."""
    check_window(window)
    generic = generic_point(pres) if "generic" in points else None
    at = [generic if c == "generic" else c for c in points]
    tables = {c: local_cohomology_tables(specialize_presentation(pres, c), window)
              for c in dict.fromkeys(at)}
    return [tables[c] for c in at]


# ---------------------------------------------------------------------------
# square-free degeneration verification


@dataclass(frozen=True)
class DegenerationReport:
    order: object
    omega: tuple
    initial_generators: tuple
    family_generators: tuple
    squarefree: bool
    fiberfull: FiberFullReport
    tables_ideal: tuple
    tables_initial: tuple
    equal: bool
    betti_ideal: object
    betti_initial: object
    depth_ideal: int
    reg_ideal: int
    depth_initial: int
    reg_initial: int
    window: tuple

    def extremal_equal(self):
        return self.betti_ideal.extremal == self.betti_initial.extremal

    def to_json_dict(self):
        return {
            "order": self.order.describe(),
            "omega": list(self.omega),
            "initial_ideal": [str(g) for g in self.initial_generators],
            "family": [str(g) for g in self.family_generators],
            "squarefree": self.squarefree,
            "fiberfull": self.fiberfull.to_json_dict(),
            "window": [self.window[0], self.window[1]],
            "hilbert_ideal": [t.to_json_dict() for t in self.tables_ideal],
            "hilbert_initial": [t.to_json_dict() for t in self.tables_initial],
            "equal": self.equal,
            "betti_ideal": self.betti_ideal.to_json_dict(),
            "betti_initial": self.betti_initial.to_json_dict(),
            "depth_ideal": self.depth_ideal,
            "reg_ideal": self.reg_ideal,
            "depth_initial": self.depth_initial,
            "reg_initial": self.reg_initial,
            "extremal_equal": self.extremal_equal(),
        }


def verify_degeneration(pres, order, window):
    """Full verification pipeline for one homogeneous ideal and term order:
    initial ideal and square-freeness, weight vector and homogenized family,
    fiber-fullness of the family at t = 0, local cohomology tables of both
    ends, Betti tables, extremal positions, depth and regularity.  Only the
    family is resolved; the ends take its resolution specialized at t = 1
    and t = 0.

    When the initial ideal is square-free and the family is fiber-full, the
    tables must agree degreewise; if they do not, something is inconsistent
    and a theorem-violation error carrying the report is raised.  A family
    with torsion over k[t] is not flat, which a Groebner family always is,
    and raises a theorem-violation error too.
    """
    check_window(window)
    ring = pres.ring
    if ring.has_parameter:
        raise InvalidArgumentError("the input ideal must not involve the parameter")
    if pres.ambient.rank != 1:
        raise InvalidArgumentError("degeneration verification expects an ideal")
    for g in pres.generators:
        if not g.is_homogeneous():
            raise InvalidArgumentError("degeneration verification needs a homogeneous ideal")
    r = ring.num_positive
    G = buchberger(pres, order)
    init = initial_module(G)
    squarefree = is_squarefree(init)
    omega = weight_vector_for(G)
    family = homogenize_omega(G, omega)
    res_family = free_resolution(family)
    certs = _certificates(res_family)

    # the family is a Groebner degeneration, hence flat over k[t], and its
    # fibers at t = 1 and t = 0 are the ideal and its initial ideal; so the
    # family's resolution, specialized, resolves both ends.  The module
    # certificate confirms the flatness before it is relied on
    if not certs[0].is_torsion_free():
        raise TheoremViolationError(
            "the Groebner family has torsion over the parameter line, so it is not flat")
    ff = _report(certs, 0)
    res_ideal = specialize_resolution(res_family, 1)
    res_init = specialize_resolution(res_family, 0)
    tables_ideal = _tables_from_resolution(res_ideal, window)
    tables_init = _tables_from_resolution(res_init, window)
    equal = all(a == b for a, b in zip(tables_ideal, tables_init))

    bt_ideal = betti_table(res_ideal)
    bt_init = betti_table(res_init)
    depth_i, reg_i = depth_and_regularity(bt_ideal, r)
    depth_0, reg_0 = depth_and_regularity(bt_init, r)

    report = DegenerationReport(
        order=order,
        omega=tuple(omega),
        initial_generators=tuple(v.components[0] for v in init.generators),
        family_generators=tuple(v.components[0] for v in family.generators),
        squarefree=squarefree,
        fiberfull=ff,
        tables_ideal=tuple(tables_ideal),
        tables_initial=tuple(tables_init),
        equal=equal,
        betti_ideal=bt_ideal,
        betti_initial=bt_init,
        depth_ideal=depth_i,
        reg_ideal=reg_i,
        depth_initial=depth_0,
        reg_initial=reg_0,
        window=window,
    )
    if squarefree and ff.overall and not equal:
        raise TheoremViolationError(
            "square-free initial ideal with a fiber-full family produced unequal "
            "local cohomology tables", report)
    return report
