"""Fiber-fullness over a polynomial line, torsion certificates, the
fiber-full locus, fiber comparison, and verification of square-free initial
degenerations.

The base is k[t] with t of degree 0 adjoined to the graded ring.  Freeness of
a finitely generated graded piece over the localized base at (t - c) is
exactly the absence of (t - c)-torsion, so every check reduces to deciding
whether a module has k[t]-torsion and, when it has, to its torsion
generators and a monic annihilator in k[t]:

  * all torsion of ambient/<relations> lives at the roots of a single
    polynomial h(t), the least common multiple of the parameter
    coefficients of the leading positive-degree terms of the reduced basis
    (generic freeness);
  * when h = (t - c)^k, the module is torsion-free exactly when its fiber
    at t = c has the Hilbert series of the x-parts of the leads, a count
    that needs one basis over k[x];
  * otherwise the torsion is the saturation of the relations at h, and the
    certificate polynomial is the lcm of the minimal polynomials of t on
    the torsion generators, read off their normal forms.  The module order
    ranks the positive-degree part of a term first, then its position, then
    its power of t (``orders.TOPOrder``), so every x-module term m*e_c sits
    above each t-multiple of a smaller one: the lead of a basis element is
    its leading x-module term, which is what generic freeness reads, and one
    basis per module serves every step.

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

A Groebner family, once its module certificate confirms that it is flat,
needs no Ext over k[t][x] when it is fiber-full: the paper's criterion reads
fiber-fullness at t = 0 off the Hilbert series of Ext^0..Ext^r of the two
ends, which agree exactly when no Ext of the family has torsion (the argument
is at ``verify_degeneration``).  Only when they differ are the Ext modules
presented and certified, and only that route can meet the theorem-violation
check of a square-free, fiber-full family with unequal tables.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import InvalidArgumentError, TheoremViolationError
from .ext import _ext_from_resolution, _ext_numerators, _tables_from_numerators, local_cohomology_tables
from .groebner import (
    buchberger,
    homogenize_omega,
    initial_module,
    is_squarefree,
    normal_form,
    saturate,
    weight_vector_for,
)
from .hilbert import _leads_numerator, check_window
from .modules import GradedFreeModule, PolyVector, SubmodulePresentation
from .resolution import (
    _codimension,
    betti_table,
    depth_and_regularity,
    free_resolution,
    specialize_resolution,
)
from .rings import Polynomial, evaluate_parameter, mon_divides, parameter_lcm


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
    generators of the torsion, reduced to normal form, and their monic
    annihilator in k[t]; none and 1 for a torsion-free module.  One reduced
    basis of the relations serves every step (``_basis_torsion``).  The
    module is graded: inhomogeneous relations are refused, as
    ``free_resolution`` refuses them."""
    if not pres.ring.has_parameter:
        raise InvalidArgumentError("parameter torsion needs a ring with a parameter")
    if not all(g.is_homogeneous() for g in pres.generators):
        raise InvalidArgumentError("parameter torsion requires homogeneous relations")
    return _basis_torsion(buchberger(pres))


def _basis_torsion(G):
    """``parameter_torsion`` of the module N presented by the reduced basis
    G of its relations.

    Generic freeness (Eisenbud, Commutative Algebra, Thm 14.4): over
    k[t][1/h], h the leading parameter content, N is free on the standard
    monomials, so all torsion lives at the roots of h.  When h = (t - c)^k,
    each graded piece of the graded module N is N_d =
    k[t]^(r_d) + T_d with T_d torsion at (t - c) alone.  G stays a Groebner
    basis over k(t), led by its x-leads, so r_d counts the standard
    x-monomials of degree d; and the fiber has dim (N/(t - c)N)_d =
    r_d + dim T_d/(t - c)T_d, which is r_d exactly when T_d = 0.  So N is
    torsion-free when the Hilbert series of the fiber equals the one of the
    x-leads, and then no saturation is run.  Otherwise, or when h has
    another factor, the torsion is the saturation of the relations at h."""
    one = G.ring.one()
    if len(G) == 0:
        return TorsionCertificate(None, (), one)
    h = _leading_parameter_content(G)
    if h.is_constant():
        return TorsionCertificate(None, (), one)
    c = _single_root(h)
    if c is not None and _fiber_has_generic_series(G, c):
        return TorsionCertificate(None, (), one)
    return _saturation_torsion(G, h)


def _single_root(h):
    """c when the monic h in k[t] of degree k is (t - c)^k, else None.  The
    coefficient of t^(k-1) is -k*c; when k is zero in the field, c is not
    read off and None is returned."""
    ring = h.ring
    field = ring.field
    k = max(mon[-1] for mon in h.coeffs)
    k_in_field = field.coerce(k)
    if k_in_field == field.zero:
        return None
    below = h.coefficient(ring.one_monomial()[:-1] + (k - 1,))
    c = field.mul(field.neg(below), field.inv(k_in_field))
    return c if (ring.parameter() - ring.constant(c)) ** k == h else None


def _fiber_has_generic_series(G, c):
    """True when the fiber at t = c of the module presented by the
    homogeneous relations G has the Hilbert series that the x-parts of
    their leads give: both numerators are taken over the denominator of
    k[x], one reduced basis of the fiber over k[x] giving its leads."""
    ring = G.ring
    r = ring.num_positive
    twists = G.module.twists
    fiber = buchberger(specialize_presentation(SubmodulePresentation(G.module, G.elements), c))
    generic = [(mon[:r], comp) for mon, comp in G.leads]
    return (_leads_numerator(fiber.leads, twists, ring.weights)
            == _leads_numerator(generic, twists, ring.weights))


def _saturation_torsion(G, h):
    """The torsion certificate of the module presented by G read off the
    saturation of its relations at h, a power of which kills all torsion:
    the nonzero normal forms of the saturation's generators, and their
    annihilator, the lcm over the distinct generators of their minimal
    polynomials."""
    sat = saturate(SubmodulePresentation(G.module, G.elements), h)
    torsion = []
    for v in sat.generators:
        nf = normal_form(v, G)
        if not nf.is_zero():
            torsion.append(nf)
    if not torsion:
        return TorsionCertificate(None, (), G.ring.one())
    g = G.ring.one()
    for w in dict.fromkeys(torsion):
        g = parameter_lcm(g, _minimal_polynomial(G, w))
    return TorsionCertificate(None, tuple(torsion), g)


def _minimal_polynomial(G, w):
    """The monic p in k[t] of least degree with p * w in <G>, for
    homogeneous relations G, the only ones ``parameter_torsion`` admits.

    Normal forms are k-linear and vanish exactly on <G>, so p = sum a_j t^j
    kills w exactly when sum a_j NF(t^j w) = 0.  A standard monomial
    m t^j e_c whose x-part m e_c lies outside the module of x-leads stays
    standard when multiplied by t, so these monomials span a free
    k[t]-submodule F, which meets the torsion in 0.  So for torsion w, p is
    also the least polynomial with NF(p * w) in F: the normal forms
    NF(t^j w) = NF(t * NF(t^(j-1) w)), j = 0, 1, ..., are eliminated over
    the field against the earlier ones on pivots outside F, and the first
    left with no term outside F gives p when it is zero, and shows that w
    is not torsion when it is not.  In the degrees of w only finitely many
    standard monomials lie outside F, so the elimination ends."""
    ring = G.ring
    field = ring.field
    r = ring.num_positive
    t = ring.parameter()
    x_leads = [[] for _ in G.module.twists]
    for mon, comp in G.leads:
        x_leads[comp].append(mon[:r])
    seen = {}  # (monomial, component) -> whether its x-part is in the x-leads

    def in_x_leads(key):
        if key not in seen:
            mon, comp = key
            seen[key] = any(mon_divides(lead, mon[:r]) for lead in x_leads[comp])
        return seen[key]

    rows = []  # (pivot, reduced normal form, combination of t-powers)
    v = normal_form(w, G)
    j = 0
    while True:
        row = {(mon, comp): a for comp, p in enumerate(v.components) for mon, a in p.terms}
        combo = {j: field.one}
        for pivot, prow, pcombo in rows:
            a = row.get(pivot)
            if a is None:
                continue
            for key, b in prow.items():
                row[key] = field.sub(row.get(key, field.zero), field.mul(a, b))
            for e, b in pcombo.items():
                combo[e] = field.sub(combo.get(e, field.zero), field.mul(a, b))
            row = {key: b for key, b in row.items() if b != field.zero}
        pivot = next((key for key in row if in_x_leads(key)), None)
        if pivot is None:
            if row:
                raise InvalidArgumentError("torsion annihilator does not meet the parameter ring")
            return Polynomial(ring, {(0,) * r + (e,): a for e, a in combo.items()
                                     if a != field.zero})
        inv = field.inv(row[pivot])
        rows.append((pivot, {key: field.mul(inv, b) for key, b in row.items()},
                     {e: field.mul(inv, b) for e, b in combo.items()}))
        v = normal_form(v.mul_poly(t), G)
        j += 1


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
    certificate, tuple of Ext certificates).  The module certificate reads
    the reduced basis the resolution was built on."""
    return _basis_torsion(res.basis), _ext_certificates(res)


def _ext_certificates(res):
    """The Ext certificates of ``_certificates``.  The codimension reads the
    reduced basis the resolution was built on.

    The ambient ring is Cohen-Macaulay, so Ext^i(M, R) = 0 for every
    i < grade(ann M) = codim M (Bruns-Herzog, Cohen-Macaulay Rings, 1.2.10
    and 2.1.4): such an Ext^i is not presented and gets the certificate of
    the zero module."""
    codim = _codimension(res.basis)
    ext_certs = []
    for i in range(res.ring.num_positive + 1):
        if i < codim:
            ext_certs.append(TorsionCertificate(i, (), res.ring.one()))
            continue
        cert = parameter_torsion(_ext_from_resolution(res, i))
        ext_certs.append(TorsionCertificate(i, cert.torsion_generators, cert.annihilator))
    return tuple(ext_certs)


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

    A family with torsion over k[t] is not flat, which a Groebner family
    always is, and raises a theorem-violation error.  The family is then
    fiber-full at t = 0 exactly when the Hilbert series of every Ext^i
    against k[x] is the same at both ends, and then no Ext over k[t][x] is
    presented:

      * J = ``homogenize_omega(G, omega)`` is homogeneous also for the
        grading deg t = 1, deg x_i = omega_i.  So every Ext^i of the family
        over k[t][x] is bigraded, and the annihilator of its torsion is a
        homogeneous ideal of k[t], a power of t: the only torsion there is
        lies at t = 0.
      * The family is flat, so its resolution F, specialized at t = c,
        resolves the fiber at c.  In each degree d, F^* is a finite free
        complex over the principal ideal domain k[t], so by universal
        coefficients dim Ext^i(fiber at c)_d = rank Ext^i_d + mu_i(c) +
        mu_(i+1)(c), mu_i(c) counting the (t - c)-torsion summands of
        Ext^i_d.
      * Every mu is 0 at c = 1, so the series of the two ends agree for
        every i exactly when no Ext^i has torsion, and every Ext
        certificate is then that of a torsion-free module.

    The series are compared as numerators over the denominator of k[x],
    and the tables of both ends are expanded from them.  When they
    differ, the certificates come from the Ext modules presented over
    k[t][x] (``_ext_certificates``), with their torsion generators and
    annihilators.  When the initial ideal is square-free and those find the
    family fiber-full, the tables must agree degreewise; if they do not,
    something is inconsistent and a theorem-violation error carrying the
    report is raised.
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

    # the family is a Groebner degeneration, hence flat over k[t], and its
    # fibers at t = 1 and t = 0 are the ideal and its initial ideal; so the
    # family's resolution, specialized, resolves both ends.  The module
    # certificate confirms the flatness before it is relied on
    module_cert = _basis_torsion(res_family.basis)
    if not module_cert.is_torsion_free():
        raise TheoremViolationError(
            "the Groebner family has torsion over the parameter line, so it is not flat")
    res_ideal = specialize_resolution(res_family, 1)
    res_init = specialize_resolution(res_family, 0)
    series_ideal = _ext_numerators(res_ideal)
    series_init = _ext_numerators(res_init)
    if series_ideal == series_init:
        one = res_family.ring.one()
        ext_certs = tuple(TorsionCertificate(i, (), one) for i in range(r + 1))
    else:
        ext_certs = _ext_certificates(res_family)
    ff = _report((module_cert, ext_certs), 0)
    tables_ideal = _tables_from_numerators(ring, series_ideal, window)
    tables_init = _tables_from_numerators(ring, series_init, window)
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
