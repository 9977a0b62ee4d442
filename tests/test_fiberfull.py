"""Torsion certificates, fiber-fullness, the locus polynomial, fiber
comparison, and the degeneration pipeline."""

import importlib
import importlib.util
import random
from collections import Counter
from pathlib import Path

import pytest

from fiberfull import (
    GF,
    QQ,
    GradedFreeModule,
    InvalidArgumentError,
    PolyVector,
    SubmodulePresentation,
    TermOrder,
    buchberger,
    evaluate_parameter,
    fiber_full_check,
    fiber_full_locus,
    fiber_hilbert_compare,
    free_resolution,
    homogenize_omega,
    krull_dimension,
    make_ring,
    monomials_of_degree,
    normal_form,
    parameter_lcm,
    parameter_monic,
    parameter_torsion,
    parse_input,
    saturate,
    verify_degeneration,
    weight_vector_for,
)
from fiberfull.ext import _ext_from_resolution, _ext_numerators, _tables_from_resolution
from fiberfull.fiberfull import (
    _basis_torsion,
    _certificates,
    _leading_parameter_content,
    _minimal_polynomial,
    _report,
    _saturation_torsion,
    _single_root,
    generic_point,
)
from fiberfull.resolution import _schreyer_frame, specialize_resolution
from fixtures import (
    PARSER_CORPUS,
    hypersurface_conic,
    ideal_from_strings,
    macaulay_suite,
    parameter_families,
    squarefree_presentations,
    twisted_cubic,
)
from helpers import (
    buchberger_saturate,
    cokernel_tables,
    contraction_annihilator,
    fiber_jumps,
    rand_homogeneous,
    transposed_cokernel,
    vector_in_submodule,
)


def _line_ring():
    return make_ring([1], True, names=["x"])


def test_parameter_torsion_examples():
    Rt = _line_ring()
    x, t = Rt.variable(0), Rt.parameter()
    cert = parameter_torsion(SubmodulePresentation.ideal(Rt, [t * x]))
    assert [str(v.components[0]) for v in cert.torsion_generators] == ["x"]
    assert str(cert.annihilator) == "t"

    free = parameter_torsion(SubmodulePresentation.ideal(Rt, []))
    assert free.is_torsion_free() and free.annihilator.is_constant()
    # the zero module: its empty basis has no torsion
    zero = parameter_torsion(SubmodulePresentation(GradedFreeModule(Rt, ()), []))
    assert zero.is_torsion_free() and zero.annihilator.is_constant()

    cert2 = parameter_torsion(SubmodulePresentation.ideal(Rt, [(t * t - t) * x]))
    assert [str(v.components[0]) for v in cert2.torsion_generators] == ["x"]
    assert str(cert2.annihilator) == "t^2 - t"


def test_torsion_certificate_invariant():
    # g times every torsion generator lies back in the relations
    Rt = make_ring([1, 1], True, names=["x", "y"])
    x, y, t = Rt.variable(0), Rt.variable(1), Rt.parameter()
    U = SubmodulePresentation.ideal(Rt, [t * x * y, (t - 1) * y * y])
    cert = parameter_torsion(U)
    assert not cert.is_torsion_free()
    G = buchberger(U)
    for v in cert.torsion_generators:
        assert vector_in_submodule(v.mul_poly(cert.annihilator), G)


def test_parameter_torsion_requires_parameter():
    R = make_ring([1, 1], names=["x", "y"])
    with pytest.raises(InvalidArgumentError):
        parameter_torsion(SubmodulePresentation.ideal(R, [R.variable(0)]))


def test_fiber_full_check_examples():
    Rt = _line_ring()
    x, t = Rt.variable(0), Rt.parameter()
    M = SubmodulePresentation.ideal(Rt, [t * x])
    at0 = fiber_full_check(M, at=0)
    at1 = fiber_full_check(M, at=1)
    assert not at0.overall and not at0.module_free_over_base
    assert at1.overall
    assert str(fiber_full_locus(M)) == "t"

    # constant family: no parameter anywhere, fiber-full at every prime
    R3t = make_ring([1, 1, 1], True, names=["x", "y", "z"])
    C = SubmodulePresentation.ideal(R3t, [R3t.parse("x*y"), R3t.parse("y*z")])
    for c in (0, 1, 5):
        rep = fiber_full_check(C, at=c)
        assert rep.overall
        assert all(v.certificate.annihilator.is_constant() for v in rep.verdicts)

    # the conic family is fiber-full at the special fiber
    F = SubmodulePresentation.ideal(R3t, [R3t.parse("x*z - t*y^2")])
    rep = fiber_full_check(F, at=0)
    assert rep.overall


def test_locus_examples():
    Rt = _line_ring()
    x, t = Rt.variable(0), Rt.parameter()
    assert str(fiber_full_locus(SubmodulePresentation.ideal(Rt, [(t * t - t) * x]))) == "t^2 - t"
    free = SubmodulePresentation.ideal(Rt, [x * x])
    assert fiber_full_locus(free).is_constant()


def test_pointwise_locus_consistency_random_planted():
    """Planted-torsion modules: the check at (t - c) fails exactly on roots
    of the locus polynomial, which is the monic lcm of the planted factors."""
    rng = random.Random(20260810)
    Rt = make_ring([1, 1], True, names=["x", "y"])
    x, y, t = Rt.variable(0), Rt.variable(1), Rt.parameter()
    for trial in range(10):
        n = rng.randint(1, 3)
        amb = GradedFreeModule(Rt, (0,) * n)
        planted = []
        gens = []
        for j in range(n):
            roots = [rng.choice((0, 1, 2, 3)) for _ in range(rng.randint(1, 2))]
            p = Rt.one()
            for c in roots:
                p = p * (t - Rt.constant(c))
            planted.append(p)
            mono = x ** rng.randint(0, 2) * y ** rng.randint(0, 1)
            comps = [Rt.zero()] * n
            comps[j] = p * mono
            gens.append(PolyVector(amb, tuple(comps)))
        M = SubmodulePresentation(amb, gens)
        expected = planted[0]
        for p in planted[1:]:
            expected = parameter_lcm(expected, p)
        expected = parameter_monic(expected)
        g = fiber_full_locus(M)
        assert g == expected, (trial, str(g), str(expected))
        for c in (0, 1, 2, 3, 4):
            rep = fiber_full_check(M, at=c)
            root = evaluate_parameter(g, c) == Rt.field.zero
            assert rep.overall == (not root), (trial, c)


def test_parameter_lcm_identities():
    # lcm with 1 is the monic associate, lcm with a nonzero constant is the
    # identity on monic polynomials: the locus and the leading content start
    # from 1 and fold every annihilator in with parameter_lcm alone
    rng = random.Random(20261018)
    for field in (GF(7), GF(32003), QQ):
        Rt = make_ring([1], True, field=field, names=["x"])
        t = Rt.parameter()
        for _ in range(200):
            f = Rt.zero()
            while f.is_zero():
                for k in range(rng.randint(0, 4)):
                    f = f + Rt.constant(rng.randint(-9, 9)) * t ** k
                f = f + Rt.constant(rng.choice((1, 2, 3, -1))) * t ** rng.randint(0, 4)
            c = Rt.constant(rng.choice((1, 2, 3, 5, -1)))
            h = parameter_monic(f)
            assert parameter_lcm(Rt.one(), f) == h
            assert parameter_lcm(h, c) == h


PARAMETER_FAMILIES = parameter_families()


@pytest.mark.parametrize("name", PARAMETER_FAMILIES)
def test_certificates_match_the_schreyer_frame(name):
    # the pruned resolution and the all-pairs frame give isomorphic Ext
    # modules, so the torsion annihilators, the verdicts and the locus agree
    pres = PARAMETER_FAMILIES[name]
    field = pres.ring.field
    frame = _schreyer_frame(pres)
    reference = [parameter_torsion(_ext_from_resolution(frame, i)).annihilator
                 for i in range(pres.ring.num_positive + 1)]
    locus = parameter_torsion(pres).annihilator
    for g in reference:
        locus = parameter_lcm(locus, g)
    assert fiber_full_locus(pres) == locus
    for c in range(4):
        rep = fiber_full_check(pres, at=c)
        assert [v.certificate.annihilator for v in rep.verdicts] == reference
        assert [v.free_over_base for v in rep.verdicts] == [
            evaluate_parameter(g, c) != field.zero for g in reference]


def _count_torsion_calls(monkeypatch, fail_first=False):
    """Empty the certificate memo and count the torsion certificates computed
    the long way: the calls of parameter_torsion (one per Ext module
    presented) and of _basis_torsion from outside it (the module's own, from
    the basis its resolution starts from).  With ``fail_first`` the first
    one raises."""
    import fiberfull.fiberfull

    fiberfull.fiberfull._module_certificates.cache_clear()
    calls = []
    depth = [0]

    def counting(real):
        def counted(arg):
            if not depth[0]:
                calls.append(arg)
                if fail_first and len(calls) == 1:
                    raise RuntimeError("interrupted")
            depth[0] += 1
            try:
                return real(arg)
            finally:
                depth[0] -= 1
        return counted

    for name in ("parameter_torsion", "_basis_torsion"):
        monkeypatch.setattr(fiberfull.fiberfull, name,
                            counting(getattr(fiberfull.fiberfull, name)))
    return calls


def _codim(pres):
    return pres.ring.nvars - krull_dimension(pres)


def test_locus_then_checks_compute_the_certificates_once(monkeypatch):
    # the module and Ext^codim..Ext^r: r + 2 - codim certificates for the
    # locus and all eight points; Ext^0 and Ext^1 vanish below the
    # codimension 2 and are not presented
    calls = _count_torsion_calls(monkeypatch)
    pres = PARAMETER_FAMILIES["ideal-A"]
    fiber_full_locus(pres)
    for c in range(8):
        fiber_full_check(pres, at=c)
    assert _codim(pres) == 2
    assert len(calls) == pres.ring.num_positive + 2 - 2


def test_certificate_memo_recomputes_after_another_module(monkeypatch):
    calls = _count_torsion_calls(monkeypatch)
    a, b = PARAMETER_FAMILIES["ideal-A"], PARAMETER_FAMILIES["ideal-B"]
    first = fiber_full_locus(a)
    fiber_full_locus(b)
    n = len(calls)
    assert fiber_full_locus(a) == first
    assert len(calls) == n + a.ring.num_positive + 2 - _codim(a)


def test_certificate_memo_hits_an_equal_presentation(monkeypatch):
    calls = _count_torsion_calls(monkeypatch)
    R = make_ring([1, 1, 1], True, field=GF(32003), names=["x", "y", "z"])
    gens = ("(t-1)*x*y", "(t-2)*y*z", "t*x*z", "x^2*y - t*z^3")
    pres = ideal_from_strings(R, gens)
    first = fiber_full_check(pres, at=1)
    n = len(calls)
    again = ideal_from_strings(R, gens)
    assert again is not pres and again == pres
    assert fiber_full_check(again, at=1) == first
    assert len(calls) == n


def test_certificate_memo_misses_another_field(monkeypatch):
    # the same terms and coefficients in both fields: t^2 + 1 and t + 2 are
    # coprime over QQ, so the ideal contains x and there is no torsion; over
    # GF(5), t^2 + 1 = (t + 2)(t - 2) and x is torsion at t = -2
    calls = _count_torsion_calls(monkeypatch)
    gens = ("(t^2+1)*x", "(t+2)*x")
    over_qq = ideal_from_strings(make_ring([1, 1], True, names=["x", "y"]), gens)
    over_f5 = ideal_from_strings(make_ring([1, 1], True, field=GF(5), names=["x", "y"]), gens)
    assert [g.components[0].terms for g in over_qq.generators] == [
        g.components[0].terms for g in over_f5.generators]
    assert str(fiber_full_locus(over_qq)) == "1"
    n = len(calls)
    assert str(fiber_full_locus(over_f5)) == "t + 2"
    assert len(calls) > n


def test_certificate_memo_misses_other_names(monkeypatch):
    calls = _count_torsion_calls(monkeypatch)
    xy = make_ring([1, 1], True, names=["x", "y"])
    uv = make_ring([1, 1], True, names=["u", "v"])
    fiber_full_locus(ideal_from_strings(xy, ("t*x", "y^2")))
    n = len(calls)
    report = fiber_full_check(ideal_from_strings(uv, ("t*u", "v^2")), at=0)
    assert len(calls) > n
    assert [str(w) for w in report.module_certificate.torsion_generators] == ["u"]


def test_certificate_memo_keeps_no_entry_after_an_error(monkeypatch):
    import fiberfull.fiberfull

    calls = _count_torsion_calls(monkeypatch, fail_first=True)
    pres = PARAMETER_FAMILIES["ideal-B"]
    with pytest.raises(RuntimeError):
        fiber_full_locus(pres)
    assert fiberfull.fiberfull._module_certificates.cache_info().currsize == 0
    expected = _certificates(free_resolution(pres))
    assert fiber_full_check(pres, at=2) == _report(expected, 2)
    assert fiberfull.fiberfull._module_certificates.cache_info().currsize == 1
    assert fiberfull.fiberfull._module_certificates(pres) == expected
    # ideal-B has codimension 3: Ext^0..Ext^2 are not presented
    assert _codim(pres) == 3
    assert len(calls) == 1 + 2 * (pres.ring.num_positive + 2 - 3)


@pytest.mark.parametrize("name", PARAMETER_FAMILIES)
def test_memoized_reports_match_fresh_certificates(name):
    pres = PARAMETER_FAMILIES[name]
    fresh = _certificates(free_resolution(pres))
    locus = pres.ring.one()
    for cert in (fresh[0],) + fresh[1]:
        locus = parameter_lcm(locus, cert.annihilator)
    assert fiber_full_locus(pres) == locus
    for c in range(8):
        report = fiber_full_check(pres, at=c)
        assert report == _report(fresh, c)
        assert report.to_json_dict() == _report(fresh, c).to_json_dict()


def _certificate_modules():
    """Every parameter family and each of its Ext modules, then planted
    diagonal modules (+) S[t]/(p_j m_j) over GF(32003)[t][x,y,z], with p_j a
    product of one or two factors t - c and m_j a monomial of degree two."""
    for pres in PARAMETER_FAMILIES.values():
        res = free_resolution(pres)
        yield pres
        for i in range(pres.ring.num_positive + 1):
            yield _ext_from_resolution(res, i)
    rng = random.Random(20261018)
    R = make_ring([1, 1, 1], True, field=GF(32003), names=["x", "y", "z"])
    t = R.parameter()
    for k in range(6):
        n = 2 + k % 2
        amb = GradedFreeModule(R, (0,) * n)
        gens = []
        for j in range(n):
            p = R.one()
            for c in rng.sample(range(4), 1 + (j + k) % 2):
                p = p * (t - R.constant(c))
            comps = [R.zero()] * n
            comps[j] = p * R.variable(rng.randrange(3)) * R.variable(rng.randrange(3))
            gens.append(PolyVector(amb, tuple(comps)))
        yield SubmodulePresentation(amb, gens)


def test_certificates_match_their_reference_routes():
    # parameter_torsion computes one reduced basis per module: it saturates
    # from that basis and reads the annihilator off the kernel basis.  The
    # references compute a basis of their own for each step
    torsion_cases = 0
    for U in _certificate_modules():
        if not U.generators:
            continue
        t = U.ring.parameter()
        assert saturate(U, t) == buchberger_saturate(U, t)
        G = buchberger(U)
        h = _leading_parameter_content(G)
        if h.is_constant():
            continue
        reference = buchberger_saturate(U, h)
        assert saturate(U, h) == reference
        assert saturate(SubmodulePresentation(U.ambient, G.elements), h) == reference
        cert = parameter_torsion(U)
        if cert.torsion_generators:
            assert cert.annihilator == contraction_annihilator(G, cert.torsion_generators)
            torsion_cases += 1
    assert torsion_cases >= 10


def test_ext_torsion_in_rank_two_is_found():
    # y*e_3^* lies in ker d_3^T, and (t + 3) * y*e_3^* lies in im d_2^T: a
    # torsion class of Ext^2, which is presented in rank 4.  A module order
    # that ranks t above the position misses it
    R = make_ring([1, 1, 1], True, field=GF(32003), names=["x", "y", "z"])
    pres = ideal_from_strings(R, ("(t-2)*x + (t+3)*y", "x*z", "x^2"))
    report = fiber_full_check(pres, at=-3)
    ext2 = report.verdicts[2]
    assert not ext2.free_over_base
    assert str(ext2.certificate.annihilator) == "t + 3"
    assert [str(w) for w in ext2.certificate.torsion_generators] == ["(0, 0, 0, y)"]


def _parameter_coefficient(rng, R):
    c = R.constant(rng.choice((1, 1, 2, -1)))
    return c if rng.random() < 0.45 else c * (R.parameter() - R.constant(rng.randrange(-3, 4)))


def _parameter_form(rng, R, degree, terms):
    """Sum of ``terms`` distinct monomials of the degree, each with a
    coefficient c or c * (t - a)."""
    mons = monomials_of_degree(R.without_parameter(), degree)
    p = R.zero()
    for m in rng.sample(mons, min(terms, len(mons))):
        p = p + _parameter_coefficient(rng, R) * R.poly([(m + (0,), 1)])
    return p


def _seeded_parameter_presentations():
    """Forty seeded presentations over k[t][x,y,z], over QQ for an even
    seed and GF(32003) for an odd one: ideals of a linear form and one to
    three quadrics, and presentations of rank 2 and 3 whose generators each
    draw a nonzero entry for a component with probability 0.7, so most are
    not diagonal."""
    for seed in range(200, 240):
        rng = random.Random(seed)
        R = make_ring([1, 1, 1], True, field=GF(32003) if seed % 2 else QQ,
                      names=["x", "y", "z"])
        rank = rng.choice((1, 1, 2, 3))
        twists = tuple(sorted(rng.choice((0, 0, 1)) for _ in range(rank)))
        amb = GradedFreeModule(R, twists)
        if rank == 1:
            forms = [_parameter_form(rng, R, 1, 2)]
            forms += [_parameter_form(rng, R, 2, 1) for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.5:
                forms.append(_parameter_form(rng, R, 2, 2))
            gens = [PolyVector(amb, [f]) for f in forms]
        else:
            top = max(twists) + 1
            gens = [PolyVector(amb, [_parameter_form(rng, R, top - tw, 1) if rng.random() < 0.7
                                     else R.zero() for tw in twists])
                    for _ in range(rng.randint(rank, rank + 1))]
        yield SubmodulePresentation(amb, gens)


def test_ext_torsion_equals_that_of_the_transposed_cokernel():
    nonunit = 0
    for pres in _seeded_parameter_presentations():
        res = free_resolution(pres)
        for i in range(res.length + 1):
            ann = parameter_torsion(_ext_from_resolution(res, i)).annihilator
            assert ann == parameter_torsion(transposed_cokernel(res, i)).annihilator, (pres, i)
            nonunit += not ann.is_constant()
    assert nonunit >= 10


def test_certificate_roots_are_the_fiber_jumps():
    # the window holds every degree of the presentation and of the torsion
    # generators, so a root of the annihilator shows as a jump there
    points = range(-4, 6)
    jumps = 0
    for pres in _seeded_parameter_presentations():
        res = free_resolution(pres)
        for module in [pres] + [_ext_from_resolution(res, i) for i in range(res.length + 1)]:
            if not module.ambient.rank:
                continue
            cert = parameter_torsion(module)
            degrees = ([w.degree() for w in cert.torsion_generators] + list(module.ambient.twists)
                       + [g.degree() for g in module.generators])
            roots = {c for c in points
                     if evaluate_parameter(cert.annihilator, c) == module.ring.field.zero}
            assert fiber_jumps(module, points, (min(degrees), max(degrees) + 1)) == roots, (
                pres, cert.annihilator)
            jumps += len(roots)
    assert jumps >= 10


def test_torsion_annihilator_needs_torsion():
    # no polynomial in t alone kills 1 modulo (x^2): the normal form of 1
    # lies outside the x-leads, in the free part, and there is no
    # certificate
    Rt = _line_ring()
    G = buchberger(SubmodulePresentation.ideal(Rt, [Rt.variable(0) ** 2]))
    with pytest.raises(InvalidArgumentError):
        _minimal_polynomial(G, G.module.basis_vector(0))


def test_parameter_torsion_computes_one_basis(monkeypatch):
    import fiberfull.fiberfull
    import fiberfull.groebner
    import fiberfull.rings

    real = {"buchberger": fiberfull.groebner.buchberger,
            "contract_to_parameter": fiberfull.groebner.contract_to_parameter,
            "parameter_monic": fiberfull.rings.parameter_monic}
    calls = dict.fromkeys(real, 0)

    def counting(name):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real[name](*args, **kwargs)
        return counted

    # patched in every module that defines or imports one of them, so a
    # call through any name is counted
    for module in (fiberfull.fiberfull, fiberfull.groebner, fiberfull.rings):
        for name in real:
            monkeypatch.setattr(module, name, counting(name), raising=False)
    pres = PARAMETER_FAMILIES["ideal-A"]
    cert = parameter_torsion(pres)
    assert cert.torsion_generators and not cert.annihilator.is_constant()
    assert calls == {"buchberger": 1, "contract_to_parameter": 0, "parameter_monic": 0}
    # saturate starts from the generators it is given
    saturate(pres, pres.ring.parameter())
    assert calls["buchberger"] == 1


def test_single_root_torsion_computes_two_bases(monkeypatch):
    # h = (t - 1)^2 has a single root, so the fiber at t = 1 gets a basis of
    # its own; its series differs, x*y is (t - 1)-torsion, and saturation
    # and the annihilator start from the basis of the relations
    bases = _counting_calls(monkeypatch, "buchberger", ("fiberfull", "groebner"))
    R = make_ring([1, 1], True, names=["x", "y"])
    cert = parameter_torsion(ideal_from_strings(R, ("(t-1)^2*x*y", "x^2")))
    assert [str(w) for w in cert.torsion_generators] == ["x*y"]
    assert str(cert.annihilator) == "t^2 - 2*t + 1"
    assert len(bases) == 2


# ---------------------------------------------------------------------------
# freeness by counting the fiber, and the annihilator from normal forms


def _shift_parameter(p, c):
    """p with t replaced by t - c."""
    R = p.ring
    shifted = R.parameter() - R.constant(c)
    out = R.zero()
    for mon, a in p.terms:
        out = out + R.poly([(mon[:-1] + (0,), a)]) * shifted ** mon[-1]
    return out


def _random_quadrics(rng, S):
    """Two or three quadrics of two or three terms each in k[x,y,z]."""
    mons = monomials_of_degree(S, 2)
    return [S.poly([(m, rng.choice((1, 2, -1, 3))) for m in rng.sample(mons, rng.randint(2, 3))])
            for _ in range(rng.randint(2, 3))]


def _groebner_family(rng, R):
    """The Groebner family over k[t][x,y,z] of random quadrics under lex:
    flat over k[t], so torsion-free, and its basis under grevlex has a
    power of t as leading content."""
    S = R.without_parameter()
    G = buchberger(SubmodulePresentation.ideal(S, _random_quadrics(rng, S)), TermOrder.lex())
    return [v.components[0] for v in homogenize_omega(G, weight_vector_for(G)).generators]


def _coefficient_form(rng, R, pool):
    """A quadric of one or two terms, each coefficient drawn from ``pool``."""
    mons = monomials_of_degree(R.without_parameter(), 2)
    picked = rng.sample(mons, rng.randint(1, 2))
    return sum((rng.choice(pool) * R.poly([(m + (0,), 1)]) for m in picked), R.zero())


def _single_root_presentations():
    """(kind, presentation) over k[t][x,y,z], over QQ for an even seed and
    GF(32003) for an odd one, c = 0 for half the seeds and otherwise a
    nonzero constant:

      * ``free``: the direct sum of one to three Groebner families of
        random quadrics with t replaced by t - c, torsion-free, its Ext
        modules with h = (t - c)^k;
      * ``planted``: the same with (t - c)^k m e_j added, m a monomial of
        degree one or two and k = 1..3, which plants (t - c)-torsion unless m
        already lies in the family;
      * ``binomial``: one generator (t - c)^k m + a m' per component,
        m above m' in grevlex, k = 1..3: a direct sum of principal ideals
        whose generators have content 1, torsion-free with h = (t - c)^k;
      * ``mixed``: rank one or two, generators spanning several
        components, their coefficients 1, 2, t - c or (t - c)^2;
      * ``roots``: the same with coefficients t - c, t - c' and
        (t - c)(t - c') for c != c', so that h has two roots."""
    kinds = ("free", "planted", "binomial", "mixed", "roots")
    for seed in range(300, 360):
        rng = random.Random(seed)
        R = make_ring([1, 1, 1], True, field=GF(32003) if seed % 2 else QQ,
                      names=["x", "y", "z"])
        t = R.parameter()
        kind = kinds[(seed // 3) % 5]
        rank = 1 + seed % (2 if kind in ("mixed", "roots") else 3)
        c = 0 if seed // 15 % 2 == 0 else rng.choice((1, 2, -1, 7))
        amb = GradedFreeModule(R, (0,) * rank)

        def placed(j, f):
            comps = [R.zero()] * rank
            comps[j] = f
            return PolyVector(amb, tuple(comps))

        gens = []
        if kind in ("free", "planted"):
            for j in range(rank):
                gens += [placed(j, _shift_parameter(f, c)) for f in _groebner_family(rng, R)]
            if kind == "planted":
                mono = R.one()
                for _ in range(rng.randint(1, 2)):
                    mono = mono * R.variable(rng.randrange(3))
                j = rng.randrange(rank)
                gens.append(placed(j, (t - R.constant(c)) ** rng.randint(1, 3) * mono))
        elif kind == "binomial":
            S = R.without_parameter()
            for j in range(rank):
                low, high = sorted(rng.sample(monomials_of_degree(S, 2), 2), key=S.canonical_key)
                lead = (t - R.constant(c)) ** rng.randint(1, 3) * R.poly([(high + (0,), 1)])
                gens.append(placed(j, lead + R.poly([(low + (0,), rng.choice((1, 2, -1)))])))
        else:
            tc = t - R.constant(c)
            pool = [R.one(), R.constant(2), tc, tc * tc]
            if kind == "roots":
                tc2 = t - R.constant(c + rng.choice((1, 3, -2)))
                pool = [R.one(), tc, tc2, tc * tc2]
            for _ in range(rank + 1):
                gens.append(PolyVector(amb, tuple(
                    _coefficient_form(rng, R, pool) if rng.random() < 0.7 else R.zero()
                    for _ in range(rank))))
        yield kind, SubmodulePresentation(amb, gens)


def _with_ext_modules(kind, pres):
    """The presentation, then, for the direct sums and the seeded
    presentations, its Ext modules.  The resolutions of the non-diagonal
    modules can be far from minimal, and Ext over them does not finish
    (ROADMAP item 3), so they give the module alone."""
    yield pres
    if kind in ("free", "planted", "binomial", "seeded"):
        res = free_resolution(pres)
        for i in range(res.length + 1):
            yield _ext_from_resolution(res, i)


def _counting_calls(monkeypatch, name, modules=("fiberfull",)):
    """The list each call of ``name`` appends its arguments to, the name
    patched in the given modules of the package (the certificates' own by
    default), so that a call through any of them is counted."""
    calls = []
    for module in modules:
        module = importlib.import_module("fiberfull." + module)
        real = getattr(module, name)

        def counted(*args, real=real, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_count_route_certificate_equals_the_saturation_route(monkeypatch):
    # every module with a nonconstant leading content h, and its Ext modules
    # at and above the codimension: the certificate equals the one that
    # saturation gives; the count decides exactly the torsion-free modules
    # whose h has a single root, and a module whose fiber series differs
    # from the generic one has torsion
    saturations = _counting_calls(monkeypatch, "saturate")
    seen = Counter()
    for kind, pres in _single_root_presentations():
        for module in _with_ext_modules(kind, pres):
            G = buchberger(module)
            if not len(G):
                continue
            h = _leading_parameter_content(G)
            if h.is_constant():
                continue
            before = len(saturations)
            cert = _basis_torsion(G)
            counted = len(saturations) == before
            reference = _saturation_torsion(G, h)
            assert cert == reference, (kind, module)
            assert cert.to_json_dict() == reference.to_json_dict()
            root = _single_root(h)
            if counted:
                assert root is not None and cert.is_torsion_free()
                seen["counted at t" if root == 0 else "counted at t - c"] += 1
                seen["counted in rank %d" % min(G.module.rank, 3)] += 1
            elif root is not None:
                assert not reference.is_torsion_free(), (kind, module)
                seen["torsion at t" if root == 0 else "torsion at t - c"] += 1
            else:
                seen["several roots"] += 1
    assert min(seen[k] for k in ("counted at t", "counted at t - c", "torsion at t",
                                 "torsion at t - c", "several roots")) >= 5, seen
    assert min(seen["counted in rank %d" % r] for r in (1, 2, 3)) >= 5, seen


def test_count_route_falls_back_when_the_degree_is_zero_in_the_field(monkeypatch):
    # h = t^3 over GF(3) and h = (t + 1)^2 = t^2 + 1 over GF(2): the degree
    # k is zero in the field, so the root is not read off the coefficient of
    # t^(k-1) and the certificate comes from saturation
    saturations = _counting_calls(monkeypatch, "saturate")
    cases = ((3, ("t^3*x - y",), "1"), (2, ("(t+1)^2*x", "y^2"), "t^2 + 1"))
    for p, gens, annihilator in cases:
        R = make_ring([1, 1], True, field=GF(p), names=["x", "y"])
        G = buchberger(ideal_from_strings(R, gens))
        h = _leading_parameter_content(G)
        assert _single_root(h) is None and h.coeffs
        before = len(saturations)
        cert = _basis_torsion(G)
        assert len(saturations) == before + 1
        assert str(cert.annihilator) == annihilator
        assert cert == _saturation_torsion(G, h)


def test_single_root_reads_powers_of_one_linear_factor():
    for field in (QQ, GF(32003), GF(7)):
        R = make_ring([1], True, field=field, names=["x"])
        t = R.parameter()
        for c in (0, 1, -2, 5):
            for k in (1, 2, 3, 5):
                assert _single_root((t - R.constant(c)) ** k) == field.coerce(c)
        assert _single_root(t * (t - R.one())) is None
        assert _single_root(t * t + R.one()) is None


def test_normal_form_annihilator_equals_the_kernel_reference():
    # each minimal polynomial, and the certificate's lcm of them, against
    # the contraction of a kernel to k[t]; (t - 1)^2 kills x*y and nothing
    # less
    R = make_ring([1, 1], True, names=["x", "y"])
    G = buchberger(ideal_from_strings(R, ("(t-1)^2*x*y", "x^2")))
    w = normal_form(PolyVector(G.module, (R.parse("x*y"),)), G)
    assert str(_minimal_polynomial(G, w)) == "t^2 - 2*t + 1"
    assert _minimal_polynomial(G, w) == contraction_annihilator(G, [w])
    torsion = 0
    cases = list(_single_root_presentations())
    cases += [("seeded", pres) for pres in _seeded_parameter_presentations()]
    for kind, pres in cases:
        for module in _with_ext_modules(kind, pres):
            if not module.ambient.rank:
                continue
            cert = parameter_torsion(module)
            if cert.is_torsion_free():
                continue
            G = buchberger(module)
            ws = cert.torsion_generators
            assert cert.annihilator == contraction_annihilator(G, ws)
            for w in ws:
                assert _minimal_polynomial(G, w) == contraction_annihilator(G, [w])
            torsion += 1
    assert torsion >= 20


def test_torsion_annihilator_stops_when_no_term_outside_the_free_part_is_left(monkeypatch):
    # modulo t^5*x, the class of x is killed by t^5: five normal forms
    # t^j * x, j < 5, are independent before the first relation.  The
    # standard monomials y*t^j span a free k[t]-submodule, since no lead
    # divides y: the normal form of y lies in it, so y is refused after one
    # normal form, and x + y after six, when t^5 * (x + y) reduces to t^5 * y
    import fiberfull.fiberfull

    R = make_ring([1, 1], True, names=["x", "y"])
    G = buchberger(ideal_from_strings(R, ("t^5*x",)))
    x, y, xy = (PolyVector(G.module, (R.parse(s),)) for s in ("x", "y", "x + y"))
    assert str(_minimal_polynomial(G, x)) == "t^5"
    forms = []
    monkeypatch.setattr(fiberfull.fiberfull, "normal_form",
                        lambda v, G: forms.append(v) or normal_form(v, G))
    for w, count in ((y, 1), (xy, 6)):
        forms.clear()
        with pytest.raises(InvalidArgumentError):
            _minimal_polynomial(G, w)
        assert len(forms) == count


def test_parameter_torsion_refuses_inhomogeneous_relations():
    # the certificates are for graded modules, as the resolution is: over
    # inhomogeneous relations the normal forms of t^j * w need not stay in
    # finitely many monomials, so such relations are refused
    R = make_ring([1, 1], True, names=["x", "y"])
    for relations in (("x^2 - x",), ("(t-1)^2*x*y - x^2 + x^3", "x^2 - x^3")):
        with pytest.raises(InvalidArgumentError, match="homogeneous"):
            parameter_torsion(ideal_from_strings(R, relations))


def _degeneration_instances(seed, workdir):
    """The instances of the benchmark's ``degeneration`` workload at this
    seed, from ``bench/workloads.py`` loaded by path (it is only read)."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads_degeneration",
        Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.degeneration(seed, workdir)


def test_degeneration_certificates_run_no_saturation(tmp_path, monkeypatch):
    # every Groebner family of the benchmark's degeneration inputs (two
    # seeds, so two column orders of the minors) is fiber-full, so cv-verify
    # reads its certificates off the Ext series of the two ends: no Ext is
    # presented and no Ext certificate computed, and every answer passes the
    # workload's own oracle.  The presenting route, run on the same
    # families, finds h a power of t and no torsion, decided by the count:
    # no saturate and no module_kernel call happens inside a certificate
    import fiberfull.fiberfull
    import fiberfull.groebner

    inside = [0]
    calls = Counter()

    def tracked(name, real, scope):
        def wrapped(*args, **kwargs):
            if scope:
                inside[0] += 1
            elif inside[0]:
                calls[name] += 1
            try:
                return real(*args, **kwargs)
            finally:
                if scope:
                    inside[0] -= 1
        return wrapped

    contents = []
    real_content = fiberfull.fiberfull._leading_parameter_content
    monkeypatch.setattr(fiberfull.fiberfull, "_leading_parameter_content",
                        lambda G: contents.append(real_content(G)) or contents[-1])
    monkeypatch.setattr(fiberfull.fiberfull, "_basis_torsion",
                        tracked("certificate", fiberfull.fiberfull._basis_torsion, True))
    monkeypatch.setattr(fiberfull.fiberfull, "saturate",
                        tracked("saturate", fiberfull.fiberfull.saturate, False))
    monkeypatch.setattr(fiberfull.groebner, "module_kernel",
                        tracked("module_kernel", fiberfull.groebner.module_kernel, False))
    families = _record_results(monkeypatch, fiberfull.fiberfull, "free_resolution")
    presented = _record_calls(monkeypatch, fiberfull.fiberfull, "_ext_from_resolution")
    torsion = _record_calls(monkeypatch, fiberfull.fiberfull, "parameter_torsion")
    ran = 0
    for seed in (3, 7):
        fiberfull.fiberfull._module_certificates.cache_clear()
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        for inst in _degeneration_instances(seed, workdir):
            if inst.cliff:
                continue
            assert inst.check(inst.run()) is None, inst.name
            ran += 1
    assert ran == len(families) == 10
    assert presented == [] and torsion == []

    del contents[:]
    for res in families:
        module_cert, ext_certs = _certificates(res)
        assert module_cert.is_torsion_free()
        assert all(cert.is_torsion_free() for cert in ext_certs)
    assert presented and torsion
    assert calls == Counter()
    assert sum(not h.is_constant() for h in contents) >= 16


def test_generic_point_checks_deg_g_plus_one_candidates():
    Rq = _line_ring()
    x, t = Rq.variable(0), Rq.parameter()
    roots012 = SubmodulePresentation.ideal(Rq, [t * (t - Rq.one()) * (t - Rq.constant(2)) * x])
    assert generic_point(roots012) == 3

    R2 = make_ring([1], True, field=GF(2), names=["x"])
    x, t = R2.variable(0), R2.parameter()
    every_point_bad = SubmodulePresentation.ideal(R2, [t * (t + R2.one()) * x])
    assert str(fiber_full_locus(every_point_bad)) == "t^2 + t"
    with pytest.raises(InvalidArgumentError):
        generic_point(every_point_bad)


def test_fiber_hilbert_compare_resolves_generic_once(monkeypatch):
    import fiberfull.fiberfull

    calls = []

    def counting(pres):
        calls.append(pres)
        return generic_point(pres)

    monkeypatch.setattr(fiberfull.fiberfull, "generic_point", counting)
    Rt = _line_ring()
    M = SubmodulePresentation.ideal(Rt, [Rt.parse("t*x")])
    tabs = fiber_hilbert_compare(M, ["generic", 0, "generic"], (0, 0))
    assert len(calls) == 1
    assert tabs[0][0] == tabs[2][0] != tabs[1][0]


def test_fiber_hilbert_compare_resolves_each_distinct_fiber_once(monkeypatch):
    import fiberfull.ext

    resolved = []

    def counting(pres):
        resolved.append(pres)
        return free_resolution(pres)

    monkeypatch.setattr(fiberfull.ext, "free_resolution", counting)
    R = make_ring([1, 1], True, field=GF(32003), names=["x", "y"])
    x, y, t = R.variable(0), R.variable(1), R.parameter()
    amb = GradedFreeModule(R, (0, 0))
    M = SubmodulePresentation(amb, [PolyVector(amb, (t * (t - R.one()) * x, R.zero())),
                                    PolyVector(amb, (R.zero(), (t - R.constant(2)) * y * y))])
    assert generic_point(M) == 3
    tabs = fiber_hilbert_compare(M, [3, 4, 5, "generic", 4], (-4, 2))
    assert len(resolved) == 3
    assert all(len(point) == R.num_positive + 1 for point in tabs)
    assert tabs[0] == tabs[1] == tabs[2] == tabs[3] == tabs[4]


def test_fiber_hilbert_compare_lists_h0_to_hr():
    Rt = _line_ring()
    M = SubmodulePresentation.ideal(Rt, [Rt.parse("t*x")])
    for tabs in fiber_hilbert_compare(M, [0, 1, "generic"], (-3, 1)):
        assert len(tabs) == Rt.num_positive + 1
        assert all(tab.window == (-3, 1) for tab in tabs)


def test_fiber_hilbert_compare_conic_family():
    R3t = make_ring([1, 1, 1], True, names=["x", "y", "z"])
    F = SubmodulePresentation.ideal(R3t, [R3t.parse("x*z - t*y^2")])
    tabs = [point[2] for point in fiber_hilbert_compare(F, [0, 1, "generic"], (-5, 0))]
    assert tabs[0] == tabs[1] == tabs[2]
    assert tabs[0].dims[-1] == 1 and tabs[0].dims[-5] == 9

    # constant family: identical tables at any points
    C = SubmodulePresentation.ideal(R3t, [R3t.parse("x*y")])
    t1, t2 = fiber_hilbert_compare(C, [0, 7], (-4, 0))
    assert t1[2] == t2[2]


def test_fiber_hilbert_compare_detects_jump():
    Rt = _line_ring()
    x, t = Rt.variable(0), Rt.parameter()
    M = SubmodulePresentation.ideal(Rt, [t * x])
    t0, t1 = (point[0] for point in fiber_hilbert_compare(M, [0, 1], (0, 0)))
    assert t0.dims[0] == 0 and t1.dims[0] == 1
    assert t0 != t1


def test_verify_degeneration_conic():
    rep = verify_degeneration(hypersurface_conic(), TermOrder.lex(), (-6, 2))
    assert rep.squarefree and rep.fiberfull.overall and rep.equal
    assert rep.depth_ideal == rep.depth_initial == 2
    assert rep.reg_ideal == rep.reg_initial == 1
    assert rep.extremal_equal()
    # the family ideal itself is free over the base: trivial module certificate
    assert rep.fiberfull.module_certificate.annihilator.is_constant()


def test_verify_degeneration_resolves_each_module_once(monkeypatch):
    import fiberfull.ext
    import fiberfull.fiberfull
    import fiberfull.groebner
    import fiberfull.resolution

    resolved, bases = [], []

    def gens(pres):
        return tuple(str(g.components[0]) for g in pres.generators)

    def counting(pres):
        resolved.append(gens(pres))
        return free_resolution(pres)

    def counting_basis(pres, order=None):
        bases.append(gens(pres) if pres.ambient.rank == 1 else None)
        return buchberger(pres, order)

    for module in (fiberfull.ext, fiberfull.fiberfull):
        monkeypatch.setattr(module, "free_resolution", counting)
    for module in (fiberfull.ext, fiberfull.fiberfull, fiberfull.groebner, fiberfull.resolution):
        monkeypatch.setattr(module, "buchberger", counting_basis)
    pres = twisted_cubic()
    rep = verify_degeneration(pres, TermOrder.grevlex(), (-6, 2))
    ideal = gens(pres)
    initial = tuple(str(g) for g in rep.initial_generators)
    family = tuple(str(g) for g in rep.family_generators)
    # the ideal and its initial ideal take the family's resolution,
    # specialized at t = 1 and t = 0: the family is the one module resolved
    assert ideal not in resolved and initial not in resolved
    assert resolved == [family]
    # the resolution, the module certificate and the codimension share the
    # family's one reduced basis
    assert bases.count(family) == 1


def _record_results(monkeypatch, module, name):
    """The result of every call of ``module.name``, which still runs."""
    real = getattr(module, name)
    results = []

    def recorded(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(module, name, recorded)
    return results


def _record_calls(monkeypatch, module, name):
    """Arguments of every call of ``module.name``, which still runs."""
    real = getattr(module, name)
    calls = []

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("name", PARAMETER_FAMILIES)
def test_certificates_present_no_ext_below_the_codimension(monkeypatch, name):
    import fiberfull.fiberfull

    pres = PARAMETER_FAMILIES[name]
    res = free_resolution(pres)
    calls = _record_calls(monkeypatch, fiberfull.fiberfull, "_ext_from_resolution")
    _, ext_certs = _certificates(res)
    codim = _codim(pres)
    r = pres.ring.num_positive
    assert [i for _, i in calls] == list(range(min(codim, r + 1), r + 1))
    for cert in ext_certs[:codim]:
        assert cert.is_torsion_free() and cert.annihilator == pres.ring.one()


def test_tables_form_no_cokernel_below_the_codimension(monkeypatch):
    import fiberfull.ext

    # the twisted cubic and the quartic curve (codimension 2, depth 2 and 1)
    # in four variables, the ideal (x) and the zero module, whose
    # krull_dimension is -1 and whose resolution has length 0
    R4 = make_ring([1, 1, 1, 1], names=["x", "y", "z", "w"])
    cases = [(twisted_cubic(), 2),
             (ideal_from_strings(R4, ("y*z - x*w", "z^3 - y*w^2", "x*z^2 - y^2*w",
                                      "y^3 - x^2*z")), 2),
             (ideal_from_strings(R4, ("x",)), 1),
             (ideal_from_strings(R4, ("1",)), 5)]
    for pres, codim in cases:
        res = free_resolution(pres)
        assert _codim(pres) == codim
        calls = _record_calls(monkeypatch, fiberfull.ext, "_relation_leads")
        _tables_from_resolution(res, (-6, 2))
        # Q_j is presented in F_j^* by the columns of d_j^T (none for j = 0),
        # and its leads are what the tables count from
        formed = sorted(j for j in range(res.length + 1) for (q,) in calls
                        if q.ambient == res.modules[j].dual() and (q.generators or j == 0))
        assert len(formed) == len(calls), pres
        assert formed == list(range(codim, res.length + 1)), (pres, formed)


def test_verify_degeneration_trivial_families():
    for gens, pres in squarefree_presentations()[:6]:
        rep = verify_degeneration(pres, TermOrder.grevlex(), (-6, 2))
        assert rep.squarefree and rep.equal and rep.fiberfull.overall, gens
        assert all(v.certificate.annihilator.is_constant() for v in rep.fiberfull.verdicts)


def test_verify_degeneration_family_tables_locally_constant():
    # the homogenized family of the conic has equal fibers at several points
    from fiberfull import buchberger as gb, homogenize_omega, weight_vector_for

    pres = hypersurface_conic()
    G = gb(pres, TermOrder.lex())
    omega = weight_vector_for(G)
    J = homogenize_omega(G, omega)
    tabs = fiber_hilbert_compare(J, [0, 1, 2, 5], (-6, 2))
    for i in range(4):
        assert all(t[i] == tabs[0][i] for t in tabs[1:])


def test_semicontinuity_for_arbitrary_ideals():
    # degreewise the special fiber dominates, square-free or not
    from fiberfull import local_cohomology_hilbert, initial_module

    cases = [
        (hypersurface_conic(), TermOrder.lex()),
        (twisted_cubic(), TermOrder.grevlex()),
        (ideal_from_strings(make_ring([1, 1, 1], names=["x", "y", "z"]),
                            ("x^2 + y*z", "x*y")), TermOrder.grevlex()),
    ]
    window = (-8, 3)
    for pres, order in cases:
        G = buchberger(pres, order)
        init = initial_module(G)
        r = pres.ring.num_positive
        for i in range(r + 1):
            a = local_cohomology_hilbert(pres, i, window)
            b = local_cohomology_hilbert(init, i, window)
            for nu in range(window[0], window[1] + 1):
                assert b.dims[nu] >= a.dims[nu]


def test_verify_degeneration_rejects_bad_input():
    R = make_ring([1, 1], names=["x", "y"])
    inhom = SubmodulePresentation.ideal(R, [R.parse("x^2 - y")])
    with pytest.raises(InvalidArgumentError):
        verify_degeneration(inhom, TermOrder.lex(), (-4, 2))


def test_verify_degeneration_refuses_a_family_with_torsion(monkeypatch):
    # the ends are read off the family's resolution only because a Groebner
    # family is flat; a module certificate showing torsion must stop that.
    # The torsion is planted where that certificate is computed, from the
    # family's reduced basis
    import fiberfull.fiberfull
    from fiberfull import TheoremViolationError

    real = fiberfull.fiberfull._basis_torsion
    planted = []

    def with_torsion(G):
        real(G)
        planted.append(G)
        return fiberfull.fiberfull.TorsionCertificate(
            None, (G.elements[0],), G.ring.parameter())

    monkeypatch.setattr(fiberfull.fiberfull, "_basis_torsion", with_torsion)
    with pytest.raises(TheoremViolationError, match="not flat"):
        verify_degeneration(twisted_cubic(), TermOrder.grevlex(), (-6, 2))
    assert len(planted) == 1 and planted[0].ring.has_parameter


def _cv_verify_case(text):
    """(ideal, order, window) of a problem text as ``cv-verify`` reads it
    with no flags: over F_32003 when the text declares QQ, under its order
    statement or grevlex, on its window or (-delta - 10, 10)."""
    spec = parse_input(text)
    if spec.ring.field == QQ:
        spec = spec.with_field(GF(32003))
    window = spec.window or (-spec.ring.delta - 10, 10)
    return (SubmodulePresentation.ideal(spec.ring, list(spec.generators)),
            spec.order or TermOrder.grevlex(), window)


def _golden_and_test_cv_verify_inputs():
    """(name, ideal, order, window) for the cv-verify inputs of the golden
    pins, the texts of the parser corpus that cv-verify accepts (no
    parameter, homogeneous generators), and the ideals the tests and the
    demos hand to verify_degeneration, under lex and grevlex."""
    from test_golden import MINORS_2X3, NOT_FIBERFULL, QUARTIC, SEXTIC

    out = []
    pres, _, window = _cv_verify_case(MINORS_2X3)
    out.append(("golden-minors", pres, TermOrder.lex(), window))
    for name, text in (("golden-sextic", SEXTIC), ("golden-quartic", QUARTIC),
                       ("golden-not-fiberfull", NOT_FIBERFULL)):
        out.append((name,) + _cv_verify_case(text))
    for k, text in enumerate(PARSER_CORPUS):
        if " param " in text:
            continue
        case = _cv_verify_case(text)
        if all(g.is_homogeneous() for g in case[0].generators):
            out.append(("parser-corpus-%d" % k,) + case)
    for k, pres in enumerate(macaulay_suite()):
        for order in (TermOrder.lex(), TermOrder.grevlex()):
            out.append(("macaulay-%d-%s" % (k, order.describe()), pres, order, (-6, 2)))
    return out


def _family_resolution(pres, order):
    """The resolution of the Groebner family of ``pres`` that cv-verify
    builds."""
    G = buchberger(pres, order)
    return free_resolution(homogenize_omega(G, weight_vector_for(G)))


def _check_series_route(monkeypatch, cases):
    """Run verify_degeneration on every (name, ideal, order, window) case and
    compare its certificates with those of the presenting route,
    ``_certificates`` of the family's resolution.  Ext is presented exactly
    when the family is not fiber-full at t = 0.  Returns the verdicts."""
    import fiberfull.fiberfull

    presented = _record_calls(monkeypatch, fiberfull.fiberfull, "_ext_from_resolution")
    verdicts = Counter()
    for name, pres, order, window in cases:
        del presented[:]
        rep = verify_degeneration(pres, order, window)
        ff = rep.fiberfull
        assert bool(presented) is not ff.overall, name
        expected = _certificates(_family_resolution(pres, order))
        assert (ff.module_certificate, tuple(v.certificate for v in ff.verdicts)) == expected, name
        verdicts[ff.overall] += 1
    return verdicts


def test_series_route_certificates_equal_the_presented_route(tmp_path, monkeypatch):
    cases = _golden_and_test_cv_verify_inputs()
    for inst in _degeneration_instances(1, tmp_path):
        if not inst.cliff:
            cases.append(("bench-" + inst.name,) + _cv_verify_case(inst.text))
    verdicts = _check_series_route(monkeypatch, cases)
    assert verdicts[True] and verdicts[False], verdicts


def test_series_route_certificates_equal_the_presented_route_on_random_ideals(monkeypatch):
    # two or three random quadrics in four variables, under lex and grevlex
    R = make_ring([1, 1, 1, 1], field=GF(32003), names=["x", "y", "z", "w"])
    rng = random.Random(27)
    cases = []
    for k in range(60):
        gens = [rand_homogeneous(rng, R, 2) for _ in range(rng.randint(2, 3))]
        pres = SubmodulePresentation.ideal(R, gens)
        for order in (TermOrder.lex(), TermOrder.grevlex()):
            cases.append(([str(g) for g in gens], pres, order, (-8, 3)))
    verdicts = _check_series_route(monkeypatch, cases)
    assert verdicts[True] and verdicts[False] >= 5, verdicts


def test_ext_numerators_expand_to_the_tables():
    # at both ends of every golden and test cv-verify input, the Ext^j
    # numerators over the denominator of k[x], expanded on the window, give
    # the tables that the long way counts: the Hilbert function of every
    # Q_j and F_j^*, component by component, with the dense expansion of
    # monomial_quotient_counts.  The window (-3, -2) lies above the dual of
    # the lowest term of some numerators
    for name, pres, order, window in _golden_and_test_cv_verify_inputs():
        family = _family_resolution(pres, order)
        for c in (1, 0):
            res = specialize_resolution(family, c)
            assert len(_ext_numerators(res)) == res.ring.num_positive + 1
            for w in (window, (-3, -2)):
                assert _tables_from_resolution(res, w) == cokernel_tables(res, w), (name, c, w)
