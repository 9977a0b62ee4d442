"""Acceptance suite: every criterion at its stated tolerance (all exact).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import os
import random
import subprocess
import sys

import pytest

from fiberfull import (
    GradedFreeModule,
    PolyVector,
    SubmodulePresentation,
    TermOrder,
    betti_table,
    buchberger,
    depth_and_regularity,
    evaluate_parameter,
    fiber_full_check,
    fiber_full_locus,
    fiber_hilbert_compare,
    free_resolution,
    hilbert_function,
    hochster_hilbert,
    homogenize_omega,
    initial_module,
    local_cohomology_hilbert,
    local_cohomology_tables,
    make_ring,
    parameter_lcm,
    parameter_monic,
    parse_input,
    weight_vector_for,
)
from fixtures import (
    PARSER_CORPUS,
    generic_minors,
    hypersurface_conic,
    ideal_from_strings,
    macaulay_suite,
    ring2,
    squarefree_presentations,
    twisted_cubic,
)
from helpers import resolution_exact_in_degree


def _line(n, text):
    print("ACCEPTANCE %d: PASS - %s" % (n, text))


@pytest.fixture(scope="module")
def verify_reports():
    """Degeneration reports for every criterion-5 instance, computed once."""
    from fiberfull import verify_degeneration

    window = (-10, 5)
    reports = []
    reports.append(("conic/lex", verify_degeneration(hypersurface_conic(), TermOrder.lex(), window)))
    for gens, pres in squarefree_presentations():
        reports.append(("sqfree %s" % (gens,),
                        verify_degeneration(pres, TermOrder.grevlex(), window)))
    reports.append(("minors/lex", verify_degeneration(generic_minors(), TermOrder.lex(), window)))
    return reports


def test_criterion_1_polynomial_ring_local_cohomology():
    R = make_ring([1, 1, 1], names=["x", "y", "z"])
    S = SubmodulePresentation.ideal(R, [])
    expected = {-3: 1, -4: 3, -5: 6, -6: 10, -2: 0, -1: 0, 0: 0}
    top = local_cohomology_hilbert(S, 3, (-6, 0))
    assert top.dims == expected
    for i in (0, 1, 2):
        assert local_cohomology_hilbert(S, i, (-6, 0)).is_zero()
    _line(1, "H^i of k[x,y,z]: zero for i != 3, exact inverse-monomial counts for i = 3")


def test_criterion_2_duality_vs_hochster_oracle():
    suite = squarefree_presentations()
    assert len(suite) == 20
    window = (-8, 2)
    for gens, pres in suite:
        tables = local_cohomology_tables(pres, window)
        for i in range(5):
            assert hochster_hilbert(pres, i, window) == tables[i], (gens, i)
    _line(2, "20 square-free ideals, i = 0..4: simplicial route equals duality route on [-8, 2]")


def test_criterion_3_macaulay_consistency():
    for pres in macaulay_suite():
        G = buchberger(pres, TermOrder.grevlex())
        init = initial_module(G)
        assert hilbert_function(pres.as_quotient(), (0, 10)) == hilbert_function(
            init.as_quotient(), (0, 10))
    _line(3, "dim [S/I]_nu = dim [S/in(I)]_nu on [0, 10] for every suite ideal")


def test_criterion_4_resolution_properties():
    R2v = ring2()
    koszul = free_resolution(ideal_from_strings(R2v, ("x", "y")))
    assert koszul.ranks() == [1, 2, 1]
    assert koszul.check_complex()

    cubic_pres = twisted_cubic()
    cubic = free_resolution(cubic_pres)
    assert cubic.ranks() == [1, 3, 2]
    assert cubic.check_complex()
    bt = betti_table(cubic)
    assert depth_and_regularity(bt, 4) == (2, 1)
    for res in (koszul, cubic):
        for A in res.rows:
            for row in A:
                for entry in row.values():
                    assert not entry.is_constant()
        for k in range(1, res.length + 1):
            for nu in range(0, 6):
                assert resolution_exact_in_degree(res, k, nu)

    # by-hand syzygy fixture: the two rows of the 2x3 matrix recombine the
    # minors to zero in degree 3, matching the computed second step
    R = cubic_pres.ring
    x, y, z, w = (R.variable(i) for i in range(4))
    f1, f2, f3 = x * z - y * y, x * w - y * z, y * w - z * z
    assert (x * f3 - y * f2 + z * f1).is_zero()
    assert (y * f3 - z * f2 + w * f1).is_zero()
    assert list(cubic.modules[2].twists) == [3, 3]
    _line(4, "d^2 = 0, degreewise exactness, minimality, Koszul (1,2,1), cubic (1,3,2)/reg 1/depth 2")


def test_criterion_5_squarefree_degeneration_theorem(verify_reports):
    for label, rep in verify_reports:
        assert rep.squarefree, label
        assert rep.equal, label
        assert rep.extremal_equal(), label
        assert rep.depth_ideal == rep.depth_initial, label
        assert rep.reg_ideal == rep.reg_initial, label
    _line(5, "equal local cohomology tables on [-10, 5] plus matching extremal "
             "Betti/depth/reg for conic, 20 square-free ideals, and 2x3 minors")


def test_criterion_6_fiber_full_criterion_coherence(verify_reports):
    for label, rep in verify_reports:
        ff = rep.fiberfull
        assert ff.overall, label
        tring = ff.module_certificate.annihilator.ring
        assert ff.module_certificate.annihilator == tring.one(), label
        for verdict in ff.verdicts:
            assert verdict.certificate.annihilator == tring.one(), label

    Rt = make_ring([1], True, names=["x"])
    x, t = Rt.variable(0), Rt.parameter()
    M = SubmodulePresentation.ideal(Rt, [t * x])
    assert not fiber_full_check(M, at=0).overall
    assert fiber_full_check(M, at=1).overall
    assert fiber_full_locus(M) == t
    _line(6, "family checks pass at (t) with unit certificates; k[t][x]/(tx) fails "
             "at (t), passes at (t-1), locus polynomial exactly t")


def test_criterion_7_locally_constant_fibers():
    pres = hypersurface_conic()
    G = buchberger(pres, TermOrder.lex())
    J = homogenize_omega(G, weight_vector_for(G))
    tabs = fiber_hilbert_compare(J, [0, 1, 2, 5], (-10, 5))
    for i in range(4):
        assert all(t[i] == tabs[0][i] for t in tabs[1:]), i
    _line(7, "H^i tables of the conic family agree at t in {0, 1, 2, 5} on [-10, 5] for every i")


def test_criterion_8_locus_pointwise_consistency():
    rng = random.Random(int(os.environ.get("FIBERFULL_SEED", "0")))
    Rt = make_ring([1, 1], True, names=["x", "y"])
    x, y, t = Rt.variable(0), Rt.variable(1), Rt.parameter()
    for trial in range(10):
        n = rng.randint(1, 3)
        amb = GradedFreeModule(Rt, (0,) * n)
        planted = []
        gens = []
        for j in range(n):
            p = Rt.one()
            for _ in range(rng.randint(1, 2)):
                p = p * (t - Rt.constant(rng.choice((0, 1, 2, 3))))
            planted.append(p)
            comps = [Rt.zero()] * n
            comps[j] = p * (x ** rng.randint(0, 2)) * (y ** rng.randint(0, 1))
            gens.append(PolyVector(amb, tuple(comps)))
        M = SubmodulePresentation(amb, gens)
        expected = planted[0]
        for p in planted[1:]:
            expected = parameter_lcm(expected, p)
        assert fiber_full_locus(M) == parameter_monic(expected), trial
        for c in (0, 1, 2, 3, 4):
            hit_root = evaluate_parameter(expected, c) == Rt.field.zero
            assert fiber_full_check(M, at=c).overall == (not hit_root), (trial, c)
    _line(8, "10 planted-torsion modules: checks fail exactly on the roots, "
             "locus equals the monic lcm of the planted annihilators")


def test_criterion_9_determinism_and_round_trip(tmp_path):
    for text in PARSER_CORPUS:
        spec = parse_input(text)
        assert parse_input(spec.to_text()) == spec

    path = tmp_path / "conic.ring"
    path.write_text("ring S vars (x,y,z) weights (1,1,1) field QQ;\n"
                    "ideal I = (x*z - y^2);\n", encoding="utf-8")
    cmd = [sys.executable, "-m", "fiberfull.cli", "cv-verify", str(path),
           "--order", "lex", "--window=-6:2"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["report"]["squarefree"] is True
    assert payload["report"]["equal"] is True
    _line(9, "byte-identical CLI reruns; parser round-trip on the fixture corpus")
