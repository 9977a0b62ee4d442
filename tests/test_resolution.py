"""Free resolutions, minimality, Betti tables, extremal positions, depth and
regularity; the twisted cubic checked against a by-hand syzygy computation;
the minimal-pair Schreyer frame on ideals whose all-pairs frame is
Koszul-sized, and against the all-pairs frame on the parameter families."""

import pytest

from fiberfull import (
    GF,
    QQ,
    InvalidArgumentError,
    SubmodulePresentation,
    TermOrder,
    betti_table,
    buchberger,
    depth_and_regularity,
    free_resolution,
    homogenize_omega,
    krull_dimension,
    make_ring,
    weight_vector_for,
)
from fiberfull.fiberfull import _module_certificates
from fiberfull.resolution import _schreyer_frame, specialize_resolution
from fixtures import (
    ideal_from_strings,
    macaulay_suite,
    minors_2x2,
    parameter_families,
    ring2,
    ring4,
    twisted_cubic,
)
from helpers import (
    all_pairs_frame,
    frame_invariants,
    restart_minimize,
    resolution_exact_in_degree,
    rows_are_sparse,
    vector_in_submodule,
)


def test_koszul_two_variables():
    R = ring2()
    P = ideal_from_strings(R, ("x", "y"))
    res = free_resolution(P)
    assert res.ranks() == [1, 2, 1]
    assert [list(m.twists) for m in res.modules] == [[0], [1, 1], [2]]
    assert res.check_complex()
    bt = betti_table(res)
    assert bt.entries == {(0, 0): 1, (1, 0): 2, (2, 0): 1}
    assert bt.extremal == {(2, 0, 1)}
    assert depth_and_regularity(bt, 2) == (0, 0)


def test_principal_ideal_two_term_resolution():
    R = ring2()
    P = ideal_from_strings(R, ("x^3 - x*y^2",))
    res = free_resolution(P)
    assert res.ranks() == [1, 1]
    assert list(res.modules[1].twists) == [3]
    bt = betti_table(res)
    assert depth_and_regularity(bt, 2) == (1, 2)


def test_ring_itself():
    R = ring2()
    res = free_resolution(SubmodulePresentation.ideal(R, []))
    assert res.ranks() == [1]
    bt = betti_table(res)
    assert bt.entries == {(0, 0): 1}
    assert bt.extremal == {(0, 0, 1)}


def test_twisted_cubic_resolution_and_betti():
    P = twisted_cubic()
    res = free_resolution(P)
    assert res.ranks() == [1, 3, 2]
    assert list(res.modules[1].twists) == [2, 2, 2]
    assert list(res.modules[2].twists) == [3, 3]
    assert res.check_complex()
    bt = betti_table(res)
    assert bt.entries == {(0, 0): 1, (1, 1): 3, (2, 1): 2}
    assert bt.extremal == {(2, 1, 2)}
    assert depth_and_regularity(bt, 4) == (2, 1)
    assert krull_dimension(P) == 2


def test_twisted_cubic_by_hand_syzygies():
    """The two linear relations among the quadrics, written down by hand from
    the 2x3 matrix [[x, y, z], [y, z, w]], generate the first syzygy module:
        x*(yw - z^2) - y*(xw - yz) + z*(xz - y^2) = 0
        y*(yw - z^2) - z*(xw - yz) + w*(xz - y^2) = 0
    """
    R = ring4()
    x, y, z, w = (R.variable(i) for i in range(4))
    f1 = x * z - y * y
    f2 = x * w - y * z
    f3 = y * w - z * z
    assert (x * f3 - y * f2 + z * f1).is_zero()
    assert (y * f3 - z * f2 + w * f1).is_zero()

    P = SubmodulePresentation.ideal(R, [f1, f2, f3])
    G = buchberger(P, TermOrder.grevlex())
    # express the by-hand syzygies in the basis order the engine produced
    index = {}
    for pos, v in enumerate(G.elements):
        for cand, name in ((f1, "f1"), (f2, "f2"), (f3, "f3")):
            if v.components[0] in (cand, -cand):
                sign = 1 if v.components[0] == cand else -1
                index[name] = (pos, sign)
    assert set(index) == {"f1", "f2", "f3"}
    from fiberfull import syzygies, PolyVector

    S = syzygies(G)
    GS = buchberger(SubmodulePresentation(S.ambient, S.generators))
    for coeffs in ((z, -y, x), (w, -z, y)):  # on (f1, f2, f3)
        comps = [R.zero()] * 3
        for name, coeff in zip(("f1", "f2", "f3"), coeffs):
            pos, sign = index[name]
            comps[pos] = coeff * sign
        vec = PolyVector(S.ambient, tuple(comps))
        assert vector_in_submodule(vec, GS)
    # ranks agree with the by-hand module: two generators in degree 3
    assert len(S.generators) >= 2


def test_d_squared_zero_and_exactness():
    for pres in (twisted_cubic(), ideal_from_strings(ring2(), ("x", "y"))):
        res = free_resolution(pres)
        assert res.check_complex()
        for k in range(1, res.length + 1):
            for nu in range(0, 6):
                assert resolution_exact_in_degree(res, k, nu)


def test_raw_schreyer_resolution_exact():
    # the unminimized frame, from which the minimal resolution is pruned,
    # must be exact too
    cases = (
        twisted_cubic(),
        ideal_from_strings(ring4(), ("x*y", "y*z", "z*w")),
        ideal_from_strings(ring2(), ("x^2", "x*y", "y^3")),
    )
    for pres in cases:
        res = _schreyer_frame(pres)
        assert res.check_complex()
        for k in range(1, res.length + 1):
            for nu in range(0, 7):
                assert resolution_exact_in_degree(res, k, nu)


def test_check_complex_rejects_a_perturbed_entry():
    # doubling one entry of d_2 leaves d_1 d_2 nonzero, for every column of
    # d_1 is a nonzero generator of the ideal
    for pres in (twisted_cubic(), ideal_from_strings(ring2(), ("x", "y"))):
        res = free_resolution(pres)
        assert res.check_complex()
        row = next(row for row in res.rows[1] if row)
        c, entry = next(iter(row.items()))
        row[c] = entry * 2
        assert not res.check_complex()


def test_rows_store_nonzero_entries_of_source_columns():
    # the frame, the pruned resolution and the specializations at t = 0 and
    # t = 1 of the Groebner families store no zero and no column outside
    # the source; specializing leaves the family's rows as they were
    vanished = 0
    for pres in macaulay_suite(GF(32003))[19:]:
        assert rows_are_sparse(_schreyer_frame(pres))
        assert rows_are_sparse(free_resolution(pres))
        for order in (TermOrder.grevlex(), TermOrder.lex()):
            G = buchberger(pres, order)
            family = homogenize_omega(G, weight_vector_for(G))
            assert rows_are_sparse(_schreyer_frame(family))
            res = free_resolution(family)
            assert rows_are_sparse(res)
            before = [[dict(row) for row in A] for A in res.rows]
            for c in (0, 1):
                assert rows_are_sparse(specialize_resolution(res, c))
            assert res.rows == before
            target = family.ring.without_parameter()
            vanished += sum(entry.specialize_parameter(0, target).is_zero()
                            for A in res.rows for row in A for entry in row.values())
    # some family entries do vanish at t = 0, so the drop is exercised
    assert vanished > 0


def test_minimality_no_scalar_entries():
    for pres in (twisted_cubic(), ideal_from_strings(ring2(), ("x", "y", "x*y"))):
        res = free_resolution(pres)
        for A in res.rows:
            for row in A:
                for entry in row.values():
                    assert not entry.is_constant()


def test_beta0_counts_minimal_generators():
    R = ring2()
    # x and y are minimal generators, x*y is redundant
    P = ideal_from_strings(R, ("x", "y", "x*y"))
    res = free_resolution(P)
    bt = betti_table(res)
    assert bt.entries[(1, 0)] == 2
    assert (1, 1) not in bt.entries

    # mixed degrees stay separated
    P2 = ideal_from_strings(R, ("x^2", "y^3"))
    bt2 = betti_table(free_resolution(P2))
    assert bt2.entries[(1, 1)] == 1 and bt2.entries[(1, 2)] == 1


def test_one_sweep_meets_the_pivots_of_the_restart_scan():
    # over a positively graded k[x] no pivot creates a unit in a row already
    # scanned, so one sweep per level gives the same resolution as a scan
    # that restarts after every pivot
    for field in (QQ, GF(32003)):
        for pres in macaulay_suite(field):
            reference = _schreyer_frame(pres)
            restart_minimize(reference)
            res = free_resolution(pres)
            assert res.minimal
            assert res.modules == reference.modules, pres.generators
            assert res.rows == reference.rows, pres.generators


def _twist_polynomial(res):
    """sum_i (-1)^i sum_tau z^tau as {tau: coefficient}, zeros dropped."""
    poly = {}
    for i, module in enumerate(res.modules):
        for tau in module.twists:
            poly[tau] = poly.get(tau, 0) + (-1) ** i
    return {tau: c for tau, c in poly.items() if c}


PARAMETER_FAMILIES = parameter_families()


@pytest.mark.parametrize("name", PARAMETER_FAMILIES)
def test_pruned_resolution_over_parameter_ring(name):
    pres = PARAMETER_FAMILIES[name]
    res = free_resolution(pres)
    frame = _schreyer_frame(pres)
    assert not res.minimal
    assert res.check_complex()
    ranks, frame_ranks = res.ranks(), frame.ranks()
    assert len(ranks) <= len(frame_ranks)
    assert all(a <= b for a, b in zip(ranks, frame_ranks)), (ranks, frame_ranks)
    assert _twist_polynomial(res) == _twist_polynomial(frame)


@pytest.mark.parametrize("name", PARAMETER_FAMILIES)
def test_minimal_pair_frame_keeps_the_family_invariants(name):
    pres = PARAMETER_FAMILIES[name]
    invariants = frame_invariants(pres)
    with all_pairs_frame():
        assert invariants == frame_invariants(pres)


def test_minimal_pair_frame_of_the_cliff():
    # the all-pairs frame of either ideal has 2^15 = 32768 generators in all
    R12 = make_ring([1] * 12, field=GF(32003))
    minors = minors_2x2(R12, R12.names[:6], R12.names[6:])
    R7 = make_ring([1] * 7, field=GF(32003))
    sextic = minors_2x2(R7, R7.names[:6], R7.names[1:])
    for pres in (minors, sextic):
        assert _schreyer_frame(pres).ranks() == [1, 15, 40, 45, 24, 5]


def test_minimal_pair_frame_over_a_parameter_ring():
    # a 10-element reduced basis: the all-pairs frame has 2^10 = 1024
    # generators, 1,10,45,...,10,1
    Rt = make_ring([1, 1, 1], True, field=GF(32003), names=["x", "y", "z"])
    pres = ideal_from_strings(
        Rt, ("(t+2)*y + 2*(t+1)*z", "(t+3)*y^2", "2*(t-2)*x*y + (t-2)*z^2"))
    assert _schreyer_frame(pres).ranks() == [1, 10, 19, 13, 3]
    module_cert, ext_certs = _module_certificates(pres)
    with all_pairs_frame():
        ref_module_cert, ref_ext_certs = _module_certificates(pres)
    assert module_cert == ref_module_cert
    assert [c.annihilator for c in ext_certs] == [c.annihilator for c in ref_ext_certs]


def _graded_of_degree_zero(res):
    """Every stored entry (r, c) of d_{k+1} is homogeneous of degree
    twist c of F_{k+1} minus twist r of F_k."""
    return all(entry.degrees() == [res.modules[k + 1].twists[c] - res.modules[k].twists[r]]
               for k, A in enumerate(res.rows)
               for r, row in enumerate(A) for c, entry in row.items())


def test_differentials_are_graded_of_degree_zero():
    # the frame's twists are read off the leads; every entry must agree
    for field in (QQ, GF(32003)):
        for pres in macaulay_suite(field):
            assert _graded_of_degree_zero(_schreyer_frame(pres)), pres.generators
            assert _graded_of_degree_zero(free_resolution(pres)), pres.generators
    for name, pres in PARAMETER_FAMILIES.items():
        assert _graded_of_degree_zero(_schreyer_frame(pres)), name
        res = free_resolution(pres)
        assert _graded_of_degree_zero(res), name
        for c in (0, 1):
            assert _graded_of_degree_zero(specialize_resolution(res, c)), (name, c)


def test_nonminimal_resolution_rejected_by_betti():
    P = twisted_cubic()
    res = _schreyer_frame(P)
    with pytest.raises(InvalidArgumentError):
        betti_table(res)


def test_parameter_ring_resolution_has_no_betti_table():
    Rt = make_ring([1, 1], True, names=["x", "y"])
    P = SubmodulePresentation.ideal(Rt, [Rt.parse("t*x")])
    res = free_resolution(P)
    assert res.check_complex()
    assert not res.minimal
    with pytest.raises(InvalidArgumentError):
        betti_table(res)


def test_resolution_length_bounded_by_variables():
    for pres in (
        twisted_cubic(),
        ideal_from_strings(ring4(), ("x*y", "y*z", "z*w", "w*x")),
        ideal_from_strings(ring4(), ("x", "y", "z", "w")),
    ):
        res = free_resolution(pres)
        assert res.length <= pres.ring.nvars


def test_inhomogeneous_generator_rejected():
    R = ring2()
    P = SubmodulePresentation.ideal(R, [R.parse("x^2 - y")])
    with pytest.raises(InvalidArgumentError):
        free_resolution(P)


def test_specialized_family_resolution_resolves_both_ends():
    # the Groebner family is flat over k[t], so its resolution specialized
    # at t = 1 and t = 0 resolves the ideal and its initial ideal: the same
    # Betti tables and local cohomology tables as resolving them directly
    from fiberfull import (homogenize_omega, initial_module, local_cohomology_tables,
                           weight_vector_for)
    from fiberfull.ext import _tables_from_resolution
    from fiberfull.resolution import specialize_resolution

    window = (-8, 3)
    for field in (QQ, GF(32003)):
        for pres in macaulay_suite(field)[19:]:
            for order in (TermOrder.grevlex(), TermOrder.lex()):
                G = buchberger(pres, order)
                init = initial_module(G)
                res = free_resolution(homogenize_omega(G, weight_vector_for(G)))
                for c, end in ((1, pres), (0, init)):
                    spec = specialize_resolution(res, c)
                    assert spec.minimal and spec.check_complex()
                    assert spec.ring == end.ring
                    for k in range(1, spec.length + 1):
                        for nu in range(5):
                            assert resolution_exact_in_degree(spec, k, nu)
                    assert betti_table(spec) == betti_table(free_resolution(end))
                    tables = _tables_from_resolution(spec, window)
                    assert tables == local_cohomology_tables(end, window)
