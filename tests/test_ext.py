"""Ext presentations, local cohomology tables through duality, vanishing
ranges, the depth/dimension sandwich, and the double-dual spot check."""

import pytest

from fiberfull import (
    SubmodulePresentation,
    betti_table,
    depth_and_regularity,
    ext_modules,
    free_resolution,
    hilbert_function,
    krull_dimension,
    local_cohomology_hilbert,
    local_cohomology_tables,
    make_ring,
)
from fiberfull.ext import _ext_from_resolution
from fiberfull.resolution import _schreyer_frame
from fixtures import (
    hypersurface_conic,
    ideal_from_strings,
    ring2,
    ring3,
    ring4,
    squarefree_presentations,
    twisted_cubic,
)


def test_ext_of_free_module():
    R = ring3()
    S = SubmodulePresentation.ideal(R, [])
    exts = ext_modules(S)
    assert hilbert_function(exts[0], (0, 2)).dims == {0: 1, 1: 3, 2: 6}
    for e in exts[1:]:
        assert hilbert_function(e, (-4, 2)).is_zero()


def test_ext_of_residue_field():
    R = ring2()
    K = ideal_from_strings(R, ("x", "y"))
    exts = ext_modules(K)
    assert hilbert_function(exts[0], (-3, 1)).is_zero()
    assert hilbert_function(exts[1], (-3, 1)).is_zero()
    # one-dimensional, concentrated in internal degree -2
    assert hilbert_function(exts[2], (-3, 1)).dims == {-3: 0, -2: 1, -1: 0, 0: 0, 1: 0}


def test_ext_of_principal_ideal():
    R = ring2()
    P = ideal_from_strings(R, ("x^2*y - y^3",))  # degree 3 hypersurface
    exts = ext_modules(P)
    assert hilbert_function(exts[0], (-3, 3)).is_zero()
    # Ext^1 = (S/f)(3): dimensions shift by the twist
    quotient = hilbert_function(P.as_quotient(), (0, 6))
    ext1 = hilbert_function(exts[1], (-3, 3))
    for nu in range(-3, 4):
        assert ext1.dims[nu] == quotient.dims[nu + 3]


def test_local_cohomology_polynomial_ring():
    R = ring3()
    S = SubmodulePresentation.ideal(R, [])
    t3 = local_cohomology_hilbert(S, 3, (-6, 0))
    assert t3.dims == {-6: 10, -5: 6, -4: 3, -3: 1, -2: 0, -1: 0, 0: 0}
    for i in (0, 1, 2):
        assert local_cohomology_hilbert(S, i, (-6, 0)).is_zero()


def test_local_cohomology_finite_length_and_hypersurface():
    R = ring2()
    K = ideal_from_strings(R, ("x", "y"))
    assert local_cohomology_hilbert(K, 0, (-2, 1)).dims == {-2: 0, -1: 0, 0: 1, 1: 0}
    for i in (1, 2):
        assert local_cohomology_hilbert(K, i, (-2, 1)).is_zero()

    P = ideal_from_strings(R, ("x^2",))
    t1 = local_cohomology_hilbert(P, 1, (-3, 1))
    assert t1.dims == {-3: 2, -2: 2, -1: 2, 0: 1, 1: 0}
    assert local_cohomology_hilbert(P, 0, (-3, 1)).is_zero()


def test_index_validation():
    R = ring2()
    S = SubmodulePresentation.ideal(R, [])
    with pytest.raises(IndexError):
        local_cohomology_hilbert(S, -1, (0, 1))
    with pytest.raises(IndexError):
        local_cohomology_hilbert(S, 3, (0, 1))


def test_empty_window_is_reported_as_given():
    # every entry point taking a window rejects an empty one before any
    # work, with the caller's bounds rather than those of the flipped window
    # that the tables read Ext on
    from fiberfull import (GradedFreeModule, InvalidArgumentError, TermOrder,
                           fiber_hilbert_compare, hochster_hilbert, verify_degeneration)

    conic = hypersurface_conic()
    rank_zero = SubmodulePresentation(GradedFreeModule(conic.ring, ()), [])
    (_, squarefree), = squarefree_presentations()[:1]
    Rt = make_ring([1, 1, 1], True, names=["x", "y", "z"])
    family = ideal_from_strings(Rt, ("x*z - t*y^2",))
    calls = [
        lambda w: local_cohomology_tables(conic, w),
        lambda w: local_cohomology_hilbert(conic, 1, w),
        lambda w: hochster_hilbert(squarefree, 1, w),
        lambda w: hilbert_function(rank_zero, w),
        lambda w: hilbert_function(conic, w),
        lambda w: verify_degeneration(conic, TermOrder.lex(), w),
        lambda w: fiber_hilbert_compare(family, ["generic", 0], w),
    ]
    for call in calls:
        with pytest.raises(InvalidArgumentError, match=r"^empty window \[5, 1\]$"):
            call((5, 1))
        call((1, 1))


def test_parameter_ring_rejected():
    Rt = make_ring([1, 1], True, names=["x", "y"])
    P = SubmodulePresentation.ideal(Rt, [Rt.parse("t*x")])
    from fiberfull import InvalidArgumentError

    with pytest.raises(InvalidArgumentError):
        local_cohomology_hilbert(P, 0, (0, 1))


def test_vanishing_above_regularity():
    window = (-8, 6)
    for pres in (twisted_cubic(), ideal_from_strings(ring3(), ("x*z - y^2",))):
        r = pres.ring.num_positive
        bt = betti_table(free_resolution(pres))
        _, reg = depth_and_regularity(bt, r)
        for i in range(r + 1):
            tab = local_cohomology_hilbert(pres, i, window)
            for nu, d in tab.dims.items():
                if nu > reg:
                    assert d == 0


def test_depth_dimension_sandwich():
    window = (-8, 2)
    for _, pres in squarefree_presentations()[:12]:
        r = pres.ring.num_positive
        bt = betti_table(free_resolution(pres))
        depth, _ = depth_and_regularity(bt, r)
        dim = krull_dimension(pres)
        nonzero = [
            i for i in range(r + 1)
            if not local_cohomology_hilbert(pres, i, window).is_zero()
        ]
        assert nonzero, "cohomology cannot vanish everywhere"
        assert min(nonzero) == depth
        assert max(nonzero) <= dim
        assert dim in nonzero


def test_min_nonzero_index_is_depth_nonmonomial():
    for pres in (twisted_cubic(), ideal_from_strings(ring3(), ("x*z - y^2",))):
        r = pres.ring.num_positive
        bt = betti_table(free_resolution(pres))
        depth, _ = depth_and_regularity(bt, r)
        nonzero = [
            i for i in range(r + 1)
            if not local_cohomology_hilbert(pres, i, (-8, 3)).is_zero()
        ]
        assert min(nonzero) == depth


def test_double_dual_of_finite_length_module():
    R = ring2()
    r = 2
    for gens in (("x", "y"), ("x^2", "y"), ("x^2", "x*y", "y^2")):
        pres = ideal_from_strings(R, gens)
        res = free_resolution(pres)
        ext_r = _ext_from_resolution(res, r)
        res2 = free_resolution(ext_r)
        double = _ext_from_resolution(res2, r)
        original = hilbert_function(pres.as_quotient(), (0, 4))
        again = hilbert_function(double, (0, 4))
        assert original == again


def test_ext_presentation_is_a_submodule_presentation():
    ext = ext_modules(twisted_cubic())[1]
    assert isinstance(ext, SubmodulePresentation)
    assert ext.relations == ext.generators
    assert ext.as_quotient() is ext


def test_tables_share_resolution():
    pres = twisted_cubic()
    tabs = local_cohomology_tables(pres, (-6, 2))
    for i in range(pres.ring.num_positive + 1):
        assert tabs[i] == local_cohomology_hilbert(pres, i, (-6, 2))


def test_tables_from_minimal_resolution_match_the_schreyer_frame():
    # the tables are read off the minimal resolution; the unminimized frame
    # gives isomorphic Ext modules and serves as the reference route
    quartic = ideal_from_strings(  # rational quartic curve: not Cohen-Macaulay
        ring4(), ("y*z - x*w", "z^3 - y*w^2", "x*z^2 - y^2*w", "y^3 - x^2*z"))
    cases = [twisted_cubic(), quartic] + [pres for _, pres in squarefree_presentations()]
    lo, hi = window = (-8, 3)
    for pres in cases:
        ring = pres.ring
        r, delta = ring.num_positive, ring.delta
        frame = _schreyer_frame(pres)
        reference = []
        for i in range(r + 1):
            ext = _ext_from_resolution(frame, r - i)
            inner = hilbert_function(ext, (-hi - delta, -lo - delta)).dims
            reference.append({nu: inner[-nu - delta] for nu in range(lo, hi + 1)})
        assert [t.dims for t in local_cohomology_tables(pres, window)] == reference


def test_top_ext_is_presented_by_the_last_image():
    # Ext^n at the length n is the cokernel of the last transposed
    # differential; its relations span the same submodule as the syzygy
    # heads of (basis | image), the head route for Ext relations
    from fiberfull import GradedFreeModule, PolyVector, buchberger, module_kernel
    from fiberfull.ext import _dual_columns
    from fixtures import parameter_families

    cases = [twisted_cubic(), ideal_from_strings(ring2(), ("x^2", "x*y", "y^2"))]
    for pres in cases + list(parameter_families().values()):
        res = free_resolution(pres)
        n = res.length
        ext = _ext_from_resolution(res, n)
        dual = res.modules[n].dual()
        basis = [dual.basis_vector(j) for j in range(dual.rank)]
        image = _dual_columns(res, n)
        twists = list(dual.twists) + [0 if v.is_zero() else v.degree() for v in image]
        heads = [PolyVector(dual, s.components[:dual.rank])
                 for s in module_kernel(basis + image, twists, ambient=dual)]
        reference = SubmodulePresentation(GradedFreeModule(pres.ring, dual.twists), heads)
        assert ext.ambient == reference.ambient
        assert buchberger(ext).elements == buchberger(reference).elements


def test_ext_relations_equal_the_head_route():
    # the relations are the kernel of the kernel generators modulo the image,
    # taken in one module_kernel call; the reference projects the syzygies
    # of (kernel | image) onto the kernel block.  Below the length the
    # relations are already a reduced basis
    from fiberfull import buchberger
    from fixtures import macaulay_suite, parameter_families
    from helpers import graph_ext

    quartic = ideal_from_strings(
        ring4(), ("y*z - x*w", "z^3 - y*w^2", "x*z^2 - y^2*w", "y^3 - x^2*z"))
    cases = macaulay_suite() + [quartic] + list(parameter_families().values())
    for pres in cases:
        res = free_resolution(pres)
        for i in range(res.length + 1):
            ext = _ext_from_resolution(res, i)
            reference = graph_ext(res, i)
            assert ext.ambient == reference.ambient
            assert buchberger(ext).elements == buchberger(reference).elements
            if i < res.length:
                assert ext.generators == buchberger(ext).elements
