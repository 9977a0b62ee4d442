"""Property tests on random input.

  * colon against its syzygy-graph reference and the two containments that
    define (U : h), on homogeneous ideals in three variables over GF(32003);
  * the paper's statements on planted diagonal modules over
    GF(32003)[t][x,y]: the fiber-full locus is dense, so its polynomial g is
    never 0; the check at (t - c) passes exactly when g(c) != 0; and at each
    root of g some torsion certificate vanishes.

Examples are derandomized and nothing is stored between runs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fiberfull import (
    GF,
    GradedFreeModule,
    PolyVector,
    SubmodulePresentation,
    buchberger,
    colon,
    evaluate_parameter,
    fiber_full_check,
    fiber_full_locus,
    make_ring,
    monomials_of_degree,
)
from helpers import graph_colon, vector_in_submodule

R = make_ring([1, 1, 1], field=GF(32003), names=["x", "y", "z"])
COEFFS = st.integers(min_value=1, max_value=32002)


@st.composite
def homogeneous_polys(draw, max_degree=3):
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    mons = monomials_of_degree(R, degree)
    terms = draw(st.lists(st.tuples(st.sampled_from(mons), COEFFS), min_size=1, max_size=3))
    p = R.poly(terms)
    return p if not p.is_zero() else R.poly([(mons[0], 1)])


PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=100)


@PROPERTY_SETTINGS
@given(st.lists(homogeneous_polys(), min_size=1, max_size=3), homogeneous_polys(max_degree=2))
def test_colon_properties(gens, h):
    U = SubmodulePresentation.ideal(R, gens)
    C = colon(U, h)
    assert C == graph_colon(U, h)
    # U is contained in (U : h), and h * (U : h) in U
    GC = buchberger(C)
    assert all(vector_in_submodule(u, GC) for u in U.generators)
    GU = buchberger(U)
    assert all(vector_in_submodule(v.mul_poly(h), GU) for v in C.generators)


Rt = make_ring([1, 1], True, field=GF(32003), names=["x", "y"])
POINTS = range(6)


@st.composite
def planted_diagonal(draw):
    """(+) S[t]/(p_j m_j) for j < rank: p_j a product of zero to two factors
    t - c with c in 0..5, m_j a monomial of degree one or two."""
    rank = draw(st.integers(min_value=1, max_value=2))
    amb = GradedFreeModule(Rt, (0,) * rank)
    t = Rt.parameter()
    gens = []
    for j in range(rank):
        p = Rt.one()
        for c in draw(st.lists(st.sampled_from(POINTS), max_size=2)):
            p = p * (t - Rt.constant(c))
        m = draw(st.sampled_from(((1, 0, 0), (0, 1, 0), (2, 0, 0), (1, 1, 0), (0, 2, 0))))
        comps = [Rt.zero()] * rank
        comps[j] = p.mul_term(m, 1)
        gens.append(PolyVector(amb, tuple(comps)))
    return SubmodulePresentation(amb, gens)


@PROPERTY_SETTINGS
@given(planted_diagonal())
def test_fiber_full_locus_statements(M):
    zero = Rt.field.zero
    g = fiber_full_locus(M)
    assert not g.is_zero()
    for c in POINTS:
        report = fiber_full_check(M, at=c)
        root = evaluate_parameter(g, c) == zero
        assert report.overall == (not root), c
        if root:
            certs = [report.module_certificate] + [v.certificate for v in report.verdicts]
            assert any(evaluate_parameter(cert.annihilator, c) == zero for cert in certs), c
