"""Property tests on random input: colon against its syzygy-graph reference
and the two containments that define (U : h), on homogeneous ideals in
three variables over GF(32003).  Examples are derandomized and nothing is
stored between runs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fiberfull import GF, SubmodulePresentation, buchberger, colon, make_ring, monomials_of_degree
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
