"""Property tests on random input.

  * the storage of a polynomial as a map from monomials to coefficients:
    equality, hashing and printing ignore the order the terms came in, the
    printed order is the ring's canonical one, and the arithmetic obeys the
    ring laws and the fused update self - a * b, on term lists with
    repeated monomials and cancelling coefficients over QQ and GF(32003)
    in a weighted ring with a parameter;
  * the k[t] arithmetic (monic lcm, monic associate, evaluation) against
    sympy over QQ and GF(32003), on polynomials in t of degree up to six
    with constant and repeated factors, and its refusal of input in x;
  * every resolution route: the one-sweep minimization against the
    restarting reference, d o d = 0 and degreewise exactness on homogeneous
    ideals in three variables over GF(32003), and exactness of the
    resolution of a planted diagonal module specialized off its locus;
  * the storage rule of a resolution's sparse rows (nonzero entries, column
    keys inside the source) for the frame, the pruned resolution and the
    specializations at t = 0 and t = 1 of the Groebner families of random
    quadrics under grevlex and lex, which leave the family unchanged;
  * colon against its syzygy-graph reference and the two containments that
    define (U : h), on homogeneous ideals in three variables over GF(32003);
  * the paper's statements on planted diagonal modules over
    GF(32003)[t][x,y]: the fiber-full locus is dense, so its polynomial g is
    never 0; the check at (t - c) passes exactly when g(c) != 0; at each
    root of g some torsion certificate vanishes; and at every c with
    g(c) != 0 each local cohomology table of the fiber equals that of the
    generic fiber;
  * Buchberger with the pair criteria against Buchberger over all pairs
    (``helpers.all_pairs_engine`` standing in for ``gb_engine``), over QQ
    and GF(32003): ideals mixing monomials with forms of two to four terms,
    submodules of rank two and three whose generators span several
    components, and kernels modulo a submodule (the block order of
    ``module_kernel``);
  * the Schreyer frame over the minimal pairs against the frame over all
    pairs (``helpers.all_pairs_schreyer_level`` standing in for
    ``_schreyer_level``), over QQ and GF(32003): the new frame is a complex,
    exact in each degree, and both give the same Betti and H^i tables on
    ideals and submodules of rank two and three, and the same Ext
    annihilators, verdicts, fiber-full locus and fiber tables on ideals
    over k[t][x,y,z] with planted factors t - c;
  * Hochster's formula against the Ext-duality tables on square-free
    monomial ideals in five to seven variables over QQ;
  * the codimension read off the summed numerators of the components
    against a subset scan of each component's leads, on monomial
    submodules of rank one to four over k[x,y,z] and k[t][x,y,z], some
    components with no lead and some holding 1;
  * the enumerations without recursion against their recursive references:
    the compositions the weight-vector search walks, in order; the
    monomials of a weighted degree, in order; and the counts of negative
    exponent vectors on a face that Hochster's formula reads off a series;
  * interreduction, which divides the tails only, against full division of
    each kept element with its own position left out, over QQ and
    GF(32003): on the raw Buchberger bases of submodules of rank one to
    three over k[x,y,z] and k[t][x,y,z], a generator repeated so that two
    leads coincide, and on the generators themselves with more repeated
    leads spliced in;
  * the reduced cohomology of a simplicial complex from sparse coboundary
    rows against dense rows, on closures of random facet sets on at most
    seven vertices over QQ, GF(2) and GF(3).

Examples are derandomized and nothing is stored between runs."""

from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberfull.groebner
from fiberfull import (
    GF,
    GradedFreeModule,
    InvalidArgumentError,
    PolyVector,
    QQ,
    SubmodulePresentation,
    TermOrder,
    buchberger,
    colon,
    evaluate_parameter,
    fiber_full_check,
    fiber_full_locus,
    fiber_hilbert_compare,
    free_resolution,
    hochster_hilbert,
    homogenize_omega,
    krull_dimension,
    local_cohomology_tables,
    make_ring,
    module_kernel,
    monomials_of_degree,
    parameter_lcm,
    parameter_monic,
    weight_vector_for,
)
from fiberfull.ext import _ext_from_resolution, _tables_from_resolution
from fiberfull.groebner import _compositions, _interreduce, _monic, _tv_from_vector
from fiberfull.hochster import _negative_support_series, reduced_cohomology_dims
from fiberfull.resolution import (
    _codimension,
    _schreyer_frame,
    _twist_codimension,
    specialize_resolution,
)
from helpers import (
    all_pairs_engine,
    all_pairs_frame,
    cokernel_tables,
    compositions,
    dense_reduced_cohomology_dims,
    frame_invariants,
    graph_colon,
    graph_ext,
    is_zero_module,
    negative_support_counts,
    recursive_monomials_of_degree,
    reference_interreduce,
    reference_str,
    resolution_exact_in_degree,
    restart_minimize,
    rows_are_sparse,
    subset_scan_dimension,
    vector_in_submodule,
)

R = make_ring([1, 1, 1], field=GF(32003), names=["x", "y", "z"])
COEFFS = st.integers(min_value=1, max_value=32002)


@st.composite
def homogeneous_polys(draw, max_degree=3, min_degree=1, max_terms=3):
    degree = draw(st.integers(min_value=min_degree, max_value=max_degree))
    mons = monomials_of_degree(R, degree)
    terms = draw(st.lists(st.tuples(st.sampled_from(mons), COEFFS), min_size=1,
                          max_size=max_terms))
    p = R.poly(terms)
    return p if not p.is_zero() else R.poly([(mons[0], 1)])


PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=100)

WEIGHTED = [make_ring([1, 2, 3], True, field=field, names=["x", "y", "z"])
            for field in (QQ, GF(32003))]
# few monomials, so that a term list repeats them
POOL = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (2, 1, 0, 0),
        (1, 0, 1, 0), (0, 2, 0, 2), (3, 0, 0, 1), (1, 1, 1, 0), (0, 0, 0, 2)]


@st.composite
def term_lists(draw, ring):
    """(monomial, coefficient) pairs from POOL, some of them followed by
    their negatives so that the coefficients cancel."""
    coeffs = (st.fractions(min_value=-4, max_value=4, max_denominator=5)
              if ring.field == QQ else st.integers(min_value=0, max_value=32002))
    terms = draw(st.lists(st.tuples(st.sampled_from(POOL), coeffs), max_size=6))
    if terms:
        terms += [(m, -c) for m, c in draw(st.lists(st.sampled_from(terms), max_size=3))]
    return draw(st.permutations(terms))


@st.composite
def weighted_polys(draw, count):
    ring = draw(st.sampled_from(WEIGHTED))
    return ring, [draw(term_lists(ring)) for _ in range(count)]


@PROPERTY_SETTINGS
@given(weighted_polys(3))
def test_polynomial_terms_carry_no_order(drawn):
    ring, (ta, tb, tc) = drawn
    a, b, c = (ring.poly(terms) for terms in (ta, tb, tc))
    backwards = ring.poly(list(reversed(ta)))
    assert backwards == a and hash(backwards) == hash(a) and str(backwards) == str(a)
    fused = a.minus_product(b, c)
    assert fused == a - b * c
    for p in (a, b * c, fused):
        assert str(p) == reference_str(p)
    assert (a + b) - b == a
    assert a * (b + c) == a * b + a * c


LINES = [make_ring([1], True, field=field, names=["x"]) for field in (QQ, GF(32003))]
T = sympy.Symbol("t")


def _coefficients(ring):
    if ring.field == QQ:
        return st.fractions(min_value=-4, max_value=4, max_denominator=5)
    return st.integers(min_value=0, max_value=32002)


@st.composite
def line_polys(draw, ring):
    """A polynomial in t of degree at most six: a nonzero constant times up
    to three factors drawn, with repetition, from two polynomials of degree
    one or two."""
    t = ring.parameter()
    coeffs = _coefficients(ring).filter(lambda c: ring.field.coerce(c) != ring.field.zero)
    pool = []
    for _ in range(2):
        degree = draw(st.integers(min_value=1, max_value=2))
        lower = draw(st.lists(_coefficients(ring), min_size=degree, max_size=degree))
        pool.append(t ** degree * draw(coeffs) + sum((t ** k * c for k, c in enumerate(lower)),
                                                     ring.zero()))
    p = ring.constant(draw(coeffs))
    for factor in draw(st.lists(st.sampled_from(pool), max_size=3)):
        p = p * factor
    return p


@st.composite
def line_pairs(draw):
    ring = draw(st.sampled_from(LINES))
    return ring, draw(line_polys(ring)), draw(line_polys(ring))


def _to_sympy(p):
    field = p.ring.field
    if field == QQ:
        coeffs = {(m[1],): sympy.Rational(c.numerator, c.denominator) for m, c in p.terms}
        return sympy.Poly.from_dict(coeffs, T, domain=sympy.QQ)
    return sympy.Poly.from_dict({(m[1],): c for m, c in p.terms}, T, modulus=field.p)


def _field_value(field, c):
    if field == QQ:
        return Fraction(int(c.p), int(c.q))
    return int(c) % field.p


def _from_sympy(ring, q):
    return ring.poly([((0, k), _field_value(ring.field, c)) for (k,), c in q.terms()
                      if c != 0])


@PROPERTY_SETTINGS
@given(line_pairs(), st.integers(min_value=-40000, max_value=40000))
def test_parameter_arithmetic_matches_sympy(drawn, c):
    ring, f, g = drawn
    sf, sg = _to_sympy(f), _to_sympy(g)
    lcm = parameter_lcm(f, g)
    assert lcm == _from_sympy(ring, sf.lcm(sg))
    assert lcm == parameter_lcm(g, f)
    assert parameter_monic(f) == _from_sympy(ring, sf.monic())
    # c is coerced into the field: reduced mod p, or a fraction over QQ
    at = Fraction(c, 7) if ring.field == QQ else c
    expected = sf.eval(sympy.Rational(c, 7)) if ring.field == QQ else sf.eval(c)
    assert evaluate_parameter(f, at) == _field_value(ring.field, expected)
    for args in ((f, ring.zero()), (ring.zero(), f)):
        with pytest.raises(InvalidArgumentError):
            parameter_lcm(*args)
    # an x term makes the input no polynomial in t
    mixed = f + ring.variable(0)
    for call in (lambda: parameter_lcm(mixed, g), lambda: parameter_lcm(g, mixed),
                 lambda: parameter_monic(mixed), lambda: evaluate_parameter(mixed, c)):
        with pytest.raises(InvalidArgumentError):
            call()


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


# dense quadrics: most of their Schreyer frames have unit entries to prune
@PROPERTY_SETTINGS
@given(st.lists(homogeneous_polys(2, min_degree=2, max_terms=6), min_size=2, max_size=4))
def test_resolution_routes(gens):
    U = SubmodulePresentation.ideal(R, gens)
    res = free_resolution(U)
    # the restarting reference updates with plain a - b * c
    reference = _schreyer_frame(U)
    restart_minimize(reference)
    assert res.modules == reference.modules
    assert res.rows == reference.rows
    assert res.check_complex()
    for k in range(1, res.length + 1):
        for nu in range(5):
            assert resolution_exact_in_degree(res, k, nu), (k, nu)


# the Groebner families of random quadrics: their entries may vanish at t = 0
@PROPERTY_SETTINGS
@given(st.lists(homogeneous_polys(2, min_degree=2, max_terms=6), min_size=2, max_size=3),
       st.sampled_from([TermOrder.grevlex(), TermOrder.lex()]))
def test_resolution_rows_are_sparse(gens, order):
    U = SubmodulePresentation.ideal(R, gens)
    G = buchberger(U, order)
    family = homogenize_omega(G, weight_vector_for(G))
    res = free_resolution(family)
    before = [[dict(row) for row in A] for A in res.rows]
    resolutions = [_schreyer_frame(U), free_resolution(U), _schreyer_frame(family), res]
    resolutions += [specialize_resolution(res, c) for c in (0, 1)]
    assert res.rows == before
    for out in resolutions:
        assert rows_are_sparse(out)
        assert out.check_complex()


GB_RINGS = [make_ring([1, 1, 1], field=field, names=["x", "y", "z"]) for field in (QQ, GF(32003))]


@st.composite
def mixed_forms(draw, ring, degree):
    """A monomial, or a form of two to four terms, of the given degree."""
    mons = monomials_of_degree(ring, degree)
    size = min(draw(st.sampled_from((1, 2, 3, 4))), len(mons))
    chosen = draw(st.lists(st.sampled_from(mons), min_size=size, max_size=size, unique=True))
    coeffs = draw(st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=size, max_size=size))
    return ring.poly(list(zip(chosen, coeffs)))


@st.composite
def mixed_vectors(draw, amb, degree):
    """A vector of ``amb`` of the given degree, nonzero in one or more
    components, each a monomial or a form of two to four terms."""
    comps = [amb.ring.zero()] * amb.rank
    for c in draw(st.lists(st.integers(min_value=0, max_value=amb.rank - 1), min_size=1,
                           max_size=amb.rank, unique=True)):
        comps[c] = draw(mixed_forms(amb.ring, degree))
    return PolyVector(amb, tuple(comps))


@st.composite
def mixed_submodules(draw, ranks=(1, 2, 3), count=(2, 4)):
    ring = draw(st.sampled_from(GB_RINGS))
    amb = GradedFreeModule(ring, (0,) * draw(st.sampled_from(ranks)))
    gens = draw(st.lists(st.integers(min_value=1, max_value=3).flatmap(
        lambda d: mixed_vectors(amb, d)), min_size=count[0], max_size=count[1]))
    return SubmodulePresentation(amb, gens)


def _all_pairs():
    return mock.patch.object(fiberfull.groebner, "gb_engine", all_pairs_engine)


@PROPERTY_SETTINGS
@given(mixed_submodules())
def test_pair_criteria_against_all_pairs(U):
    G = buchberger(U)
    with _all_pairs():
        reference = buchberger(U)
    assert G.elements == reference.elements
    assert G.leads == reference.leads


@PROPERTY_SETTINGS
@given(mixed_submodules(ranks=(1, 2), count=(1, 3)), st.data())
def test_pair_criteria_against_all_pairs_in_kernels(U, data):
    vectors = data.draw(st.lists(st.integers(min_value=1, max_value=2).flatmap(
        lambda d: mixed_vectors(U.ambient, d)), min_size=1, max_size=3))
    twists = [v.degree() for v in vectors]
    kernel = module_kernel(vectors, twists, U.ambient, modulo=U.generators)
    with _all_pairs():
        assert kernel == module_kernel(vectors, twists, U.ambient, modulo=U.generators)


PARAM_RINGS = [make_ring([1, 1, 1], True, field=field, names=["x", "y", "z"])
               for field in (QQ, GF(32003))]


@st.composite
def parameter_ideals(draw):
    """An ideal of k[t][x,y,z] with two to four generators, forms of degree
    one or two of one to three terms whose coefficients are constants or
    t - c with c in 0..3, as in the planted families of
    ``fixtures.parameter_families``."""
    ring = draw(st.sampled_from(PARAM_RINGS))
    t = ring.parameter()
    pool = [ring.constant(c) for c in (1, -1, 2)] + [t - ring.constant(c) for c in range(4)]
    gens = []
    for d in draw(st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=4)):
        forms = [m + (0,) for m in monomials_of_degree(ring.without_parameter(), d)]
        mons = draw(st.lists(st.sampled_from(forms), min_size=1, max_size=3, unique=True))
        gens.append(sum((draw(st.sampled_from(pool)).mul_term(m, 1) for m in mons), ring.zero()))
    return SubmodulePresentation.ideal(ring, gens)


FRAME_SETTINGS = settings(derandomize=True, deadline=30000, database=None, max_examples=50)


@FRAME_SETTINGS
@given(mixed_submodules(count=(3, 4)))
def test_minimal_pairs_against_all_pairs(U):
    frame = _schreyer_frame(U)
    assert frame.check_complex()
    for k in range(1, frame.length + 1):
        for nu in range(6):
            assert resolution_exact_in_degree(frame, k, nu), (k, nu)
    invariants = frame_invariants(U)
    with all_pairs_frame():
        assert invariants == frame_invariants(U)


@FRAME_SETTINGS
@given(parameter_ideals())
def test_minimal_pairs_against_all_pairs_over_parameter_rings(U):
    assert _schreyer_frame(U).check_complex()
    invariants = frame_invariants(U)
    with all_pairs_frame():
        assert invariants == frame_invariants(U)


SQUAREFREE_RINGS = {n: make_ring([1] * n) for n in (5, 6, 7)}


@st.composite
def squarefree_ideals(draw):
    """An ideal of one to six square-free monomials of degree one to four."""
    ring = SQUAREFREE_RINGS[draw(st.sampled_from(sorted(SQUAREFREE_RINGS)))]
    n = ring.num_positive
    supports = draw(st.lists(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1,
                                     max_size=4), min_size=1, max_size=6))
    return SubmodulePresentation.ideal(
        ring, [ring.poly([(tuple(int(i in s) for i in range(n)), 1)]) for s in supports])


@PROPERTY_SETTINGS
@given(squarefree_ideals())
def test_hochster_tables_equal_the_ext_duality_tables(I):
    window = (-6, 2)
    tables = local_cohomology_tables(I, window)
    assert tables == [hochster_hilbert(I, i, window) for i in range(I.ring.num_positive + 1)]


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


@PROPERTY_SETTINGS
@given(planted_diagonal())
def test_specialized_resolution_is_exact_off_the_locus(M):
    res = free_resolution(M)
    g = fiber_full_locus(M)
    for c in POINTS:
        if evaluate_parameter(g, c) == Rt.field.zero:
            continue
        spec = specialize_resolution(res, c)
        assert spec.check_complex(), c
        for k in range(1, spec.length + 1):
            for nu in range(5):
                assert resolution_exact_in_degree(spec, k, nu), (c, k, nu)


@PROPERTY_SETTINGS
@given(planted_diagonal())
def test_fibers_in_the_locus_have_the_generic_tables(M):
    g = fiber_full_locus(M)
    window = (-4, 2)
    for c in POINTS:
        if evaluate_parameter(g, c) == Rt.field.zero:
            continue
        at_c, generic = fiber_hilbert_compare(M, [c, "generic"], window)
        for i in range(Rt.num_positive + 1):
            assert at_c[i] == generic[i], (c, i)


def _check_ext_below_the_codimension(M):
    res = free_resolution(M)
    codim = _codimension(res.basis)
    r = M.ring.num_positive
    window = (-6, 2)
    tables = None if M.ring.has_parameter else cokernel_tables(res, window)
    for i in range(min(codim, r + 1, res.length + 1)):
        assert is_zero_module(_ext_from_resolution(res, i)), i
        assert is_zero_module(graph_ext(res, i)), i
        if tables is not None:
            assert tables[r - i].is_zero(), i
    if tables is not None:
        assert tables == _tables_from_resolution(res, window)
        dim = krull_dimension(M)
        assert _twist_codimension(res) == (r - dim if dim >= 0 else float("inf"))


# fifty examples: a hundred mixed submodules took 16 s against 2 s, 11 s of
# it in two rank-two examples whose Ext^2 the syzygy-graph reference
# ``graph_ext`` presents in 5 to 6 s each
VANISHING_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=50)


@VANISHING_SETTINGS
@given(mixed_submodules())
def test_ext_vanishes_below_the_codimension(M):
    _check_ext_below_the_codimension(M)


@VANISHING_SETTINGS
@given(squarefree_ideals())
def test_ext_vanishes_below_the_codimension_squarefree(I):
    _check_ext_below_the_codimension(I)


@VANISHING_SETTINGS
@given(st.one_of(planted_diagonal(), parameter_ideals()))
def test_ext_vanishes_below_the_codimension_over_parameter_rings(M):
    _check_ext_below_the_codimension(M)


LEAD_RINGS = [R, make_ring([1, 1, 1], True, field=GF(32003), names=["x", "y", "z"])]


@st.composite
def monomial_submodules(draw):
    """(presentation, leads per component) of a submodule of rank one to
    four generated by monomial vectors with exponents up to two, the
    parameter's included; a component has no lead, the lead 1 alone, or
    one to four leads."""
    ring = draw(st.sampled_from(LEAD_RINGS))
    amb = GradedFreeModule(ring, (0,) * draw(st.integers(min_value=1, max_value=4)))
    mons = st.tuples(*[st.integers(min_value=0, max_value=2)] * ring.nvars)
    unit = (0,) * ring.nvars
    leads = [draw(st.one_of(st.just([]), st.just([unit]), st.lists(mons, min_size=1, max_size=4)))
             for _ in range(amb.rank)]
    gens = [amb.basis_vector(c).mul_term(m, 1) for c, ms in enumerate(leads) for m in ms]
    return SubmodulePresentation(amb, gens), leads


@PROPERTY_SETTINGS
@given(monomial_submodules())
def test_codimension_is_read_off_the_summed_numerators(drawn):
    M, leads = drawn
    n = M.ring.nvars
    dim = max(subset_scan_dimension(n, ms) for ms in leads)
    codim = _codimension(buchberger(M))
    assert codim == (n - dim if dim >= 0 else float("inf"))
    if all((0,) * n in ms for ms in leads):
        assert codim == float("inf")


@PROPERTY_SETTINGS
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=6))
def test_compositions_come_in_the_order_of_the_recursion(total, parts):
    assert list(_compositions(total, parts)) == list(compositions(total, parts))


@PROPERTY_SETTINGS
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=5),
       st.integers(min_value=-1, max_value=8))
def test_monomials_of_degree_come_in_the_order_of_the_recursion(weights, degree):
    ring = make_ring(weights)
    assert monomials_of_degree(ring, degree) == recursive_monomials_of_degree(ring, degree)


@PROPERTY_SETTINGS
@given(st.lists(st.integers(min_value=1, max_value=3), max_size=4),
       st.integers(min_value=-12, max_value=1))
def test_negative_support_series_counts_as_the_recursion(weights, lo):
    assert _negative_support_series(weights, lo) == [negative_support_counts(weights, -k)
                                                     for k in range(1 - lo)]


@st.composite
def interreduction_inputs(draw):
    """A submodule of rank one to three of a free module over k[x,y,z] or
    k[t][x,y,z], k = QQ or GF(32003): one to three generators, each nonzero
    in one or more components, a component a form of degree one or two with
    one to three terms whose coefficients are constants or, over k[t],
    t - c; then one generator again, times 2, so that two leads coincide."""
    ring = draw(st.sampled_from(GB_RINGS + PARAM_RINGS))
    base = ring.without_parameter() if ring.has_parameter else ring
    pad = (0,) * (ring.nvars - base.nvars)
    pool = [ring.constant(c) for c in (1, -1, 2, 3)]
    if ring.has_parameter:
        pool += [ring.parameter() - ring.constant(c) for c in range(3)]
    amb = GradedFreeModule(ring, (0,) * draw(st.integers(min_value=1, max_value=3)))
    gens = []
    for d in draw(st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=3)):
        comps = [ring.zero()] * amb.rank
        for c in draw(st.lists(st.integers(min_value=0, max_value=amb.rank - 1), min_size=1,
                               max_size=amb.rank, unique=True)):
            mons = draw(st.lists(st.sampled_from(monomials_of_degree(base, d)), min_size=1,
                                 max_size=3, unique=True))
            comps[c] = sum((draw(st.sampled_from(pool)).mul_term(m + pad, 1) for m in mons),
                           ring.zero())
        gens.append(PolyVector(amb, tuple(comps)))
    gens.append(draw(st.sampled_from(gens)).mul_term((0,) * ring.nvars, 2))
    return SubmodulePresentation(amb, gens)


@PROPERTY_SETTINGS
@given(interreduction_inputs())
def test_interreduction_divides_the_tails_only(U):
    raw = []

    def recording(basis, morder, field):
        raw.append((basis, morder, field))
        return _interreduce(basis, morder, field)

    with mock.patch.object(fiberfull.groebner, "_interreduce", recording):
        buchberger(U)
    (basis, morder, field), = raw
    monic = [_monic(tv, field) for tv in (_tv_from_vector(v, morder) for v in U.generators) if tv]
    # each generator's lead on the terms of another that lie below it
    spliced = [a[:1] + [term for term in b if term[0] < a[0][0]]
               for a in monic for b in monic if a is not b and a[0][1][1] == b[0][1][1]]
    for candidate in (basis, monic + spliced):
        assert (_interreduce(candidate, morder, field)
                == reference_interreduce(candidate, morder, field))


@st.composite
def simplicial_complexes(draw):
    """The closure of zero to five facets on at most seven vertices."""
    n = draw(st.integers(min_value=1, max_value=7))
    facets = draw(st.lists(st.sets(st.integers(min_value=0, max_value=n - 1)), max_size=5))
    return {frozenset(s) for f in facets for k in range(len(f) + 1)
            for s in combinations(sorted(f), k)}


@PROPERTY_SETTINGS
@given(simplicial_complexes(), st.sampled_from([QQ, GF(2), GF(3)]))
def test_sparse_coboundary_rows_give_the_dense_cohomology(faces, field):
    assert reduced_cohomology_dims(faces, field) == dense_reduced_cohomology_dims(faces, field)
