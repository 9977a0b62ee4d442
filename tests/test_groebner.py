"""Division, Buchberger, syzygies, colon/saturation/elimination, square-free
testing, homogenization, weight vectors."""

import random

import pytest

from fiberfull import (
    GF,
    InvalidArgumentError,
    SubmodulePresentation,
    TermOrder,
    WeightVectorMismatchError,
    buchberger,
    contract_to_parameter,
    hilbert_function,
    homogenize_omega,
    initial_module,
    is_squarefree,
    make_ring,
    normal_form,
    saturate,
    syzygies,
    weight_vector_for,
)
from fixtures import (
    ideal_from_strings,
    macaulay_suite,
    minors_2x2,
    ring2,
    ring3,
    ring4,
    twisted_cubic,
)
from helpers import (
    linear_scan_division,
    rand_poly,
    search_weight_vector,
    spair_closure_holds,
    vector_in_submodule,
)


def _ideal(ring, *gens):
    return ideal_from_strings(ring, gens)


def test_normal_form_examples():
    R = ring2()
    P = _ideal(R, "x^2 + y^2")
    G = buchberger(P)
    v = P.generators[0]
    assert normal_form(v, G).is_zero()

    G2 = buchberger(_ideal(R, "x^2 - y"))
    w = _ideal(R, "x^2*y").generators[0]
    assert str(normal_form(w, G2).components[0]) == "y^2"

    R3v = ring3()
    G3 = buchberger(_ideal(R3v, "x", "y"))
    z3 = _ideal(R3v, "z^3").generators[0]
    assert normal_form(z3, G3) == z3


def test_buchberger_monomial_and_spair_examples():
    R = ring2()
    G = buchberger(_ideal(R, "x", "y"))
    assert sorted(str(v.components[0]) for v in G.elements) == ["x", "y"]
    G2 = buchberger(_ideal(R, "x^2", "x*y"))
    assert sorted(str(v.components[0]) for v in G2.elements) == ["x*y", "x^2"]


def test_twisted_cubic_basis_and_closure():
    P = twisted_cubic()
    G = buchberger(P, TermOrder.grevlex())
    leads = sorted(str(v.components[0]) for v in initial_module(G).generators)
    assert leads == ["y*z", "y^2", "z^2"]
    assert spair_closure_holds(G)


def test_reduced_basis_unique_under_permutation_and_scaling():
    rng = random.Random(5)
    P = twisted_cubic()
    ring = P.ring
    G0 = buchberger(P, TermOrder.grevlex())
    gens = list(P.generators)
    for _ in range(6):
        rng.shuffle(gens)
        scaled = [g.scale(rng.choice((2, 3, -1, 5))) for g in gens]
        G = buchberger(SubmodulePresentation(P.ambient, scaled), TermOrder.grevlex())
        assert G.elements == G0.elements


def test_spair_closure_on_random_homogeneous_ideals():
    rng = random.Random(11)
    from helpers import rand_homogeneous

    for trial in range(8):
        ring = ring3() if trial % 2 else ring2()
        gens = [rand_homogeneous(rng, ring, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        G = buchberger(SubmodulePresentation.ideal(ring, gens))
        assert spair_closure_holds(G)


def test_initial_module_examples():
    R = ring3()
    P = _ideal(R, "x*z - y^2")
    G_lex = buchberger(P, TermOrder.lex())
    assert [str(v.components[0]) for v in initial_module(G_lex).generators] == ["x*z"]
    G_grev = buchberger(P, TermOrder.grevlex())
    assert [str(v.components[0]) for v in initial_module(G_grev).generators] == ["y^2"]
    M = _ideal(R, "x*y", "y*z")
    GM = buchberger(M)
    assert sorted(str(v.components[0]) for v in initial_module(GM).generators) == ["x*y", "y*z"]


def test_macaulay_equality_on_suite():
    # dimensions of the quotient agree with those of the initial quotient
    for pres in macaulay_suite():
        G = buchberger(pres, TermOrder.grevlex())
        init = initial_module(G)
        a = hilbert_function(pres.as_quotient(), (0, 10))
        b = hilbert_function(init.as_quotient(), (0, 10))
        assert a == b


def test_syzygies_koszul():
    R = ring2()
    G = buchberger(_ideal(R, "x", "y"))
    S = syzygies(G)
    assert len(S.generators) == 1
    s = S.generators[0]
    # the syzygy recombines the basis to zero
    total = R.zero()
    for coeff, gen in zip(s.components, G.elements):
        total = total + coeff * gen.components[0]
    assert total.is_zero()
    assert s.is_homogeneous() and s.degree() == 2

    R3v = ring3()
    G3 = buchberger(_ideal(R3v, "x", "y", "z"))
    S3 = syzygies(G3)
    assert len(S3.generators) == 3
    G2 = buchberger(_ideal(R, "x^2", "x*y"))
    S2 = syzygies(G2)
    assert len(S2.generators) == 1
    s2 = S2.generators[0]
    comps = sorted(str(c) for c in s2.components)
    assert comps == ["-y", "x"] or comps == ["-x", "y"]


def test_saturate_examples_and_properties():
    Rt = make_ring([1], True, names=["x"])
    x, t = Rt.variable(0), Rt.parameter()
    U = SubmodulePresentation.ideal(Rt, [t * x])
    S = saturate(U, t)
    assert [str(v.components[0]) for v in S.generators] == ["x"]
    # idempotence and containment
    S2 = saturate(SubmodulePresentation(S.ambient, S.generators), t)
    assert S2.generators == S.generators
    G = buchberger(S)
    for u in U.generators:
        assert vector_in_submodule(u, G)

    U2 = SubmodulePresentation.ideal(Rt, [(t * t - t) * x])
    S3 = saturate(U2, t * t - t)
    assert [str(v.components[0]) for v in S3.generators] == ["x"]
    # membership certificate: (t^2-t) * x lies in U2
    GU2 = buchberger(U2)
    assert vector_in_submodule(S3.generators[0].mul_poly(t * t - t), GU2)


def test_saturate_rejects_zero():
    Rt = make_ring([1], True, names=["x"])
    U = SubmodulePresentation.ideal(Rt, [Rt.variable(0)])
    with pytest.raises(InvalidArgumentError):
        saturate(U, Rt.zero())


def test_contract_to_parameter_examples():
    Rt = make_ring([1], True, names=["x"])
    x, t = Rt.variable(0), Rt.parameter()
    assert contract_to_parameter(SubmodulePresentation.ideal(Rt, [t * x])) == []
    out = contract_to_parameter(SubmodulePresentation.ideal(Rt, [t * x, t * t]))
    assert [str(p) for p in out] == ["t^2"]
    out2 = contract_to_parameter(SubmodulePresentation.ideal(Rt, [x - t, x]))
    assert [str(p) for p in out2] == ["t"]


def test_is_squarefree():
    R = ring3()
    assert is_squarefree(_ideal(R, "x*y", "y*z"))
    assert not is_squarefree(_ideal(R, "y^2", "y*z", "z^2"))
    assert is_squarefree(SubmodulePresentation.ideal(R, []))
    with pytest.raises(InvalidArgumentError):
        is_squarefree(_ideal(R, "x + y"))


def test_homogenize_omega_examples():
    R = ring3()
    P = _ideal(R, "x*z - y^2")
    J = homogenize_omega(buchberger(P, TermOrder.lex()), (1, 1, 2))
    assert [str(v.components[0]) for v in J.generators] == ["-y^2*t + x*z"]
    # monomial ideals stay untouched
    M = _ideal(R, "x*y", "z")
    JM = homogenize_omega(buchberger(M, TermOrder.grevlex()), (1, 1, 1))
    assert sorted(str(v.components[0]) for v in JM.generators) == ["x*y", "z"]
    # a weight vector that fails to isolate the marked lead is rejected
    with pytest.raises(WeightVectorMismatchError):
        homogenize_omega(buchberger(P, TermOrder.lex()), (1, 1, 1))


def test_homogenize_specializations():
    R = ring4()
    P = twisted_cubic()
    G = buchberger(P, TermOrder.grevlex())
    omega = weight_vector_for(G)
    J = homogenize_omega(G, omega)
    tring = J.ring
    # t = 0 gives the initial ideal, t = 1 gives the ideal back
    init = sorted(str(v.components[0]) for v in initial_module(G).generators)
    at0 = sorted(str(g.components[0].specialize_parameter(0, R)) for g in J.generators)
    assert at0 == init
    at1_gens = [g.components[0].specialize_parameter(1, R) for g in J.generators]
    G1 = buchberger(SubmodulePresentation.ideal(R, at1_gens), TermOrder.grevlex())
    assert G1.elements == G.elements


def test_weight_vector_examples():
    R = ring3()
    # monomial ideal: normalized all-ones
    assert weight_vector_for(buchberger(_ideal(R, "x*y", "y*z"), TermOrder.grevlex())) == (1, 1, 1)
    w = weight_vector_for(buchberger(_ideal(R, "x*z - y^2"), TermOrder.lex()))
    assert w[0] + w[2] > 2 * w[1]
    P = twisted_cubic()
    w4 = weight_vector_for(buchberger(P, TermOrder.grevlex()))
    wx, wy, wz, ww = w4
    assert 2 * wy > wx + wz
    assert 2 * wz > wy + ww
    assert wy + wz > wx + ww


def test_weight_vector_deterministic_and_minimal():
    R = ring3()
    P = _ideal(R, "x*z - y^2")
    w1 = weight_vector_for(buchberger(P, TermOrder.lex()))
    w2 = weight_vector_for(buchberger(P, TermOrder.lex()))
    assert w1 == w2
    # nothing of smaller total weight or lexicographically below works
    def satisfies(w):
        return w[0] + w[2] >= 2 * w[1] + 1

    total = sum(w1)
    for s in range(total):
        for a in range(s + 1):
            for b in range(s - a + 1):
                assert not satisfies((a, b, s - a - b))


def _weight_vector_instances():
    """The twisted cubic, the rational normal quartic, the 2x2 minors of
    generic 2x3, 2x4 and 2x5 matrices and the 2-minors of a generic 3x3."""
    F = GF(32003)
    yield twisted_cubic(F)
    R5 = make_ring([1] * 5, field=F)
    yield minors_2x2(R5, R5.names[:4], R5.names[1:])
    for n in (3, 4, 5):
        R = make_ring([1] * (2 * n), field=F)
        yield minors_2x2(R, R.names[:n], R.names[n:])
    R9 = make_ring([1] * 9, field=F)
    yield minors_2x2(R9, R9.names[:3], R9.names[3:6], R9.names[6:])


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_weight_vector_equals_the_search_over_compositions(order):
    for P in _weight_vector_instances():
        G = buchberger(P, getattr(TermOrder, order)())
        assert weight_vector_for(G) == search_weight_vector(G), [str(g) for g in P.generators]


def test_groebner_over_prime_field():
    R = ring3(GF(32003))
    P = _ideal(R, "x*z - y^2", "7*x^2 - y*z")
    G = buchberger(P, TermOrder.grevlex())
    assert spair_closure_holds(G)


def test_monomial_ideal_reduces_no_s_vector(monkeypatch):
    # every pair of (x1..x6)^4 is a pair of two single-term elements, which
    # is never formed: the only normal forms are the 126 of the
    # interreduction
    from fiberfull import QQ, groebner, monomials_of_degree

    R = make_ring([1] * 6, field=QQ)
    gens = monomials_of_degree(R, 4)
    calls = []
    divide = groebner._tv_normal_form

    def counting(*args, **kwargs):
        calls.append(args[0])
        return divide(*args, **kwargs)

    monkeypatch.setattr(groebner, "_tv_normal_form", counting)
    G = buchberger(SubmodulePresentation.ideal(R, [R.poly([(m, 1)]) for m in gens]))
    assert len(gens) == len(calls) == 126
    assert sorted(G.leads) == sorted((m, 0) for m in gens)


def test_module_groebner_rank_two():
    # leads land in different components, so the only work is tail reduction;
    # membership of y*f - x*g exercises the full division path
    from fiberfull import GradedFreeModule, PolyVector, module_kernel

    R = ring2()
    x, y = R.variable(0), R.variable(1)
    F = GradedFreeModule(R, (0, 0))
    f = PolyVector(F, (x, y))
    g = PolyVector(F, (y, x))
    G = buchberger(SubmodulePresentation(F, [f, g]))
    assert spair_closure_holds(G)
    assert normal_form(PolyVector(F, (R.zero(), y * y - x * x)), G).is_zero()
    assert not normal_form(PolyVector(F, (R.zero(), y * y)), G).is_zero()


def test_module_kernel_koszul():
    from fiberfull import GradedFreeModule, module_kernel

    R = ring2()
    x, y = R.variable(0), R.variable(1)
    amb = GradedFreeModule(R, (0,))
    ker = module_kernel([amb.vector([x]), amb.vector([y])], (1, 1), ambient=amb)
    assert len(ker) == 1
    a, b = ker[0].components
    assert (a * x + b * y).is_zero()


def test_lead_index_division_matches_linear_scan(monkeypatch):
    # the graph generators of module_kernel on the Koszul map K_2 -> K_1 in
    # four variables, and the basis the engine makes of them, have leads in
    # several components; dividing by the lead index must pick the same
    # divisors as a scan of the whole basis
    from fiberfull import GradedFreeModule, PolyVector, module_kernel
    from fiberfull import groebner
    from fiberfull.groebner import _lead_index, _monic, _tv_from_vector, _tv_normal_form

    R = ring4(GF(32003))
    field = R.field
    xs = [R.variable(i) for i in range(4)]
    K1 = GradedFreeModule(R, (1, 1, 1, 1))
    columns = []
    for i in range(4):
        for j in range(i + 1, 4):
            comps = [R.zero()] * 4
            comps[i], comps[j] = -xs[j], xs[i]
            columns.append(PolyVector(K1, tuple(comps)))
    calls = []
    engine = groebner.gb_engine

    def recording_engine(tvs, morder, ring, twists):
        marked = engine(tvs, morder, ring, twists)
        calls.append((tvs, morder, twists, marked))
        return marked

    monkeypatch.setattr(groebner, "gb_engine", recording_engine)
    assert len(module_kernel(columns, (2,) * 6, ambient=K1)) == 4
    (tvs, morder, twists, reduced), = calls
    graph = [_monic(tv, field) for tv in tvs]
    combined = GradedFreeModule(R, twists)
    rng = random.Random(11)
    vectors = [_tv_from_vector(PolyVector(combined, tuple(
        rand_poly(rng, R, max_terms=3, max_exp=2) for _ in twists)), morder) for _ in range(6)]
    vectors += graph
    for basis in (graph, reduced):
        assert len({b[0][1][1] for b in basis}) >= 3
        index = _lead_index(basis)
        for tv in vectors:
            quotients = {}
            rem = _tv_normal_form(tv, index, morder, field, quotients)
            assert (rem, quotients) == linear_scan_division(tv, basis, morder, field)


def test_colon_example():
    from fiberfull import colon

    R = ring2()
    x, y = R.variable(0), R.variable(1)
    U = SubmodulePresentation.ideal(R, [x * x * y])
    C = colon(U, x)
    assert [str(v.components[0]) for v in C.generators] == ["x*y"]
    # (U : h) always contains U and h * (U : h) lies in U
    GU = buchberger(U)
    for v in C.generators:
        assert vector_in_submodule(v.mul_poly(x), GU)


def _colon_cases():
    """(U, h) pairs: U from the Macaulay suite over QQ and GF(32003), which
    includes the square-free ideals, with h the first and the last variable;
    U a k[t][x] family or one of its Ext modules, with h the first variable,
    t and the leading-content polynomial of U."""
    from fiberfull.ext import _ext_from_resolution
    from fiberfull.fiberfull import _leading_parameter_content
    from fiberfull import free_resolution
    from fixtures import parameter_families

    for field in (None, GF(32003)):
        for pres in macaulay_suite(field):
            R = pres.ring
            yield pres, R.variable(0)
            yield pres, R.variable(R.nvars - 1)
    for pres in parameter_families().values():
        res = free_resolution(pres)
        R = pres.ring
        modules = [pres] + [_ext_from_resolution(res, i) for i in range(R.num_positive + 1)]
        for U in modules:
            if not U.generators:
                continue
            yield U, R.variable(0)
            yield U, R.variable(R.parameter_index())
            h = _leading_parameter_content(buchberger(U, TermOrder.block_x_over_t()))
            if not h.is_constant():
                yield U, h


def test_colon_equals_the_syzygy_graph_route():
    # colon takes the kernel of e_j -> h*e_j into ambient/U; the reference
    # takes the heads of the syzygies of (h*e_j, generators of U) and runs
    # Buchberger on them; both are the reduced basis of (U : h)
    from fiberfull import colon
    from helpers import graph_colon

    count = 0
    for U, h in _colon_cases():
        assert colon(U, h) == graph_colon(U, h)
        count += 1
    assert count > 100


def test_module_kernel_modulo_is_already_reduced():
    # the elements with zero ambient part of the elimination basis are the
    # reduced basis of the kernel, which is why colon needs no second pass
    from fiberfull import GradedFreeModule, module_kernel

    for U, h in _colon_cases():
        amb = U.ambient
        hdeg = h.degree() if h.is_homogeneous() else 0
        twists = [d + hdeg for d in amb.twists]
        vectors = [amb.basis_vector(j).mul_poly(h) for j in range(amb.rank)]
        kernel = module_kernel(vectors, twists, ambient=amb, modulo=U.generators)
        source = GradedFreeModule(U.ring, twists)
        assert tuple(kernel) == buchberger(SubmodulePresentation(source, kernel)).elements


def test_degenerate_inputs_are_legal():
    R = ring2()
    empty = buchberger(SubmodulePresentation.ideal(R, []))
    assert len(empty) == 0
    unit = buchberger(SubmodulePresentation.ideal(R, [R.one()]))
    assert [str(v.components[0]) for v in unit.elements] == ["1"]
    from fiberfull import free_resolution, hilbert_function, saturate as sat

    res = free_resolution(SubmodulePresentation.ideal(R, [R.one()]))
    assert res.ranks() == [0]
    S = sat(SubmodulePresentation.ideal(R, [R.one()]), R.variable(0))
    assert [str(v.components[0]) for v in S.generators] == ["1"]
