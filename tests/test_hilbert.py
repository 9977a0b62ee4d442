"""Hilbert-function counting: worked examples, cross-check against direct
standard-monomial enumeration, parameter handling, and the Krull dimension
of monomial quotients against a subset scan."""

import itertools
import random
from math import comb

import pytest

from fiberfull import (
    GradedFreeModule,
    InfiniteDimensionError,
    PolyVector,
    SubmodulePresentation,
    hilbert_function,
    krull_dimension,
    make_ring,
    monomials_of_degree,
)
from fiberfull.hilbert import monomial_quotient_counts
from fiberfull.rings import Polynomial
from fixtures import ideal_from_strings, ring2, twisted_cubic
from helpers import (
    brute_hilbert_counts,
    brute_monomial_counts,
    rand_homogeneous,
    subset_scan_dimension,
)


def test_polynomial_ring_and_hypersurface_counts():
    R = ring2()
    free = SubmodulePresentation.ideal(R, [])
    assert hilbert_function(free.as_quotient(), (0, 2)).dims == {0: 1, 1: 2, 2: 3}
    P = ideal_from_strings(R, ("x*y",))
    assert hilbert_function(P.as_quotient(), (0, 3)).dims == {0: 1, 1: 2, 2: 2, 3: 2}


def test_twisted_cubic_counts():
    tab = hilbert_function(twisted_cubic().as_quotient(), (0, 3))
    assert tab.dims == {0: 1, 1: 4, 2: 7, 3: 10}


def test_weighted_counts_match_enumeration():
    rng = random.Random(31)
    R = make_ring([1, 2, 3], names=["x", "y", "z"])
    for _ in range(6):
        gens = [rand_homogeneous(rng, R, rng.choice((2, 3, 4))) for _ in range(rng.randint(1, 2))]
        pres = SubmodulePresentation.ideal(R, gens)
        tab = hilbert_function(pres.as_quotient(), (0, 12))
        brute = brute_hilbert_counts(pres, (0, 12))
        assert tab.dims == brute


def test_twisted_module_counts_match_enumeration():
    R = ring2()
    amb = GradedFreeModule(R, (0, -1, 2))
    x, y = R.variable(0), R.variable(1)
    gens = [
        PolyVector(amb, (x * y, R.zero(), R.zero())),
        PolyVector(amb, (R.zero(), y * y * y, R.zero())),
        PolyVector(amb, (R.zero(), R.zero(), x)),
    ]
    pres = SubmodulePresentation(amb, gens)
    tab = hilbert_function(pres.as_quotient(), (-1, 6))
    brute = brute_hilbert_counts(pres, (-1, 6))
    assert tab.dims == brute


def test_parameter_infinite_dimension_detected():
    Rt = make_ring([1], True, names=["x"])
    x, t = Rt.variable(0), Rt.parameter()
    pres = SubmodulePresentation.ideal(Rt, [t * x])
    with pytest.raises(InfiniteDimensionError):
        hilbert_function(pres.as_quotient(), (0, 2))
    # away from the infinite degree the counts are exact: [M]_1 = {x}
    tab = hilbert_function(pres.as_quotient(), (1, 3))
    assert tab.dims == {1: 1, 2: 1, 3: 1}


def test_parameter_finite_when_powers_cut_off():
    Rt = make_ring([1], True, names=["x"])
    x, t = Rt.variable(0), Rt.parameter()
    # t^2 kills the parameter line entirely: dimensions 2, 2, 2, ...
    pres = SubmodulePresentation.ideal(Rt, [t * t])
    tab = hilbert_function(pres.as_quotient(), (0, 2))
    assert tab.dims == {0: 2, 1: 2, 2: 2}


def test_zero_module_table():
    R = ring2()
    pres = SubmodulePresentation.ideal(R, [R.one()])
    tab = hilbert_function(pres.as_quotient(), (0, 3))
    assert tab.is_zero()


def test_numerator_counts_match_enumeration():
    rng = random.Random(47)
    for weights in ((1, 2, 3, 1), (1, 1, 1), (2, 1, 1, 3, 1), (1, 1)):
        n = len(weights)
        for _ in range(12):
            gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 7))]
            top = 12
            assert monomial_quotient_counts(weights, gens, top) == \
                brute_monomial_counts(weights, gens, top), (weights, gens)


def test_numerator_pure_powers_beside_mixed_generators():
    # with x^2, x*y the upper median of the x-exponents would be the
    # generator x^2 itself; pure powers of every variable, and a generator
    # that only repeats the pivot, must not loop either
    cases = [
        [(2, 0), (1, 1)],
        [(2, 0), (1, 1), (0, 3)],
        [(3, 0, 0), (0, 2, 0), (1, 1, 1), (0, 0, 4)],
        [(4, 0, 0), (3, 1, 0), (2, 0, 1), (1, 2, 2), (0, 0, 5)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(2, 0, 0), (2, 0, 0), (2, 1, 0)],
    ]
    for gens in cases:
        weights = (1,) * len(gens[0])
        assert monomial_quotient_counts(weights, gens, 10) == \
            brute_monomial_counts(weights, gens, 10), gens
        assert monomial_quotient_counts((2, 1, 3)[:len(weights)], gens, 10) == \
            brute_monomial_counts((2, 1, 3)[:len(weights)], gens, 10), gens


@pytest.mark.parametrize("n", [7, 8])
def test_numerator_of_maximal_ideal_powers(n):
    gens = [tuple(c.count(i) for i in range(n))
            for c in itertools.combinations_with_replacement(range(n), 6)]
    expected = [comb(d + n - 1, n - 1) if d < 6 else 0 for d in range(10)]
    assert monomial_quotient_counts([1] * n, gens, 9) == expected


def test_numerator_of_a_long_staircase():
    # x^a y^b is in (x^i y^(1500-i)) exactly when a + b >= 1500
    gens = [(i, 1500 - i) for i in range(1501)]
    expected = [d + 1 if d < 1500 else 0 for d in range(1511)]
    assert monomial_quotient_counts([1, 1], gens, 1510) == expected


def _monomial_quotient_dimension(n, gens):
    """krull_dimension of k[x_1..x_n]/<monomials with exponents gens>."""
    R = make_ring([1] * n)
    return krull_dimension(SubmodulePresentation.ideal(
        R, [Polynomial(R, {tuple(g): R.field.one}) for g in gens]))


def test_quotient_dimension_matches_subset_scan():
    rng = random.Random(53)
    for _ in range(200):
        n = rng.randint(1, 10)
        gens = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
                for _ in range(rng.randint(0, 12))]
        assert _monomial_quotient_dimension(n, gens) == subset_scan_dimension(n, gens), (n, gens)


def test_quotient_dimension_in_thirty_variables():
    n = 30

    def ideal(supports):
        return [tuple(int(i in s) for i in range(n)) for s in supports]

    # a minimum vertex cover of the 30-cycle takes every other vertex, and
    # one of the complete graph all vertices but one
    cycle = [(i, (i + 1) % n) for i in range(n)]
    assert _monomial_quotient_dimension(n, ideal(cycle)) == 15
    assert _monomial_quotient_dimension(n, ideal(itertools.combinations(range(n), 2))) == 1
    # ten disjoint triangles need two vertices each
    triangles = [s for k in range(0, n, 3) for s in itertools.combinations(range(k, k + 3), 2)]
    assert _monomial_quotient_dimension(n, ideal(triangles)) == 10


def test_monomials_of_degree_in_1100_variables():
    # the enumeration extends prefixes in a loop, so its depth does not grow
    # with the number of variables
    R = make_ring([1] * 1100)
    mons = monomials_of_degree(R, 1)
    assert mons == [tuple(int(j == i) for j in range(1100)) for i in reversed(range(1100))]
    assert monomials_of_degree(R, 0) == [(0,) * 1100]
    assert monomials_of_degree(R, -1) == []
