"""Simplicial route to local cohomology of square-free monomial quotients and
its agreement with the duality route."""

import pytest

from fiberfull import (
    GF,
    InvalidArgumentError,
    hochster_hilbert,
    local_cohomology_hilbert,
    make_ring,
)
from fiberfull.hochster import complex_from_squarefree, link, reduced_cohomology_dims
from fiberfull.fields import QQ
from fixtures import ideal_from_strings, ring2, squarefree_presentations


def test_complex_faces_and_links():
    R = ring2()
    P = ideal_from_strings(R, ("x*y",))
    faces = complex_from_squarefree(P)
    assert sorted(tuple(sorted(f)) for f in faces) == [(), (0,), (1,)]
    lk = link(faces, frozenset({0}))
    assert sorted(tuple(sorted(f)) for f in lk) == [()]


def test_reduced_cohomology_conventions():
    # the empty complex carries one unit in dimension -1
    assert reduced_cohomology_dims([frozenset()], QQ) == {-1: 1}
    # two points: one unit in dimension 0
    faces = [frozenset(), frozenset({0}), frozenset({1})]
    assert reduced_cohomology_dims(faces, QQ) == {0: 1}
    # a filled triangle is acyclic
    import itertools

    tri = [frozenset(s) for k in range(4) for s in itertools.combinations(range(3), k)]
    assert reduced_cohomology_dims(tri, QQ) == {}
    # a hollow triangle has one unit in dimension 1
    hollow = [f for f in tri if len(f) <= 2]
    assert reduced_cohomology_dims(hollow, QQ) == {1: 1}


def test_hochster_examples():
    R = ring2()
    P = ideal_from_strings(R, ("x",))
    assert hochster_hilbert(P, 1, (-4, 1)).dims == {-4: 1, -3: 1, -2: 1, -1: 1, 0: 0, 1: 0}
    P2 = ideal_from_strings(R, ("x*y",))
    assert hochster_hilbert(P2, 1, (-3, 1)).dims == {-3: 2, -2: 2, -1: 2, 0: 1, 1: 0}
    assert hochster_hilbert(P2, 0, (-3, 1)).is_zero()


def test_hochster_rejects_non_squarefree():
    R = ring2()
    with pytest.raises(InvalidArgumentError):
        hochster_hilbert(ideal_from_strings(R, ("x^2",)), 1, (-2, 0))
    with pytest.raises(InvalidArgumentError):
        hochster_hilbert(ideal_from_strings(R, ("x + y",)), 1, (-2, 0))


def test_weighted_grading_agreement():
    R = make_ring([1, 2, 1], names=["x", "y", "z"])
    P = ideal_from_strings(R, ("x*y", "y*z"))
    for i in range(4):
        a = hochster_hilbert(P, i, (-7, 2))
        b = local_cohomology_hilbert(P, i, (-7, 2))
        assert a == b


def test_oracle_agreement_over_prime_field():
    for gens, pres in squarefree_presentations(GF(32003))[:8]:
        for i in range(5):
            a = hochster_hilbert(pres, i, (-6, 1))
            b = local_cohomology_hilbert(pres, i, (-6, 1))
            assert a == b, (gens, i)
