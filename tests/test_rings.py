"""Coefficient fields, graded rings, polynomial arithmetic and its laws."""

import random
from fractions import Fraction

import pytest

from fiberfull import (
    GF,
    InvalidFieldError,
    InvalidGradingError,
    RingMismatchError,
    make_ring,
    parse_polynomial,
)
from helpers import rand_poly


def test_make_ring_basic():
    R = make_ring([1, 1, 1])
    assert R.num_positive == 3
    assert R.delta == 3
    assert not R.has_parameter
    assert R.names == ("x1", "x2", "x3")


def test_make_ring_with_parameter_and_weights():
    R = make_ring([2, 1, 1], True, GF(32003))
    assert R.num_positive == 3
    assert R.delta == 4
    assert R.has_parameter
    assert R.names[-1] == "t"
    # the parameter contributes nothing to the degree
    t = R.parameter()
    assert t.degree() == 0


def test_make_ring_rejects_bad_weights():
    with pytest.raises(InvalidGradingError):
        make_ring([1, 0])
    with pytest.raises(InvalidGradingError):
        make_ring([])
    with pytest.raises(InvalidGradingError):
        make_ring([1, -2])


def test_prime_field_validation():
    with pytest.raises(InvalidFieldError):
        GF(32004)
    with pytest.raises(InvalidFieldError):
        GF(1)
    f = GF(7)
    assert f.inv(3) == 5
    assert f.coerce(Fraction(1, 2)) == 4


def test_poly_str_and_parse_round_trip_examples():
    R = make_ring([1, 1, 1], True)
    p = parse_polynomial(R, "3*x1^2*x2 - 1/2*t*x3")
    assert str(p) == "3*x1^2*x2 - 1/2*x3*t"
    assert parse_polynomial(R, str(p)) == p


def test_poly_multiply_examples():
    R = make_ring([1, 1], names=["x", "y"])
    x, y = R.variable(0), R.variable(1)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x * y) * R.zero() == R.zero()
    Rt = make_ring([1, 1, 1], True, names=["x", "y", "z"])
    xz = Rt.parse("x*z")
    t = Rt.parameter()
    y2 = Rt.parse("y^2")
    assert (xz - t * y2) * t == Rt.parse("t*x*z - t^2*y^2")


def test_ring_mismatch_raises():
    R1 = make_ring([1, 1])
    R2 = make_ring([1, 1, 1])
    with pytest.raises(RingMismatchError):
        R1.variable(0) * R2.variable(0)


def test_homogeneous_degree_addition():
    R = make_ring([1, 2], names=["x", "y"])
    f = R.parse("x^2 + y")  # degree 2 under weights (1,2)
    assert f.is_homogeneous() and f.degree() == 2
    g = R.parse("x*y")
    assert (f * g).degree() == f.degree() + g.degree()


def test_arithmetic_laws_random():
    rng = random.Random(20260810)
    for ring in (
        make_ring([1, 1, 1]),
        make_ring([1, 2], field=GF(32003)),
        make_ring([1, 1], True),
    ):
        for _ in range(200):
            f = rand_poly(rng, ring)
            g = rand_poly(rng, ring)
            h = rand_poly(rng, ring)
            assert (f + g) + h == f + (g + h)
            assert f * (g + h) == f * g + f * h
            assert f * g == g * f
        # square and multiply gives the repeated product
        power = ring.one()
        for n in range(10):
            assert f ** n == power
            power = power * f


def test_parse_print_round_trip_random():
    rng = random.Random(7)
    for ring in (make_ring([1, 1, 1]), make_ring([1, 1], True, GF(101))):
        for _ in range(200):
            f = rand_poly(rng, ring)
            assert parse_polynomial(ring, str(f)) == f


def test_homogeneous_product_degree_random():
    rng = random.Random(99)
    ring = make_ring([1, 1, 2], True, names=["x", "y", "z"])
    base = ring.without_parameter()
    for _ in range(100):
        d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
        from helpers import rand_homogeneous

        f = rand_homogeneous(rng, base, d1).extend_with_parameter(ring)
        g = rand_homogeneous(rng, base, d2).extend_with_parameter(ring)
        t = ring.parameter()
        # sprinkling parameter factors never changes the degree
        f = f * t ** rng.randint(0, 2)
        assert f.is_homogeneous()
        assert (f * g).degree() == d1 + d2
