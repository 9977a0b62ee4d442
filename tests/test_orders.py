"""Term orders: worked comparisons, totality, multiplicativity, globality."""

import random

from fiberfull import EQ, GT, LT, TermOrder, compare_monomials, make_ring
from fiberfull.rings import mon_mul
from helpers import rand_monomial


def test_grevlex_vs_lex_on_xz_y2():
    R = make_ring([1, 1, 1], names=["x", "y", "z"])
    xz = (1, 0, 1)
    y2 = (0, 2, 0)
    assert compare_monomials(R, TermOrder.grevlex(), xz, y2) == LT
    assert compare_monomials(R, TermOrder.lex(), xz, y2) == GT
    assert compare_monomials(R, TermOrder.grevlex(), xz, xz) == EQ


def test_block_order_eliminates_x():
    R = make_ring([1, 1], True, names=["x", "y"])
    order = TermOrder.block_x_over_t()
    t5 = (0, 0, 5)
    x = (1, 0, 0)
    assert compare_monomials(R, order, t5, x) == LT
    # and t counts above 1
    one = (0, 0, 0)
    assert compare_monomials(R, order, t5, one) == GT


def test_weighted_order_refines():
    R = make_ring([1, 1, 1], names=["x", "y", "z"])
    order = TermOrder.weighted((1, 1, 2))
    xz = (1, 0, 1)
    y2 = (0, 2, 0)
    # omega gives xz weight 3 > 2
    assert compare_monomials(R, order, xz, y2) == GT


def test_orders_total_multiplicative_global():
    rng = random.Random(424242)
    rings = [
        make_ring([1, 1, 1]),
        make_ring([1, 2, 1], True),
    ]
    orders = [
        TermOrder.lex(),
        TermOrder.grevlex(),
        TermOrder.block_x_over_t(),
        TermOrder.weighted((3, 1, 2)),
    ]
    for ring in rings:
        one = ring.one_monomial()
        for order in orders:
            for _ in range(200):
                a = rand_monomial(rng, ring)
                b = rand_monomial(rng, ring)
                c = rand_monomial(rng, ring)
                cmp_ab = compare_monomials(ring, order, a, b)
                # EQ only on equality
                assert (cmp_ab == EQ) == (a == b)
                # multiplicative
                if cmp_ab == GT:
                    assert compare_monomials(ring, order, mon_mul(a, c), mon_mul(b, c)) == GT
                # global: 1 is minimal
                assert compare_monomials(ring, order, a, one) in ((EQ,) if a == one else (GT,))


def test_keys_shift_by_the_key_of_the_multiplier():
    # every key is linear in the exponents: key(m * u) = key(m) + shift(u),
    # which lets a term multiple update its keys without re-deriving them
    from operator import add

    from fiberfull.orders import BlockTOPOrder, SchreyerOrder, TOPOrder

    rng = random.Random(77)
    for ring in (make_ring([1, 1, 1]), make_ring([1, 2, 1], True)):
        for term_order in (TermOrder.lex(), TermOrder.grevlex(), TermOrder.block_x_over_t(),
                           TermOrder.weighted((3, 1, 2))):
            top = TOPOrder(ring, term_order)
            leads = [(rand_monomial(rng, ring), rng.randrange(3)) for _ in range(4)]
            schreyer = SchreyerOrder(top, leads)
            tower = SchreyerOrder(schreyer, [(rand_monomial(rng, ring), rng.randrange(4))
                                             for _ in range(5)])
            for morder, rank in ((top, 3), (BlockTOPOrder(ring, term_order, 2), 4),
                                 (schreyer, 4), (tower, 5)):
                for _ in range(50):
                    m, u = rand_monomial(rng, ring), rand_monomial(rng, ring)
                    c = rng.randrange(rank)
                    shifted = tuple(map(add, morder.key(m, c), morder.shift(u)))
                    assert shifted == morder.key(mon_mul(m, u), c)


def test_schreyer_key_orders_like_the_nested_definition():
    # the induced order compares the parent key of the image of the lead,
    # then the position (lower wins); the flat key must agree with the
    # nested tuple built from that definition level by level
    from fiberfull.orders import SchreyerOrder, TOPOrder

    def nested(order, mon, comp):
        if isinstance(order, SchreyerOrder):
            pm, pc = order.leads[comp]
            return (nested(order.parent, mon_mul(mon, pm), pc), -comp)
        return (order.term_order.key(order.ring, mon), -comp)

    rng = random.Random(5)
    ring = make_ring([1, 1, 1])
    order = TOPOrder(ring, TermOrder.grevlex())
    rank = 2
    for level in range(3):
        order = SchreyerOrder(order, [(rand_monomial(rng, ring), rng.randrange(rank))
                                      for _ in range(4)])
        rank = 4
        terms = [(rand_monomial(rng, ring), rng.randrange(rank)) for _ in range(60)]
        flat = sorted(terms, key=lambda mc: order.key(*mc))
        assert flat == sorted(terms, key=lambda mc: nested(order, *mc)), level
