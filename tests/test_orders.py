"""Term orders: worked comparisons, totality, multiplicativity, globality."""

import random

from fiberfull import TermOrder, make_ring
from fiberfull.rings import mon_mul
from helpers import rand_monomial


def test_grevlex_vs_lex_on_xz_y2():
    R = make_ring([1, 1, 1], names=["x", "y", "z"])
    xz = (1, 0, 1)
    y2 = (0, 2, 0)
    grevlex, lex = TermOrder.grevlex(), TermOrder.lex()
    assert grevlex.key(R, xz) < grevlex.key(R, y2)
    assert lex.key(R, xz) > lex.key(R, y2)
    assert grevlex.key(R, xz) == grevlex.key(R, xz)


def test_block_order_eliminates_x():
    R = make_ring([1, 1], True, names=["x", "y"])
    order = TermOrder.block_x_over_t()
    t5 = (0, 0, 5)
    x = (1, 0, 0)
    assert order.key(R, t5) < order.key(R, x)
    # and t counts above 1
    one = (0, 0, 0)
    assert order.key(R, t5) > order.key(R, one)


def test_weighted_order_refines():
    R = make_ring([1, 1, 1], names=["x", "y", "z"])
    order = TermOrder.weighted((1, 1, 2))
    xz = (1, 0, 1)
    y2 = (0, 2, 0)
    # omega gives xz weight 3 > 2
    assert order.key(R, xz) > order.key(R, y2)


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
                ka, kb = order.key(ring, a), order.key(ring, b)
                # equal keys only on equality
                assert (ka == kb) == (a == b)
                # multiplicative
                if ka > kb:
                    assert order.key(ring, mon_mul(a, c)) > order.key(ring, mon_mul(b, c))
                # global: 1 is minimal
                assert order.key(ring, a) > order.key(ring, one) or a == one


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


def test_module_keys_rank_the_position_above_the_parameter():
    # a module key is the term key with the position put in front of the
    # parameter exponent, which ends every term key; the block order puts
    # its flag in front of that key
    from fiberfull.orders import BlockTOPOrder, TOPOrder

    rng = random.Random(16)
    param = make_ring([1, 2, 1], True)
    x, xt5 = (1, 0, 0, 0), (1, 0, 0, 5)
    for ring in (make_ring([1, 2, 1]), param):
        for term_order in (TermOrder.lex(), TermOrder.grevlex(), TermOrder.block_x_over_t(),
                           TermOrder.weighted((3, 1, 2))):
            top = TOPOrder(ring, term_order)
            block = BlockTOPOrder(ring, term_order, 2)
            if ring is param:
                assert top.key(xt5, 1) < top.key(x, 0)
            for _ in range(50):
                m, c = rand_monomial(rng, ring), rng.randrange(4)
                k = term_order.key(ring, m)
                tail = k[-1:] if ring is param else ()
                assert top.key(m, c) == (*k[:len(k) - len(tail)], -c, *tail)
                assert top.shift(m) == (*k[:len(k) - len(tail)], 0, *tail)
                assert block.key(m, c) == (1 if c < 2 else 0, *top.key(m, c))
                assert block.shift(m) == (0, *top.shift(m))


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
