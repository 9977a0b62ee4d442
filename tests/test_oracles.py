"""Independent oracle for Buchberger: the reduced Groebner basis of seeded
random homogeneous ideals must equal the one ``sympy.groebner`` computes,
under grevlex and lex, over QQ and over a prime field.  Some of the ideals
have one or two monomial generators, whose pair the engine never forms."""

import random

import pytest

from fiberfull import (
    GF,
    QQ,
    SubmodulePresentation,
    TermOrder,
    buchberger,
    make_ring,
    monomials_of_degree,
)

sympy = pytest.importorskip("sympy")

P = 32003
IDEALS = 10


def _random_form(rng, ring, degree):
    mons = monomials_of_degree(ring, degree)
    terms = [(m, rng.choice((-3, -2, -1, 1, 2, 3))) for m in rng.sample(mons, rng.randint(2, 4))]
    return ring.poly(terms)


def _degrees(ring):
    # cubics only in 3 variables: lex bases of cubics in 4 variables over QQ
    # can take sympy many seconds
    return (2, 3) if ring.nvars == 3 else (2,)


def _random_ideal(rng, field):
    ring = make_ring([1] * rng.choice((3, 4)), field=field)
    degrees = _degrees(ring)
    return ring, [_random_form(rng, ring, rng.choice(degrees)) for _ in range(rng.randint(2, 3))]


def _random_monomial(rng, ring):
    mons = monomials_of_degree(ring, rng.choice(_degrees(ring)))
    return ring.poly([(rng.choice(mons), rng.choice((-3, -2, -1, 1, 2, 3)))])


def _normalize(coeff, field):
    # over GF(p) sympy gives symmetric residues; ours lie in 0..p-1
    return sympy.Rational(coeff) if field is QQ else int(coeff) % P


def _ours(ring, gens, order, field):
    G = buchberger(SubmodulePresentation.ideal(ring, gens), order)
    return {frozenset((m, _normalize(c, field)) for m, c in v.components[0].terms)
            for v in G.elements}


def _sympy(ring, gens, order, field):
    xs = sympy.symbols("x1:%d" % (ring.nvars + 1))
    exprs = [sum(sympy.Rational(c) * sympy.prod(x ** e for x, e in zip(xs, m)) for m, c in g.terms)
             for g in gens]
    kwargs = {"domain": "QQ"} if field is QQ else {"modulus": P}
    # both reduced bases are monic
    basis = sympy.groebner(exprs, *xs, order=order, **kwargs)
    return {frozenset((m, _normalize(c, field)) for m, c in poly.terms()) for poly in basis.polys}


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("field", [QQ, GF(P)], ids=["QQ", "GF32003"])
def test_reduced_basis_matches_sympy(order, field):
    rng = random.Random("oracle-%s-%r" % (order, field))
    for _ in range(IDEALS):
        ring, gens = _random_ideal(rng, field)
        ours = _ours(ring, gens, getattr(TermOrder, order)(), field)
        assert ours == _sympy(ring, gens, order, field), [str(g) for g in gens]


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("field", [QQ, GF(P)], ids=["QQ", "GF32003"])
def test_reduced_basis_with_monomial_generators_matches_sympy(order, field):
    rng = random.Random("oracle-monomials-%s-%r" % (order, field))
    for _ in range(IDEALS):
        ring, gens = _random_ideal(rng, field)
        gens += [_random_monomial(rng, ring) for _ in range(rng.randint(1, 2))]
        ours = _ours(ring, gens, getattr(TermOrder, order)(), field)
        assert ours == _sympy(ring, gens, order, field), [str(g) for g in gens]
