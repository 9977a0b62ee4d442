"""The exact rank kernel against sympy's ``DomainMatrix.rank`` over QQ and a
prime field, and simplicial cohomology ranks that depend on the
characteristic."""

import itertools
import random
from fractions import Fraction
from functools import reduce

import pytest

from fiberfull import GF, QQ
from fiberfull.hochster import reduced_cohomology_dims
from fiberfull.linalg import matrix_rank
from fixtures import RP2_TRIANGLES

P = 32003


def _random_entry(rng, field):
    if rng.random() < 0.4:
        return field.zero
    if field.p:
        return rng.randrange(field.p)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _random_matrix(rng, field):
    """A seeded matrix: random entries, or a product of random factors of
    smaller inner size, with zero and duplicate rows mixed in."""
    nrows, ncols = rng.randint(0, 8), rng.randint(0, 8)
    if rng.random() < 0.5:
        rows = [[_random_entry(rng, field) for _ in range(ncols)] for _ in range(nrows)]
    else:
        inner = rng.randint(0, 4)
        left = [[_random_entry(rng, field) for _ in range(inner)] for _ in range(nrows)]
        right = [[_random_entry(rng, field) for _ in range(ncols)] for _ in range(inner)]
        rows = [[reduce(field.add, (field.mul(a, right[k][j]) for k, a in enumerate(row)),
                        field.zero) for j in range(ncols)] for row in left]
    if rows and rng.random() < 0.5:
        rows.insert(rng.randrange(len(rows) + 1), [field.zero] * ncols)
    if rows and rng.random() < 0.5:
        rows.append(list(rng.choice(rows)))
    return rows, ncols


def _sparse(rows):
    """Dense rows as ``{column: entry}`` rows, zero entries included."""
    return [dict(enumerate(row)) for row in rows]


def _sympy_rank(field, rows, ncols):
    import sympy
    from sympy.polys.matrices import DomainMatrix

    if field.p:
        dom = sympy.GF(field.p)
        entries = [[dom(v) for v in row] for row in rows]
    else:
        dom = sympy.QQ
        entries = [[dom(v.numerator, v.denominator) for v in row] for row in rows]
    return DomainMatrix(entries, (len(rows), ncols), dom).rank()


@pytest.mark.parametrize("field", [QQ, GF(P)], ids=["QQ", "GF32003"])
def test_rank_matches_sympy(field):
    pytest.importorskip("sympy")
    rng = random.Random(2024)
    for _ in range(150):
        rows, ncols = _random_matrix(rng, field)
        assert matrix_rank(field, _sparse(rows)) == _sympy_rank(field, rows, ncols), rows


def test_rank_edge_shapes():
    assert matrix_rank(QQ, []) == 0
    assert matrix_rank(GF(P), []) == 0
    assert matrix_rank(QQ, [{}, {}]) == 0
    assert matrix_rank(QQ, _sparse([[0, 0], [Fraction(0), 0]])) == 0
    # ints and Fractions mix over QQ; entries of F_p are ints mod p
    assert matrix_rank(QQ, _sparse([[1, Fraction(1, 2)], [2, 1]])) == 1
    assert matrix_rank(QQ, _sparse([[Fraction(1, 3), 1], [1, Fraction(1, 3)]])) == 2
    assert matrix_rank(GF(3), _sparse([[1, 2], [2, 1]])) == 1
    # a column that a row does not name holds zero, as does an entry that is
    # zero, or zero mod p; columns need not be contiguous or in order
    for field in (QQ, GF(3)):
        assert matrix_rank(field, [{}]) == 0
        assert matrix_rank(field, [{4: 0, 1: field.zero}, {}]) == 0
        assert matrix_rank(field, [{7: 1}, {}, {0: 0, 7: 2}, {3: 0}]) == 1
        assert matrix_rank(field, [{9: 1, 2: 0}, {2: 1}, {2: 1, 9: 1, 5: 0}]) == 2
    assert matrix_rank(QQ, [{0: 3, 1: 6}, {5: 1}]) == 2
    assert matrix_rank(GF(3), [{0: 3, 1: 6}, {5: 1}]) == 1


def test_projective_plane_cohomology_depends_on_characteristic():
    faces = {frozenset(s) for t in RP2_TRIANGLES for k in range(4)
             for s in itertools.combinations(t, k)}
    assert len(faces) == 1 + 6 + 15 + 10
    faces = sorted(faces, key=sorted)
    assert reduced_cohomology_dims(faces, GF(2)) == {1: 1, 2: 1}
    assert reduced_cohomology_dims(faces, GF(3)) == {}
    assert reduced_cohomology_dims(faces, QQ) == {}
