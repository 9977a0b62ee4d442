"""Exact matrix rank over a coefficient field by sparse integer elimination.

A matrix is a list of sparse rows, each a ``{column: entry}`` dict of field
elements: ints or Fractions over QQ, ints over F_p.  A column that a row
does not name holds zero.  Each row is read once into a ``{column: int}``
row without its zero entries and reduced against the pivot rows found so
far, each kept under its leading column.  Over QQ a row is scaled by the
lcm of its denominators and eliminated fraction-free, ``a*row - b*pivot``
followed by division by the gcd of the entries, so no Fraction is ever
built (Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 1968).  Over F_p the arithmetic is
modular.  Both ranks are exact: a rank modulo a prime is never taken for
the rank over QQ, since it can be smaller.  Used for simplicial cohomology
ranks and for degreewise exactness checks.
"""

from math import gcd, lcm


def _integer_row(row):
    """A row of rationals as a primitive sparse integer row with the same
    span."""
    nonzero = [(j, v) for j, v in row.items() if v]
    scale = lcm(*(v.denominator for _, v in nonzero))
    return _primitive({j: v.numerator * (scale // v.denominator) for j, v in nonzero})


def _primitive(row):
    content = gcd(*row.values())
    if content > 1:
        return {j: v // content for j, v in row.items()}
    return row


def _eliminate_integer(row, pivot, col):
    """``a*row - b*pivot`` with the entries at ``col`` cancelling, made
    primitive."""
    a, b = pivot[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {j: a * v for j, v in row.items()}
    for j, v in pivot.items():
        w = out.get(j, 0) - b * v
        if w:
            out[j] = w
        else:
            del out[j]
    return _primitive(out)


def _eliminate_mod_p(row, pivot, col, p):
    """``row - row[col]*pivot`` modulo p, for a pivot row with leading 1."""
    b = row[col]
    out = dict(row)
    for j, v in pivot.items():
        w = (out.get(j, 0) - b * v) % p
        if w:
            out[j] = w
        else:
            del out[j]
    return out


def matrix_rank(field, rows):
    """Rank over ``field`` of the matrix with the given ``{column: entry}``
    rows."""
    p = field.p
    pivots = {}
    for row in rows:
        if p:
            r = {j: v % p for j, v in row.items() if v % p}
        else:
            r = _integer_row(row)
        while r:
            col = min(r)
            pivot = pivots.get(col)
            if pivot is None:
                if p:
                    inv = pow(r[col], -1, p)
                    r = {j: v * inv % p for j, v in r.items()}
                pivots[col] = r
                break
            r = _eliminate_mod_p(r, pivot, col, p) if p else _eliminate_integer(r, pivot, col)
    return len(pivots)
