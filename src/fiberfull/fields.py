"""Exact coefficient fields: the rationals and prime fields F_p.

Rational arithmetic uses ``fractions.Fraction``.  Prime-field elements are
plain ints in ``0..p-1``; the field object supplies the modular arithmetic.
"""

from fractions import Fraction
from functools import cache

from .errors import InvalidFieldError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, valid far beyond 2^31."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    p = None

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def pow(self, a, n):
        return Fraction(a) ** n

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"

    def coeff_str(self, a):
        return str(a)


class PrimeField:
    def __init__(self, p):
        if not isinstance(p, int) or not is_prime(p) or p >= 2**31:
            raise InvalidFieldError("characteristic must be a prime below 2^31, got %r" % (p,))
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise InvalidFieldError(
                    "coefficient %s has a denominator divisible by %d" % (x, self.p))
            return self.mul(x.numerator % self.p, self.inv(x.denominator % self.p))
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_%d" % self.p)
        return pow(a, self.p - 2, self.p)

    def pow(self, a, n):
        return pow(a, n, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p

    def coeff_str(self, a):
        return str(a % self.p)


QQ = RationalField()

@cache
def GF(p):
    """The prime field with p elements (cached)."""
    return PrimeField(p)
