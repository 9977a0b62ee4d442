"""Graded polynomial rings with positive weights and an optional degree-0
parameter variable, plus exact sparse polynomials.

Monomials are plain exponent tuples of length ``ring.nvars``; when the ring
has a parameter, its exponent occupies the last slot and contributes nothing
to the degree.  A polynomial is a dict from monomials to nonzero
coefficients, so equal polynomials have equal dicts; its terms carry no
order until it is printed, descending under the ring's canonical order
(grevlex on the positive-degree variables, parameter exponent as final
tiebreaker).  All polynomial arithmetic lives here, that of k[t] included:
the monic associate, the monic lcm and evaluation of a polynomial in the
parameter alone.
"""

from fractions import Fraction
from operator import add, itemgetter, le, mul, neg, sub

from .errors import InvalidArgumentError, InvalidGradingError, RingMismatchError
from .fields import QQ

# ---------- monomial helpers (monomials are bare exponent tuples) ----------


def mon_mul(a, b):
    return tuple(map(add, a, b))


def mon_div(a, b):
    """a / b, assuming b divides a."""
    return tuple(map(sub, a, b))


def mon_divides(a, b):
    """True when a divides b."""
    return all(map(le, a, b))


def mon_lcm(a, b):
    return tuple(map(max, a, b))


def mon_gcd(a, b):
    return tuple(map(min, a, b))


def mon_is_one(a):
    return all(x == 0 for x in a)


class GradedRing:
    """k[x_1..x_r] with deg(x_i) = weights[i] > 0, optionally extended by a
    parameter variable of degree 0."""

    __slots__ = ("weights", "has_parameter", "field", "names", "delta", "nvars")

    def __init__(self, weights, has_parameter=False, field=QQ, names=None):
        weights = tuple(weights)
        if not weights:
            raise InvalidGradingError("at least one positive-degree variable required")
        for w in weights:
            if not isinstance(w, int) or w <= 0:
                raise InvalidGradingError("variable weights must be positive integers, got %r" % (w,))
        self.weights = weights
        self.has_parameter = bool(has_parameter)
        self.field = field
        r = len(weights)
        if names is None:
            names = tuple("x%d" % (i + 1) for i in range(r))
        else:
            names = tuple(names)
            if len(names) != r:
                raise InvalidArgumentError("expected %d variable names, got %d" % (r, len(names)))
        if self.has_parameter:
            names = names + ("t",)
        if len(set(names)) != len(names):
            raise InvalidArgumentError("variable names must be distinct, the parameter t "
                                       "included: got (%s)" % ",".join(names))
        self.names = names
        self.delta = sum(weights)
        self.nvars = r + (1 if self.has_parameter else 0)

    # r in the grading sense: variables of positive degree
    @property
    def num_positive(self):
        return len(self.weights)

    def degree(self, mon):
        return sum(map(mul, self.weights, mon))

    def canonical_key(self, mon):
        """Grevlex on the positive-degree part, parameter exponent last, as
        one flat tuple.  Every entry is linear in the exponents, so the key
        of a product is the entrywise sum of the keys."""
        if self.has_parameter:
            r = len(self.weights)
            return (self.degree(mon), *map(neg, reversed(mon[:r])), mon[r])
        return (self.degree(mon), *map(neg, reversed(mon)))

    def one_monomial(self):
        return (0,) * self.nvars

    def var_monomial(self, i):
        e = [0] * self.nvars
        e[i] = 1
        return tuple(e)

    def parameter_index(self):
        if not self.has_parameter:
            raise InvalidArgumentError("ring has no parameter variable")
        return self.nvars - 1

    # ---------- conversions ----------

    def with_parameter(self):
        if self.has_parameter:
            return self
        return GradedRing(self.weights, True, self.field, self.names)

    def without_parameter(self):
        if not self.has_parameter:
            return self
        return GradedRing(self.weights, False, self.field, self.names[:-1])

    def with_field(self, field):
        names = self.names[:-1] if self.has_parameter else self.names
        return GradedRing(self.weights, self.has_parameter, field, names)

    # ---------- polynomial constructors ----------

    def poly(self, terms):
        """Build a polynomial from an iterable or dict of (monomial, coeff)."""
        if isinstance(terms, dict):
            terms = terms.items()
        field = self.field
        acc = {}
        for mon, c in terms:
            mon = tuple(mon)
            if len(mon) != self.nvars:
                raise InvalidArgumentError("monomial %r has wrong length for ring" % (mon,))
            c = field.coerce(c)
            acc[mon] = field.add(acc[mon], c) if mon in acc else c
        return Polynomial(self, {m: c for m, c in acc.items() if c != field.zero})

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c = self.field.coerce(c)
        if c == self.field.zero:
            return self.zero()
        return Polynomial(self, {self.one_monomial(): c})

    def variable(self, i):
        return Polynomial(self, {self.var_monomial(i): self.field.one})

    def parameter(self):
        return self.variable(self.parameter_index())

    def parse(self, text):
        from .parser import parse_polynomial

        return parse_polynomial(self, text)

    # ---------- structural identity ----------

    def __eq__(self, other):
        return (
            isinstance(other, GradedRing)
            and self.weights == other.weights
            and self.has_parameter == other.has_parameter
            and self.field == other.field
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.weights, self.has_parameter, self.field, self.names))

    def __repr__(self):
        f = repr(self.field)
        return "GradedRing(vars=%s, weights=%s, field=%s)" % (
            ",".join(self.names), list(self.weights), f)


def make_ring(weights, has_parameter=False, field=QQ, names=None):
    """Construct a graded polynomial ring; weights must be positive."""
    return GradedRing(weights, has_parameter, field, names)


class Polynomial:
    """Sparse polynomial with exact coefficients: ``coeffs`` maps each
    monomial to its nonzero coefficient.  The dict is never mutated after
    construction, so polynomials may share it, and all the empty components
    of a vector may share one zero."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    @property
    def terms(self):
        """The (monomial, coefficient) pairs, in no particular order."""
        return self.coeffs.items()

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        c = self.coeffs
        return not c or (len(c) == 1 and mon_is_one(next(iter(c))))

    def is_monomial(self):
        return len(self.coeffs) == 1

    def is_parameter_only(self):
        """True when no positive-degree variable occurs: a polynomial in the
        parameter alone, constants included."""
        r = len(self.ring.weights)
        return not any(any(m[:r]) for m in self.coeffs)

    def constant_value(self):
        if not self.is_constant():
            raise InvalidArgumentError("not a constant polynomial")
        return self.coefficient(self.ring.one_monomial())

    def coefficient(self, mon):
        return self.coeffs.get(tuple(mon), self.ring.field.zero)

    def degrees(self):
        return sorted({self.ring.degree(m) for m in self.coeffs})

    def is_homogeneous(self):
        return len(self.degrees()) <= 1

    def degree(self):
        """Weighted degree of a nonzero homogeneous polynomial."""
        degs = self.degrees()
        if not degs:
            raise InvalidArgumentError("degree of the zero polynomial")
        if len(degs) > 1:
            raise InvalidArgumentError("polynomial is not homogeneous")
        return degs[0]

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        self._check(other)
        field = self.ring.field
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = field.add(out[m], c) if m in out else c
        return Polynomial(self.ring, {m: c for m, c in out.items() if c != field.zero})

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, {m: neg(c) for m, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = self.ring.field.coerce(other)
            if c == self.ring.field.zero:
                return self.ring.zero()
            mul = self.ring.field.mul
            return Polynomial(self.ring, {m: mul(cf, c) for m, cf in self.coeffs.items()})
        self._check(other)
        return _accumulate_product({}, self, other, self.ring.field.add)

    __rmul__ = __mul__

    def minus_product(self, a, b):
        """self - a * b for a and b in the ring of self, summed in one pass."""
        return _accumulate_product(dict(self.coeffs), a, b, self.ring.field.sub)

    def __pow__(self, n):
        """Square and multiply: about 2 log2(n) products."""
        if n < 0:
            raise InvalidArgumentError("negative polynomial power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def mul_term(self, mon, coeff):
        mon = tuple(mon)
        field = self.ring.field
        coeff = field.coerce(coeff)
        if coeff == field.zero:
            return self.ring.zero()
        return Polynomial(self.ring, {mon_mul(m, mon): field.mul(c, coeff)
                                      for m, c in self.coeffs.items()})

    def specialize_parameter(self, value, target_ring):
        """Substitute the parameter variable by a field element; the result
        lives in ``target_ring``, the ring without the parameter."""
        ti = self.ring.parameter_index()
        field = target_ring.field
        value = field.coerce(value)
        acc = []
        for m, c in self.terms:
            acc.append((m[:ti], field.mul(field.coerce(c), field.pow(value, m[ti]))))
        return target_ring.poly(acc)

    def extend_with_parameter(self, target_ring):
        """View a parameter-free polynomial inside the parameter ring
        ``target_ring``."""
        return target_ring.poly([(m + (0,), c) for m, c in self.terms])

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.coeffs.items())))

    def __str__(self):
        """The terms descending under the ring's canonical order."""
        if not self.coeffs:
            return "0"
        field = self.ring.field
        parts = []
        for m in sorted(self.coeffs, key=self.ring.canonical_key, reverse=True):
            c = self.coeffs[m]
            mono = self._monomial_str(m)
            cs = field.coeff_str(c)
            if mono == "1":
                body = cs
                negative = cs.startswith("-")
                if negative:
                    body = cs[1:]
            else:
                negative = cs.startswith("-")
                mag = cs[1:] if negative else cs
                body = mono if mag == "1" else "%s*%s" % (mag, mono)
            if not parts:
                parts.append("-" + body if negative else body)
            else:
                parts.append(" - " + body if negative else " + " + body)
        return "".join(parts)

    def _monomial_str(self, m):
        names = self.ring.names
        bits = []
        for i, e in enumerate(m):
            if e == 0:
                continue
            bits.append(names[i] if e == 1 else "%s^%d" % (names[i], e))
        return "*".join(bits) if bits else "1"

    def __repr__(self):
        return "<poly %s>" % self


def _accumulate_product(acc, a, b, op):
    """The polynomial acc op a * b, for op the field's add or sub and acc a
    fresh dict of coefficients that this call takes over."""
    field = a.ring.field
    mul, zero = field.mul, field.zero
    for m1, c1 in a.coeffs.items():
        for m2, c2 in b.coeffs.items():
            m = mon_mul(m1, m2)
            acc[m] = op(acc.get(m, zero), mul(c1, c2))
    return Polynomial(a.ring, {m: c for m, c in acc.items() if c != zero})


# ---------- polynomials in the parameter alone: k[t] ----------
# the parameter exponent is the last slot of a monomial, the only nonzero
# one in a polynomial in the parameter alone


def _check_parameter_only(f):
    f.ring.parameter_index()  # raises for a ring without a parameter
    if not f.is_parameter_only():
        raise InvalidArgumentError("%s is not a polynomial in the parameter" % f)


def _parameter_lead(f):
    """The monomial of highest degree in t of a nonzero f in k[t], and its
    coefficient."""
    mon = max(f.coeffs, key=itemgetter(-1))
    return mon, f.coeffs[mon]


def _monic(f):
    if not f.coeffs:
        return f
    c = _parameter_lead(f)[1]
    return f if c == f.ring.field.one else f * f.ring.field.inv(c)


def _parameter_divmod(a, b):
    """Quotient and remainder of a by a nonzero b in k[t]."""
    field = a.ring.field
    mb, lb = _parameter_lead(b)
    inv = field.inv(lb)
    quotient = {}
    while a.coeffs:
        ma, la = _parameter_lead(a)
        if ma[-1] < mb[-1]:
            break
        mon = mon_div(ma, mb)
        quotient[mon] = c = field.mul(la, inv)
        a = a.minus_product(Polynomial(a.ring, {mon: c}), b)
    return Polynomial(a.ring, quotient), a


def parameter_lcm(f, g):
    """Monic lcm of two nonzero polynomials in the parameter."""
    _check_parameter_only(f)
    _check_parameter_only(g)
    if f.is_zero() or g.is_zero():
        raise InvalidArgumentError("lcm with zero")
    if f.is_constant():
        return _monic(g)
    if g.is_constant():
        return _monic(f)
    a, b = f, g
    while b.coeffs:
        a, b = b, _parameter_divmod(a, b)[1]
    return _monic(f * _parameter_divmod(g, a)[0])


def parameter_monic(f):
    """The monic associate of a polynomial in the parameter; 0 stays 0."""
    _check_parameter_only(f)
    return _monic(f)


def evaluate_parameter(f, c):
    """f(c) for f a polynomial in the parameter, c coerced into the field."""
    _check_parameter_only(f)
    field = f.ring.field
    c = field.coerce(c)
    acc = field.zero
    for mon, coeff in f.coeffs.items():
        acc = field.add(acc, field.mul(coeff, field.pow(c, mon[-1])))
    return acc
