"""Exact coefficient fields: the rationals and prime fields.

Every scalar in this package is exact.  Over Q it is an int when it is
integral and a `fractions.Fraction` otherwise; an int and a Fraction of the
same value compare and hash alike, so the two forms are interchangeable as
dict keys.  Over F_p it is an int in ``range(p)``.  No floating point
anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import QuivergrassError


class FieldError(QuivergrassError):
    """Bad field tag or impossible coercion (e.g. 1/p in F_p)."""


def _refuse_float(value):
    if isinstance(value, float):
        raise FieldError(f"the float {value!r} is not an exact scalar")


def _integral(q):
    """q as an int when it is integral: int arithmetic is the cheaper one,
    and most coefficients met over Q are integers."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


class Rationals:
    """The field Q; an element is an int when integral, else a Fraction, and
    never a float."""

    char = 0
    zero = 0
    one = 1
    tag = "Q"

    def coerce(self, value):
        if type(value) is int:  # already the integral form
            return value
        _refuse_float(value)
        return _integral(Fraction(value))

    def add(self, a, b):
        return _integral(a + b)

    def sub(self, a, b):
        return _integral(a - b)

    def mul(self, a, b):
        return _integral(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 1 or a == -1:  # an int: the integral form of +-1
            return a
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _integral(Fraction(1) / a)

    def elements(self):
        raise FieldError("Q is infinite; cannot enumerate elements")

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


# Miller-Rabin with these bases decides primality exactly below PRIME_BOUND,
# the least composite that passes them all
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(p):
    """Whether 1 < p < PRIME_BOUND is prime, by deterministic Miller-Rabin."""
    if p < 2:
        return False
    for b in _WITNESSES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _WITNESSES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p for a prime p; elements are ints in range(p)."""

    def __init__(self, p):
        if p >= PRIME_BOUND:
            raise FieldError("field size past the supported bound: F_p needs p < 3.3e24")
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p
        self.tag = f"F{p}"

    def coerce(self, value):
        _refuse_float(value)
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise FieldError(f"denominator of {value} vanishes in F{self.p}")
            return value.numerator * pow(den, -1, self.p) % self.p
        return int(value) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return self.tag


QQ = Rationals()


def GF(p):
    return PrimeField(p)


def parse_field(tag):
    """Turn a tag like "Q" or "F5" into a field object."""
    tag = tag.strip()
    if tag in ("Q", "QQ"):
        return QQ
    if tag.startswith("F") and tag[1:].isdigit():
        return PrimeField(int(tag[1:]))
    raise FieldError(f"unknown field tag {tag!r} (expected Q or F<p>)")
