"""Fields: the primality test behind every F_p tag, and exact coercion."""

import math
from fractions import Fraction

import pytest

from quivergrass import fields
from quivergrass.fields import GF, PRIME_BOUND, QQ, FieldError, is_prime


def test_primality_matches_trial_division():
    def trial_division(p):
        return p >= 2 and all(p % k for k in range(2, math.isqrt(p) + 1))

    assert all(is_prime(p) == trial_division(p) for p in range(-3, 20000))
    # strong pseudoprimes to the bases 2, 3, 5 and 7, and primes near them
    for p in (3215031751, 2152302898747, 3474749660383, 341550071728321):
        assert not is_prime(p)
    assert is_prime(10 ** 18 + 3) and is_prime(2 ** 61 - 1) and not is_prime(10 ** 18 + 1)
    with pytest.raises(FieldError):
        GF(PRIME_BOUND)


def test_coercion_refuses_floats():
    """A float is not exact, so no field truncates or expands it."""
    for field, value in ((GF(3), 0.5), (GF(5), 2.7), (GF(2), 1.0), (QQ, 0.1), (QQ, 2.0)):
        with pytest.raises(FieldError):
            field.coerce(value)
    assert GF(5).coerce(Fraction(1, 2)) == 3 and GF(5).coerce(-1) == 4
    assert QQ.coerce("1/3") == Fraction(1, 3) and QQ.coerce(7) == Fraction(7)


def test_rationals_keep_integral_values_as_ints():
    """A Q scalar is an int when integral and a Fraction otherwise; the two
    forms of one value compare and hash alike, so dict keys do not change."""
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1
    half, third = Fraction(1, 2), Fraction(1, 3)
    integral = [
        QQ.coerce(7), QQ.coerce(Fraction(6, 3)), QQ.coerce("-4/2"), QQ.coerce("0"),
        QQ.add(half, half), QQ.add(2, 3), QQ.sub(half, half), QQ.sub(Fraction(5, 2), half),
        QQ.mul(half, 4), QQ.mul(-3, 5), QQ.inv(1), QQ.inv(-1), QQ.inv(half), QQ.inv(Fraction(-1, 3)),
        QQ.neg(4),
    ]
    assert integral == [7, 2, -2, 0, 1, 5, 0, 2, 2, -15, 1, -1, 2, -3, -4]
    assert all(type(c) is int for c in integral)
    fractional = [
        QQ.coerce("1/3"), QQ.coerce(Fraction(3, 6)), QQ.add(half, third), QQ.add(1, half),
        QQ.sub(1, third), QQ.mul(half, third), QQ.mul(3, Fraction(1, 9)), QQ.inv(3), QQ.inv(Fraction(2, 3)),
        QQ.neg(half),
    ]
    assert fractional == [third, half, Fraction(5, 6), Fraction(3, 2), Fraction(2, 3), Fraction(1, 6),
                          third, third, Fraction(3, 2), -half]
    assert all(type(c) is Fraction for c in fractional)
    assert 3 == Fraction(3) and hash(3) == hash(Fraction(3)) and hash(-1) == hash(Fraction(-1))
    assert {Fraction(3): "x"}[3] == "x" and str(3) == str(Fraction(3))
    big = 10 ** 30 + 7
    assert QQ.coerce(big) is big and type(QQ.coerce(True)) is int and QQ.coerce(True) == 1
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_rationals_invert_units_without_a_fraction(monkeypatch):
    """1 and -1, the pivots that `build_algebra` and `Echelon` meet most
    over Q, are their own inverses and build no Fraction."""
    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(fields, "Fraction", Counted)
    units = [QQ.inv(1), QQ.inv(-1)]
    assert units == [1, -1] and all(type(c) is int for c in units)
    assert built == []
    assert QQ.inv(-2) == Fraction(-1, 2) and built
