"""Fields: the primality test behind every F_p tag, and exact coercion."""

import math
from fractions import Fraction

import pytest

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
