"""Prime fields: the primality test behind every F_p tag."""

import math

import pytest

from quivergrass.fields import GF, PRIME_BOUND, FieldError, is_prime


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
