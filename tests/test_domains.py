"""Integer helpers of the coefficient domains: primes and p-adic exponents."""

import pytest

from invring.domains import is_prime, multiplicity, prime_divisors


def test_is_prime_matches_a_sieve():
    limit = 5000
    sieve = [False, False] + [True] * (limit - 1)
    for f in range(2, int(limit**0.5) + 1):
        if sieve[f]:
            sieve[f * f :: f] = [False] * len(sieve[f * f :: f])
    assert [n for n in range(-10, limit + 1) if is_prime(n)] == [
        n for n in range(limit + 1) if sieve[n]
    ]


def test_multiplicity_is_the_exponent_of_p():
    for n in range(-300, 301):
        if n:
            for p in prime_divisors(abs(n)) + [2, 3, 7]:
                k = multiplicity(n, p)
                assert n % p**k == 0 and n % p ** (k + 1) != 0, (n, p)


@pytest.mark.parametrize("n, p", [(0, 2), (0, 3), (12, 0), (12, 1), (12, -1)])
def test_multiplicity_refuses_zero_and_p_below_two(n, p):
    with pytest.raises(ValueError):
        multiplicity(n, p)
