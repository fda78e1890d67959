"""Integer helpers of the coefficient domains: primes, p-adic exponents,
integer forms of rational data, and matrix products."""

import random
from fractions import Fraction

import pytest

from invring.domains import (
    GF,
    QQ,
    ZZ,
    Z_local,
    integer_form,
    is_prime,
    mat_from_rows,
    mat_mul,
    multiplicity,
    prime_divisors,
)


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


@pytest.mark.parametrize(
    "values, den, ints",
    [
        ([], 1, []),
        ([0, 3, -7], 1, [0, 3, -7]),
        ([Fraction(-1, 2), Fraction(-5, 3)], 6, [-3, -10]),
        ([4, Fraction(-3, 4), 0, Fraction(5, 6), Fraction(2)], 12, [48, -9, 0, 10, 24]),
    ],
)
def test_integer_form_known_answers(values, den, ints):
    assert integer_form(values) == (den, ints)
    assert integer_form(iter(values)) == (den, ints)  # any iterable, read once


def test_integer_form_is_the_least_common_scale():
    # den is the least d > 0 with every d * x an integer, found by search
    rng = random.Random("integer-form")
    for _ in range(300):
        size = rng.randint(0, 5)
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(size)]
        den, ints = integer_form(values)
        least = next(d for d in range(1, 10**6) if all((d * x).denominator == 1 for x in values))
        assert den == least, values
        assert ints == [int(den * x) for x in values] and all(type(v) is int for v in ints)


def _entrywise_product(dom, a, b):
    """a * b with every product and sum through the domain's own methods."""
    out = []
    for row in a:
        entries = []
        for j in range(len(b[0])):
            acc = dom.zero
            for t, x in enumerate(row):
                acc = dom.add(acc, dom.mul(x, b[t][j]))
            entries.append(acc)
        out.append(tuple(entries))
    return tuple(out)


def _random_scalar(rng, dom):
    """An int or a Fraction that coerce() accepts: F_p and Z_(p) get
    denominators prime to p, and Z gets ints only."""
    num = rng.randint(-12, 12)
    if dom.tag == "Z":
        return num
    dens = [q for q in range(1, 8) if dom.p is None or q % dom.p]
    return Fraction(num, rng.choice(dens)) if rng.random() < 0.6 else num


@pytest.mark.parametrize("dom", [ZZ, QQ, GF(2), GF(5), Z_local(3)], ids=str)
def test_mat_mul_matches_entrywise_domain_arithmetic(dom):
    rng = random.Random(f"mat-mul-{dom}")
    kind = Fraction if dom.tag in ("Q", "Zlocal") else int
    for _ in range(60):
        n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = mat_from_rows(dom, [[_random_scalar(rng, dom) for _ in range(k)] for _ in range(n)])
        b = mat_from_rows(dom, [[_random_scalar(rng, dom) for _ in range(m)] for _ in range(k)])
        got = mat_mul(dom, a, b)
        assert got == _entrywise_product(dom, a, b), (a, b)
        for row in got:
            assert len(row) == m
            for x in row:
                assert type(x) is kind and dom.coerce(x) == x, x
                if dom.tag == "Fp":
                    assert 0 <= x < dom.p, x
