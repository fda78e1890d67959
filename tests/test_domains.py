"""Integer helpers of the coefficient domains: primes, p-adic exponents,
integer forms of rational data, and matrix products; and the frozen records
that @record makes of the value classes of every layer."""

import copy
import dataclasses
import random
from fractions import Fraction
from math import isqrt

import pytest

from invring.cmcert import (
    CMCertificate,
    GorensteinReport,
    SopSearchResult,
    VeroneseAttempt,
    VeroneseSearchReport,
)
from invring.cohomology import CohomologyGroup, CyclicModule, H2ComparisonReport
from invring.domains import (
    GF,
    QQ,
    ZZ,
    CoefficientDomain,
    Z_local,
    integer_form,
    is_prime,
    mat_from_rows,
    mat_mul,
    multiplicity,
    prime_divisors,
)
from invring.groups import MatrixGroup
from invring.invariants import HilbertFunction, StandardGradedReport, TruncatedSubalgebra
from invring.linalg import IntegerMatrix, SmithForm
from invring.poly import GradedPiece, GradedRing
from invring.quadratic import NumberRing, PrimeIdealQ


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


def _least_prime_factors(limit):
    """lpf[n] is the least prime dividing n, for 2 <= n <= limit (a sieve)."""
    lpf = list(range(limit + 1))
    for f in range(2, isqrt(limit) + 1):
        if lpf[f] == f:
            for m in range(f * f, limit + 1, f):
                if lpf[m] == m:
                    lpf[m] = f
    return lpf


def test_prime_divisors_matches_a_sieve():
    limit = 20_000
    lpf = _least_prime_factors(limit)
    for n in range(1, limit + 1):
        expected, m = [], n
        while m > 1:
            expected.append(lpf[m])
            while m % expected[-1] == 0:
                m //= expected[-1]
        assert prime_divisors(n) == expected, n


def test_prime_divisors_of_large_powers_match_a_sieve():
    """Squares, a square times a prime, a cube and a fourth power times a
    prime: the primes are those of a sieve to 10^6 that divide n, and they
    account for all of n."""
    limit = 10**6
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for f in range(2, isqrt(limit) + 1):
        if sieve[f]:
            sieve[f * f :: f] = bytes(len(range(f * f, limit + 1, f)))
    primes = [p for p in range(limit + 1) if sieve[p]]
    for n in (999983**2, 2 * 999983**2, 999983**3, 3 * 10007**4):
        expected = [p for p in primes if n % p == 0]
        rest = n
        for p in expected:
            rest //= p ** multiplicity(n, p)
        assert rest == 1, n
        assert prime_divisors(n) == expected, n


@pytest.mark.parametrize("n", [0, 1, -12])
def test_prime_divisors_below_two_is_empty(n):
    assert prime_divisors(n) == []


@pytest.mark.parametrize("d", [-4, 4, -9, 9, 18, -50])
def test_number_ring_refuses_d_with_a_square_factor(d):
    with pytest.raises(ValueError):
        NumberRing(d)


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


# one valid instance of each record, by its fields in order
_MINUS_ONE = (1, ZZ, (((1,),), ((-1,),)), (((-1,),),))
RECORDS = [
    (CoefficientDomain, ("Fp", 5)),
    (MatrixGroup, _MINUS_ONE),
    (SmithForm, ((1, 2), IntegerMatrix.identity(2), IntegerMatrix([[0, 1], [1, 0]], cols=2))),
    (GradedRing, (2, GF(3))),
    (GradedPiece, (1, ((1, 0), (0, 1)))),
    (TruncatedSubalgebra, (GradedRing(1, ZZ), MatrixGroup(*_MINUS_ONE), 2, 2, (((1,),), ((1,),), ()))),
    (HilbertFunction, ((1, 1, 2),)),
    (StandardGradedReport, (False, 2, 4)),
    (CyclicModule, (ZZ, ((0, -1), (1, -1)), 3)),
    (CohomologyGroup, (1, (2,))),
    (H2ComparisonReport, (True, CohomologyGroup(0, (2,)), CohomologyGroup(0, (2,)))),
    (CMCertificate, (3, (1, 1), ("X", "Y"), 4, "failed", 1, 2, (1, 0))),
    (SopSearchResult, (True, (), 5, 3)),
    (VeroneseAttempt, (2, True, None, {3: CMCertificate(3, (), (), 6, "vacuous")})),
    (VeroneseSearchReport, (1, 12, 6, (), None)),
    (GorensteinReport, (True, (1, 0, 1), "verified only through truncation degree 8")),
    (NumberRing, (-5,)),
    (PrimeIdealQ, (2, "ramified", 1, 2, 1)),
]


def _twin(cls):
    """A frozen dataclass with the fields and defaults of the record cls."""
    fields = [
        (name, object, dataclasses.field(default=cls.__dict__[name]))
        if name in cls.__dict__
        else (name, object)
        for name in cls.__annotations__
    ]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def _hash(x):
    try:
        return hash(x)
    except TypeError as exc:  # a dict field, as in VeroneseAttempt
        return str(exc)


@pytest.mark.parametrize("cls, args", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_behave_as_frozen_dataclasses(cls, args):
    twin = _twin(cls)
    names = list(cls.__annotations__)
    x, t = cls(*args), twin(*args)
    assert repr(x) == repr(t)
    assert _hash(x) == _hash(t)
    assert cls(**dict(zip(names, args))) == x
    # equality within the class only
    assert x == cls(*args) and not x != cls(*args)
    assert x.__eq__(t) is NotImplemented and x != t
    other = CohomologyGroup(0, ()) if cls is not CohomologyGroup else NumberRing(-1)
    assert x.__eq__(other) is NotImplemented and x != other
    # past __init__, so that no __post_init__ check stands in the way
    y = copy.copy(x)
    object.__setattr__(y, names[-1], (args[-1], "altered"))
    assert x != y and y == copy.copy(y)
    # frozen, with the builtin AttributeError
    for name in names:
        with pytest.raises(AttributeError) as assigned:
            setattr(x, name, args[0])
        with pytest.raises(AttributeError) as deleted:
            delattr(x, name)
        assert type(assigned.value) is type(deleted.value) is AttributeError
    assert repr(x) == repr(t)  # and the failed writes changed nothing


def test_record_defaults_fill_the_trailing_fields():
    assert repr(CoefficientDomain("Q")) == repr(_twin(CoefficientDomain)("Q"))
    assert CoefficientDomain("Q") == CoefficientDomain("Q", None) == QQ
    short = (3, (), (), 6, "vacuous")
    assert repr(CMCertificate(*short)) == repr(_twin(CMCertificate)(*short))
    assert CMCertificate(*short) == CMCertificate(*short, None, None, ())


@pytest.mark.parametrize(
    "build",
    [
        lambda: CoefficientDomain("Fp", 4),
        lambda: CoefficientDomain("Z", 3),
        lambda: GradedRing(0, ZZ),
        lambda: NumberRing(4),
        lambda: CyclicModule(ZZ, ((0, 1), (1, 0)), 3),  # sigma^3 = sigma
    ],
    ids=["Fp-4", "Z-with-prime", "no-variables", "d-4", "sigma-order"],
)
def test_record_post_init_checks_still_raise(build):
    with pytest.raises(ValueError):
        build()
