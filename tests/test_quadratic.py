"""Quadratic rings: factorization, divisor maps, class groups."""

import math
import random

import pytest

from invring.quadratic import (
    BoundTooLarge,
    Divisor,
    Ideal,
    NumberRing,
    ZeroElement,
    _abelian_type_from_orders,
    character_obstruction_report,
    class_group,
    divisor_map,
    factor_element,
    integer_divisor,
    is_principal,
    minkowski_bound,
    parse_element,
    primes_above,
    ramification_length,
    valuation,
    verify_div_compatibility,
)

ZI = NumberRing(-1)
ZM5 = NumberRing(-5)
ZM3 = NumberRing(-3)


def test_ring_basis_conventions():
    assert not ZI.half_basis and ZI.discriminant == -4
    assert ZM3.half_basis and ZM3.discriminant == -3
    assert NumberRing(5).half_basis
    with pytest.raises(ValueError):
        NumberRing(4)
    with pytest.raises(ValueError):
        NumberRing(1)


def test_norm_and_mul():
    assert ZI.norm((2, 1)) == 5
    assert ZI.mul((2, 1), (2, -1)) == (5, 0)
    assert ZM3.norm((0, 1)) == 1  # (1+sqrt(-3))/2 is a unit
    assert ZM5.norm((1, 2)) == 21


@pytest.mark.parametrize(
    "q, kinds",
    [
        (2, ["ramified"]),
        (3, ["inert"]),
        (5, ["split", "split"]),
        (13, ["split", "split"]),
        (7, ["inert"]),
    ],
)
def test_primes_above_gauss(q, kinds):
    assert [P.kind for P in primes_above(ZI, q)] == kinds


def test_fundamental_identity():
    for ring in (ZI, ZM5, ZM3, NumberRing(2), NumberRing(5)):
        for q in (2, 3, 5, 7, 11, 13):
            assert sum(P.e * P.f for P in primes_above(ring, q)) == 2


def _scan_tables(q):
    """For t = 0, 1: every residue r mod q filed under (t*r - r^2) mod q, so
    the roots of w^2 - t*w + n mod q are the entry at n mod q."""
    tables = {}
    for t in (0, 1):
        table = {}
        for r in range(q):
            table.setdefault((t * r - r * r) % q, []).append(r)
        tables[t] = table
    return tables


def _jacobi(a, n):
    """Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _squarefree_ds(lo, hi):
    return [
        d
        for d in range(lo, hi + 1)
        if d not in (0, 1) and all(d % (f * f) for f in range(2, math.isqrt(abs(d)) + 1))
    ]


SIX_RINGS = (-1, -3, -5, 2, -101, 13)


def _assert_matches_scan(ring, q, tables):
    roots = tables[ring.trace_w].get(ring.norm_w % q, [])
    kind = {0: "inert", 1: "ramified", 2: "split"}[len(roots)]
    got = [(P.kind, P.root) for P in primes_above(ring, q)]
    assert got == [(kind, r) for r in roots or [None]], (ring.d, q)


def test_primes_above_matches_residue_scan():
    small_rings = [NumberRing(d) for d in _squarefree_ds(-200, 200)]
    six_rings = [NumberRing(d) for d in SIX_RINGS]
    for q in range(2, 3000):
        if any(q % f == 0 for f in range(2, math.isqrt(q) + 1)):
            continue
        tables = _scan_tables(q)
        for ring in small_rings if q < 300 else six_rings:
            _assert_matches_scan(ring, q, tables)


@pytest.mark.parametrize("q", [1_000_000_007, 998_244_353])  # 998244353 = 119 * 2^23 + 1
def test_primes_above_large_primes(q):
    for d in SIX_RINGS:
        ring = NumberRing(d)
        got = primes_above(ring, q)
        disc = ring.trace_w**2 - 4 * ring.norm_w
        kinds = {1: ["split", "split"], 0: ["ramified"], -1: ["inert"]}[_jacobi(disc, q)]
        assert [P.kind for P in got] == kinds, (d, q)
        roots = [P.root for P in got if P.kind != "inert"]
        for r in roots:
            assert 0 <= r < q
            assert (r * r - ring.trace_w * r + ring.norm_w) % q == 0
        assert roots == sorted(set(roots))


def test_factor_element_examples():
    d5 = factor_element(ZI, (5, 0))
    assert sorted((P.q, P.root, c) for P, c in d5.items()) == [(5, 2, 1), (5, 3, 1)]
    d2 = factor_element(ZI, (2, 0))
    ((P, c),) = d2.items()
    assert P.kind == "ramified" and c == 2
    d3 = factor_element(ZI, (3, 0))
    ((P, c),) = d3.items()
    assert P.kind == "inert" and c == 1


def test_factor_zero_raises():
    with pytest.raises(ZeroElement):
        factor_element(ZI, (0, 0))
    with pytest.raises(ZeroElement):
        integer_divisor(0)


def test_norm_multiplicativity_random():
    rng = random.Random(0)
    for ring in (ZI, ZM5):
        for _ in range(200):
            el = (rng.randint(-50, 50), rng.randint(-50, 50))
            if el == (0, 0):
                continue
            div = factor_element(ring, el)
            prod = 1
            for P, c in div.items():
                prod *= P.norm**c
            assert prod == abs(ring.norm(el))


@pytest.mark.parametrize(
    "q, expected_e",
    [(2, [2]), (5, [1, 1]), (3, [1])],
)
def test_ramification_length(q, expected_e):
    assert [ramification_length(ZI, P) for P in primes_above(ZI, q)] == expected_e


def test_divisor_map_examples():
    img5 = divisor_map(ZI, integer_divisor(5))
    assert sorted(c for _, c in img5.items()) == [1, 1]
    img2 = divisor_map(ZI, integer_divisor(2))
    ((P, c),) = img2.items()
    assert c == 2 and P.kind == "ramified"
    assert divisor_map(ZI, Divisor()) == Divisor()


def test_divisor_map_additive():
    d1 = integer_divisor(6)
    d2 = integer_divisor(10)
    lhs = divisor_map(ZI, d1 + d2)
    rhs = divisor_map(ZI, d1) + divisor_map(ZI, d2)
    assert lhs == rhs


def test_div_compatibility_examples():
    assert verify_div_compatibility(ZI, 10)
    assert verify_div_compatibility(ZI, 1)
    assert verify_div_compatibility(ZI, -1)
    assert verify_div_compatibility(ZM5, 21)


def test_div_compatibility_random():
    rng = random.Random(1)
    for ring in (ZI, ZM5):
        for _ in range(200):
            a = rng.randint(1, 10_000) * rng.choice([1, -1])
            assert verify_div_compatibility(ring, a)


def test_valuation_split_prime_separates():
    P1, P2 = primes_above(ZI, 5)
    el = (2, 1)  # norm 5: lies in exactly one of the two primes
    vals = sorted((valuation(ZI, el, P1), valuation(ZI, el, P2)))
    assert vals == [0, 1]


@pytest.mark.parametrize(
    "d, factors",
    [(-1, []), (-3, []), (-5, [2]), (-6, [2]), (-14, [4]), (-23, [3]), (-21, [2, 2])],
)
def test_class_groups(d, factors):
    assert class_group(NumberRing(d)) == factors


def _reduced_form_count(disc: int) -> int:
    """Reduced primitive forms (a, b, c) of a negative discriminant:
    b^2 - 4ac = disc, |b| <= a <= c, and b >= 0 when |b| = a or a = c."""
    count = 0
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (a == c and b < 0):
                continue
            if math.gcd(math.gcd(a, b), c) == 1:
                count += 1
        a += 1
    return count


def _omega(n: int) -> int:
    """Number of distinct primes dividing n."""
    n, k, f = abs(n), 0, 2
    while f * f <= n:
        if n % f == 0:
            k += 1
            while n % f == 0:
                n //= f
        f += 1
    return k + (n > 1)


def test_imaginary_class_groups_match_forms_and_genus_theory():
    # every squarefree -200 <= d < 0: the class number is the number of
    # reduced primitive forms of discriminant disc, and the 2-rank is
    # omega(disc) - 1 (Gauss's genus theory)
    checked = 0
    for d in range(-200, 0):
        if any(d % (f * f) == 0 for f in range(2, 15)):
            continue
        ring = NumberRing(d)
        factors = class_group(ring)
        assert math.prod(factors) == _reduced_form_count(ring.discriminant), d
        assert sum(1 for f in factors if f % 2 == 0) == _omega(ring.discriminant) - 1, d
        checked += 1
    assert checked == 122


def _abelian_types(n: int, top: int) -> list[tuple[int, ...]]:
    """Invariant factors d_1 | d_2 | ... | d_k > 1 with product n and d_k | top."""
    if n == 1:
        return [()]
    return [
        rest + (d,)
        for d in range(2, n + 1)
        if n % d == 0 and top % d == 0
        for rest in _abelian_types(n // d, d)
    ]


def test_abelian_type_from_element_orders():
    # every abelian group of order below 97, rebuilt from its element orders
    checked = 0
    for n in range(1, 97):
        for factors in _abelian_types(n, n):
            orders = [1]
            for d in factors:
                orders = [math.lcm(o, d // math.gcd(x, d)) for o in orders for x in range(d)]
            assert _abelian_type_from_orders(n, orders) == list(factors), factors
            checked += 1
    assert checked == 176


def test_class_group_real_fixture_rings():
    assert class_group(NumberRing(2)) == []
    assert class_group(NumberRing(5)) == []


def test_class_group_bound():
    with pytest.raises(BoundTooLarge):
        class_group(NumberRing(-201))


def test_is_principal_search():
    q2 = Ideal.from_prime(ZM5, primes_above(ZM5, 2)[0])
    assert not is_principal(q2)
    assert is_principal(q2.multiply(q2))
    p5 = Ideal.from_prime(ZI, primes_above(ZI, 5)[0])
    assert is_principal(p5)


def test_minkowski_bound_small_rings():
    assert minkowski_bound(ZI) <= 2
    assert minkowski_bound(ZM5) >= 2


def test_minkowski_bound_integer_formula():
    # (2/pi) sqrt|disc| < (212/333) sqrt|disc| < B, checked in exact integers,
    # and B equals the floating-point cutoff int((2/pi) sqrt|disc|) + 1
    checked = 0
    for d in _squarefree_ds(-800, -1):
        ring = NumberRing(d)
        disc = abs(ring.discriminant)
        if disc > 800:
            continue
        B = minkowski_bound(ring)
        assert B * B * 333**2 > 212**2 * disc, d
        assert B == int((2 / math.pi) * math.sqrt(disc)) + 1, d
        checked += 1
    assert checked == 245


def test_parse_element():
    assert parse_element("5") == (5, 0)
    assert parse_element("1+2*w") == (1, 2)
    assert parse_element("-3*w") == (0, -3)
    assert parse_element("2 - w") == (2, -1)
    # w is the only power of w a term may carry
    for text in ("w*w", "ww", "2*w*w"):
        with pytest.raises(ValueError):
            parse_element(text)


def test_divisor_map_injective_on_coefficients():
    # distinct divisors over Z push forward to distinct divisors: coefficients
    # at the primes above each q separate them
    rng = random.Random(7)
    seen = {}
    for _ in range(50):
        coeffs = {q: rng.randint(-3, 3) for q in (2, 3, 5, 7)}
        D = Divisor(coeffs)
        img = divisor_map(ZM5, D)
        key = tuple(sorted((str(P), c) for P, c in img.items()))
        if key in seen:
            assert seen[key] == D
        seen[key] = D


def test_character_obstruction(monkeypatch):
    import invring.quadratic as quadratic
    from invring.domains import ZZ
    from invring.fixtures import fixture_group
    from invring.groups import enumerate_group

    rot3 = enumerate_group([[[0, -1], [1, -1]]], ZZ)
    rep = character_obstruction_report(rot3, ZI)
    # cyclic of order 3 versus roots of unity of order 4: no character
    assert rep["abelianization_exponent"] == 3
    assert rep["roots_of_unity_order"] == 4
    assert rep["no_nontrivial_character"]
    rep2 = character_obstruction_report(rot3, ZM3)
    # mu has order 6 in the Eisenstein ring: a cube character can exist
    assert not rep2["no_nontrivial_character"]
    # s3 abelianizes to Z/2 and -1 lies in Z[i], so the sign character
    # exists; each element is inverted once
    calls = []
    inverse = quadratic.element_inverse

    def counted(dom, a):
        calls.append(a)
        return inverse(dom, a)

    monkeypatch.setattr(quadratic, "element_inverse", counted)
    s3 = fixture_group("s3")
    rep3 = character_obstruction_report(s3, ZI)
    assert rep3["abelianization_order"] == 2
    assert rep3["abelianization_exponent"] == 2
    assert not rep3["no_nontrivial_character"]
    assert len(calls) == s3.order == 6
