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
    _class_group_from_ideals,
    _compose,
    _equivalent,
    _ideals_of_norm,
    _REAL_UNIT_FIXTURES,
    _reduce,
    _reduced_forms,
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



def test_divisor_text():
    # the README's factorisation of 21 in Z[sqrt(-5)]; an inert prime prints as (q)
    assert str(Divisor()) == "0"
    assert str(factor_element(NumberRing(-5), (21, 0))) == (
        "(3, w - 1) + (3, w - 2) + (7, w - 3) + (7, w - 4)"
    )
    assert str(factor_element(NumberRing(-1), (3, 0))) == "(3)"
    assert str(factor_element(NumberRing(-1), (2, 0))) == "2*(2, w - 1)"

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
    assert [ramification_length(P) for P in primes_above(ZI, q)] == expected_e


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


def _lattice_valuation(ring, el, P):
    """The largest k with el in P^k, by lattice membership in powers of P."""
    prime = Ideal.from_prime(ring, P)
    power, k = prime, 0
    while power.contains(el):
        power, k = power.multiply(prime), k + 1
    return k


def test_valuation_matches_lattice_membership():
    """Every squarefree |d| <= 60, q <= 13 and P above q, on seeded elements
    q^i * (w - root)^j * x, so that split primes see high valuations at P
    and at its conjugate."""
    rng = random.Random(7)
    for d in _squarefree_ds(-60, 60):
        ring = NumberRing(d)
        for q in (2, 3, 5, 7, 11, 13):
            for P in primes_above(ring, q):
                for _ in range(6):
                    el = (0, 0)
                    while el == (0, 0):
                        el = (rng.randint(-30, 30), rng.randint(-30, 30))
                    el = (el[0] * q ** rng.randint(0, 2), el[1] * q ** rng.randint(0, 2))
                    for _ in range(rng.randint(0, 3)):
                        el = ring.mul(el, (-(P.root or 0), 1))
                    assert valuation(ring, el, P) == _lattice_valuation(ring, el, P), (d, P, el)


def test_ramification_index_is_the_valuation_of_q():
    """ramification_length reads P.e from the splitting type; factor_element
    reaches v_P(q) through valuation.  The two routes agree."""
    for d in _squarefree_ds(-60, 60):
        ring = NumberRing(d)
        for q in (2, 3, 5, 7, 11, 13):
            for P in primes_above(ring, q):
                assert valuation(ring, (q, 0), P) == P.e == ramification_length(P), (d, P)


def test_number_ring_accepts_exactly_the_squarefree_d():
    accepted = []
    for d in range(-2000, 2001):
        try:
            NumberRing(d)
        except ValueError:
            continue
        accepted.append(d)
    assert accepted == _squarefree_ds(-2000, 2000)


@pytest.mark.parametrize(
    "d, factors",
    [
        (-1, []),
        (-3, []),
        (-5, [2]),
        (-6, [2]),
        (-14, [4]),
        (-23, [3]),
        (-21, [2, 2]),
        # tabulated class numbers of Q(sqrt(d)), d = -47, -71, -105
        (-47, [5]),
        (-71, [7]),
        (-105, [2, 2, 2]),
    ],
)
def test_class_groups(d, factors):
    assert class_group(NumberRing(d)) == factors


def _kronecker(D: int, n: int) -> int:
    """The Kronecker symbol (D/n) for n >= 1: (D/2) is 0 for even D, 1
    for D = +-1 mod 8 and -1 for D = +-3 mod 8; the odd part of n is the
    Jacobi symbol, by quadratic reciprocity."""
    out = 1
    while n % 2 == 0:
        n //= 2
        out *= 0 if D % 2 == 0 else 1 if D % 8 in (1, 7) else -1
    a = D % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _dirichlet_class_number(D: int) -> int:
    """h(D) = -(1/|D|) sum_{n=1}^{|D|-1} (D/n) n, Dirichlet's class number
    formula for a fundamental discriminant D < -4."""
    h, rest = divmod(-sum(_kronecker(D, n) * n for n in range(1, -D)), -D)
    assert rest == 0, D
    return h


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


def test_imaginary_class_groups_match_dirichlet_and_genus_theory():
    # every squarefree -200 <= d < 0: the class number is Dirichlet's
    # (1 for disc = -3, -4, whose rings have more than two units), and the
    # 2-rank is omega(disc) - 1 (Gauss's genus theory)
    checked = 0
    for d in range(-200, 0):
        if any(d % (f * f) == 0 for f in range(2, 15)):
            continue
        ring = NumberRing(d)
        factors = class_group(ring)
        disc = ring.discriminant
        h = _dirichlet_class_number(disc) if disc < -4 else 1
        assert math.prod(factors) == h, d
        assert sum(1 for f in factors if f % 2 == 0) == _omega(disc) - 1, d
        checked += 1
    assert checked == 122


IMAGINARY_DS = _squarefree_ds(-200, -1)


def test_class_group_matches_the_ideal_path():
    # the reduced forms and the Minkowski enumeration of ideals are two
    # independent routes to the class group of every imaginary ring
    assert len(IMAGINARY_DS) == 122
    for d in IMAGINARY_DS:
        ring = NumberRing(d)
        assert class_group(ring) == _class_group_from_ideals(ring), d


def _is_reduced(form):
    a, b, c = form
    return abs(b) <= a <= c and (b >= 0 or (-b != a and a != c))


def _form_ideal(ring, form):
    """The ideal aZ + (-b + sqrt(D))/2 Z of the form (a, b, c), in the (1, w) basis."""
    a, b, _ = form
    ideal = Ideal(ring, [[a, 0], [(-b - ring.trace_w) // 2, 1]])
    assert ideal.is_closed() and ideal.norm == a
    return ideal


def test_reduce_returns_reduced_forms_of_the_same_class():
    # every normalised form -a < b <= a with a <= 30, on every imaginary
    # ring; the ideal class is compared on the first few rings
    for d in IMAGINARY_DS:
        ring = NumberRing(d)
        D = ring.discriminant
        for a in range(1, 31):
            for b in range(1 - a, a + 1):
                if (b * b - D) % (4 * a):
                    continue
                form = _reduce(a, b, D)
                assert _is_reduced(form) and form[1] ** 2 - 4 * form[0] * form[2] == D
                assert _reduce(form[0], form[1], D) == form
                if d >= -30:
                    start = (a, b, (b * b - D) // (4 * a))
                    assert _equivalent(_form_ideal(ring, start), _form_ideal(ring, form))


@pytest.mark.parametrize("d, factors", [(-105, [2, 2, 2]), (-101, [14])])
def test_composition_is_the_class_group_law(d, factors):
    # D = -420 and -404: composition of reduced forms is the group law of
    # the ideal classes, with the principal form as identity
    ring = NumberRing(d)
    forms = _reduced_forms(ring.discriminant)
    assert math.prod(factors) == len(forms) and class_group(ring) == factors
    one = forms[0]
    assert one[0] == 1 and all(map(_is_reduced, forms))
    for f in forms:
        a, b, c = f
        assert _compose(one, f) == _compose(f, one) == f
        assert _compose(f, (a, -b, c)) == one
        for g in forms:
            fg = _compose(f, g)
            assert fg in forms and fg == _compose(g, f)
            product = _form_ideal(ring, f).multiply(_form_ideal(ring, g))
            assert _equivalent(_form_ideal(ring, fg), product)
            for k in forms:
                assert _compose(fg, k) == _compose(f, _compose(g, k))


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
    # h(10) = h(15) = 2, tabulated values
    assert class_group(NumberRing(10)) == [2]
    assert class_group(NumberRing(15)) == [2]


def test_class_group_bound():
    with pytest.raises(BoundTooLarge):
        class_group(NumberRing(-201))


def test_is_principal_search():
    q2 = Ideal.from_prime(ZM5, primes_above(ZM5, 2)[0])
    assert not is_principal(q2)
    assert is_principal(q2.multiply(q2))
    p5 = Ideal.from_prime(ZI, primes_above(ZI, 5)[0])
    assert is_principal(p5)
    # real d: x^2 - 10 y^2 = +-2 has no solution mod 5, where +-2 is no
    # square, so the prime above 2 in Z[sqrt(10)] is not principal; its
    # square is (2)
    r2 = Ideal.from_prime(NumberRing(10), primes_above(NumberRing(10), 2)[0])
    assert r2.norm == 2 and not is_principal(r2)
    assert is_principal(r2.multiply(r2))


REAL_FIXTURE_DS = (2, 3, 5, 10, 13, 15)


def _square_scan_is_principal(I):
    """Principality by the norm of every point of the square
    |x|, |y| <= isqrt(4 N E) + 1, with E = u0 + u1 (isqrt(d) + 1) from the
    fixture unit (u0, u1): a generator has an associate inside it."""
    ring, n = I.ring, I.norm
    u0, u1 = _REAL_UNIT_FIXTURES[ring.d]
    box = math.isqrt(4 * n * (u0 + u1 * (math.isqrt(ring.d) + 1))) + 1
    return any(
        abs(ring.norm((x, y))) == n and I.contains((x, y))
        for x in range(-box, box + 1)
        for y in range(-box, box + 1)
    )


def test_real_is_principal_matches_the_square_scan():
    # every ideal of norm below 50 in the six real fixture rings, the unit
    # ideal included
    checked = principal = 0
    for d in REAL_FIXTURE_DS:
        ring = NumberRing(d)
        for m in range(1, 50):
            for I in _ideals_of_norm(ring, m):
                got = is_principal(I)
                assert got == _square_scan_is_principal(I), (d, I.basis)
                checked += 1
                principal += got
    assert (checked, principal) == (236, 181)


def test_real_generators_of_negative_norm():
    # every unit of Z[sqrt(3)] has norm 1, so every generator of the prime
    # above 3, such as sqrt(3), has norm -3
    ring = NumberRing(3)
    (P,) = primes_above(ring, 3)
    I = Ideal.from_prime(ring, P)
    assert I.basis == Ideal.from_generators(ring, [(0, 1)]).basis and is_principal(I)
    assert _REAL_UNIT_FIXTURES[3] == (2, 1) and ring.norm((2, 1)) == 1


@pytest.mark.parametrize(
    "d, unit",
    [
        (65, (7, 2)),  # 8 + sqrt(65), norm -1
        (85, (4, 1)),  # (9 + sqrt(85)) / 2, norm -1
    ],
)
def test_real_class_group_with_a_half_basis_and_a_unit_of_norm_minus_one(
    monkeypatch, d, unit
):
    # tabulated h(65) = h(85) = 2; the bound on y needs only some unit > 1
    ring = NumberRing(d)
    assert ring.half_basis and ring.norm(unit) == -1
    # the unit ideal needs no fixture
    assert is_principal(Ideal.unit_ideal(ring))
    with pytest.raises(BoundTooLarge):
        class_group(ring)
    monkeypatch.setitem(_REAL_UNIT_FIXTURES, d, unit)
    assert class_group(ring) == [2]


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
