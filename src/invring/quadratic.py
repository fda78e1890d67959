"""Quadratic integer rings: prime ideals, divisors, the pushforward of
divisors along Z -> O_d, and class groups at desk scale.

Elements are pairs (a, b) meaning a + b*w with w = sqrt(d), or (1+sqrt(d))/2
when d = 1 mod 4.  Prime ideals above a rational prime q are classified by
the roots of the minimal polynomial of w mod q: two roots split, one root
ramifies, none stays inert.  For odd q the discriminant decides: zero mod q
ramifies, a non-residue by Euler's criterion stays inert, and a residue
splits with roots (trace_w +- s)/2 for a Tonelli-Shanks square root s, in
O(log^2 q) operations; q = 2 tests its two residues.  Valuations at split
primes use a Hensel lift of the root to precision beyond the norm
valuation, so everything stays exact.

Class groups enumerate ideals up to the Minkowski bound and test
principality against the least norm of a nonzero element of the ideal:
for imaginary d that minimum comes from Lagrange-Gauss reduction of the
ideal's lattice basis; for real d a norm-form search relies on a
fundamental-unit fixture to bound the search box.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .domains import is_prime, mat_mul, prime_divisors
from .groups import element_inverse, enumerate_group
from .linalg import lattice_canonical, lattice_member


class ZeroElement(Exception):
    """Divisors of zero are undefined."""


class BoundTooLarge(Exception):
    """The ring is outside the desk-scale window for exact enumeration."""


# fundamental units (a, b) in the (1, w) basis for the shipped real rings
_REAL_UNIT_FIXTURES: dict[int, tuple[int, int]] = {
    2: (1, 1),  # 1 + sqrt(2)
    3: (2, 1),  # 2 + sqrt(3)
    5: (0, 1),  # (1 + sqrt(5)) / 2
    13: (1, 1),  # (3 + sqrt(13)) / 2
}

_DESK_D_LIMIT = 200


def _squarefree(n: int) -> bool:
    n = abs(n)
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


@dataclass(frozen=True)
class NumberRing:
    """Ring of integers of Q(sqrt(d)) for squarefree d."""

    d: int

    def __post_init__(self):
        if self.d in (0, 1) or not _squarefree(self.d):
            raise ValueError("d must be squarefree and different from 0, 1")

    @property
    def half_basis(self) -> bool:
        return self.d % 4 == 1

    @property
    def discriminant(self) -> int:
        return self.d if self.half_basis else 4 * self.d

    # minimal polynomial of w: w^2 - trace_w * w + norm_w
    @property
    def trace_w(self) -> int:
        return 1 if self.half_basis else 0

    @property
    def norm_w(self) -> int:
        return (1 - self.d) // 4 if self.half_basis else -self.d

    def conj(self, el: tuple[int, int]) -> tuple[int, int]:
        a, b = el
        return (a + self.trace_w * b, -b)

    def norm(self, el: tuple[int, int]) -> int:
        a, b = el
        return a * a + self.trace_w * a * b + self.norm_w * b * b

    def mul(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        a, b = x
        c, e = y
        # w^2 = trace_w * w - norm_w
        return (a * c - self.norm_w * b * e, a * e + b * c + self.trace_w * b * e)

    def element_str(self, el: tuple[int, int]) -> str:
        a, b = el
        if b == 0:
            return str(a)
        wpart = "w" if abs(b) == 1 else f"{abs(b)}*w"
        if a == 0:
            return wpart if b > 0 else f"-{wpart}"
        return f"{a} {'+' if b > 0 else '-'} {wpart}"

    def roots_of_unity_order(self) -> int:
        if self.d == -1:
            return 4
        if self.d == -3:
            return 6
        return 2

    def __str__(self):
        w = "(1+sqrt(d))/2" if self.half_basis else "sqrt(d)"
        return f"Z[{w}] with d={self.d}"


# one term of "a + b*w": a signed integer, or an optional integer
# coefficient (with or without "*") times a single w
_TERM = re.compile(r"([+-]?)(?:(\d+)(\*?w)?|(w))")


def parse_element(text: str) -> tuple[int, int]:
    """Parse "a + b*w" style element text into coordinates."""
    t = text.replace(" ", "")
    if not t:
        raise ValueError("empty element")
    a = b = 0
    pos = 0
    while pos < len(t):
        m = _TERM.match(t, pos)
        if m is None or (pos and not m.group(1)):
            raise ValueError(
                f"cannot parse element {text!r}: each term is an integer or an integer times w"
            )
        sign = -1 if m.group(1) == "-" else 1
        digits, times_w, bare_w = m.group(2, 3, 4)
        if bare_w:
            b += sign
        elif times_w:
            b += sign * int(digits)
        else:
            a += sign * int(digits)
        pos = m.end()
    return (a, b)


@dataclass(frozen=True)
class PrimeIdealQ:
    """A prime of the quadratic ring in two-generator form."""

    q: int
    kind: str  # "split" | "ramified" | "inert"
    root: int | None  # w = root mod the prime, None when inert
    e: int
    f: int

    @property
    def norm(self) -> int:
        return self.q**self.f

    def label(self) -> str:
        if self.kind == "inert":
            return f"({self.q})"
        return f"({self.q}, w - {self.root})"

    def __str__(self):
        return self.label()


def _sqrt_mod(a: int, q: int) -> int:
    """A square root of a quadratic residue a != 0 modulo an odd prime q.

    Tonelli-Shanks (Cohen, GTM 138, Algorithm 1.5.1); for q = 3 mod 4 the
    root is a^((q+1)/4) directly.
    """
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    s, t = 0, q - 1  # q - 1 = 2^s * t with t odd
    while t % 2 == 0:
        s, t = s + 1, t // 2
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
    # invariant: x^2 = a * b and b has order dividing 2^(m-1), c of order 2^m
    m, c, x, b = s, pow(z, t, q), pow(a, (t + 1) // 2, q), pow(a, t, q)
    while b != 1:
        i, b2 = 0, b
        while b2 != 1:
            b2, i = b2 * b2 % q, i + 1
        g = pow(c, 1 << (m - i - 1), q)
        x, c = x * g % q, g * g % q
        b, m = b * c % q, i
    return x


def primes_above(ring: NumberRing, q: int) -> list[PrimeIdealQ]:
    """The primes above a rational prime q, classified by roots of the
    minimal polynomial of w mod q."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    t, n = ring.trace_w, ring.norm_w
    if q == 2:
        roots = [r for r in (0, 1) if (r * r - t * r + n) % 2 == 0]
    else:
        disc = (t * t - 4 * n) % q
        half = (q + 1) // 2  # the inverse of 2 mod q
        if disc == 0:
            roots = [t * half % q]
        elif pow(disc, (q - 1) // 2, q) != 1:  # Euler's criterion
            roots = []
        else:
            s = _sqrt_mod(disc, q)
            roots = sorted([(t + s) * half % q, (t - s) * half % q])
    if len(roots) == 2:
        return [PrimeIdealQ(q=q, kind="split", root=r, e=1, f=1) for r in roots]
    if len(roots) == 1:
        return [PrimeIdealQ(q=q, kind="ramified", root=roots[0], e=2, f=1)]
    return [PrimeIdealQ(q=q, kind="inert", root=None, e=1, f=2)]


def _v_int(n: int, q: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def _hensel_lift_root(ring: NumberRing, q: int, root: int, precision: int) -> int:
    """Lift a simple root of the minimal polynomial of w to mod q^precision."""
    r = root
    mod = q
    while mod < q**precision:
        mod = min(mod * mod, q**precision)
        deriv = (2 * r - ring.trace_w) % mod
        val = (r * r - ring.trace_w * r + ring.norm_w) % mod
        r = (r - val * pow(deriv, -1, mod)) % mod
    return r


def valuation(ring: NumberRing, el: tuple[int, int], P: PrimeIdealQ) -> int:
    """Exact valuation of a nonzero element at the prime P."""
    if el == (0, 0):
        raise ZeroElement("valuation of zero")
    a, b = el
    q = P.q
    n = abs(ring.norm(el))
    if P.kind == "inert":
        return min(_v_int(a, q) if a else 10**9, _v_int(b, q) if b else 10**9)
    if P.kind == "ramified":
        return _v_int(n, q)
    # split: valuation through the q-adic embedding w -> lifted root
    prec = _v_int(n, q) + 1
    r = _hensel_lift_root(ring, q, P.root, prec)
    x = (a + b * r) % (q**prec)
    if x == 0:
        raise RuntimeError("split valuation exceeded its precision bound")
    return _v_int(x, q)


class Divisor:
    """Finite formal Z-combination of primes; zero coefficients are dropped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}

    def __add__(self, other: "Divisor") -> "Divisor":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return Divisor(out)

    def scale(self, c: int) -> "Divisor":
        return Divisor({k: c * v for k, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Divisor) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self):
        return sorted(
            self.coeffs.items(),
            key=lambda kv: (kv[0].q, kv[0].root if kv[0].root is not None else -1)
            if isinstance(kv[0], PrimeIdealQ)
            else (kv[0], -1),
        )

    def __str__(self):
        if self.is_zero():
            return "0"
        return " + ".join(
            (f"{v}*{k}" if v != 1 else str(k)) for k, v in self.items()
        )


def factor_element(ring: NumberRing, el: tuple[int, int]) -> Divisor:
    """Divisor of a nonzero element: sum of v_P(el) * P over primes P.

    The product of norm(P)^coefficient equals |Norm(el)|, which is asserted.
    """
    if el == (0, 0):
        raise ZeroElement("cannot factor zero")
    n = abs(ring.norm(el))
    coeffs: dict[PrimeIdealQ, int] = {}
    check = 1
    for q in prime_divisors(n):
        for P in primes_above(ring, q):
            v = valuation(ring, el, P)
            if v:
                coeffs[P] = v
                check *= P.norm**v
    if check != n:
        raise RuntimeError("norm bookkeeping failed in factorization")
    return Divisor(coeffs)


def integer_divisor(a: int) -> Divisor:
    """Divisor of a nonzero rational integer over Z: primes are ints q."""
    if a == 0:
        raise ZeroElement("cannot factor zero")
    return Divisor({q: _v_int(abs(a), q) for q in prime_divisors(abs(a))})


def ramification_length(ring: NumberRing, P: PrimeIdealQ) -> int:
    """Length of O_P / q O_P for q = P cap Z, computed as v_P(q)."""
    return valuation(ring, (P.q, 0), P)


def divisor_map(ring: NumberRing, D: Divisor) -> Divisor:
    """Pushforward of a divisor over Z: each prime q maps to
    sum of e(P) * P over the primes P above q, extended linearly."""
    out = Divisor()
    for q, c in D.coeffs.items():
        for P in primes_above(ring, q):
            out = out + Divisor({P: c * ramification_length(ring, P)})
    return out


def verify_div_compatibility(ring: NumberRing, a: int) -> bool:
    """Both routes to the divisor of a rational integer agree:
    factor over Z then push forward, versus factor directly in the ring."""
    if a == 0:
        raise ZeroElement("zero has no divisor")
    lhs = divisor_map(ring, integer_divisor(a))
    rhs = factor_element(ring, (a, 0))
    return lhs == rhs


# ---------------------------------------------------------------------------
# ideals as rank-2 lattices in the (1, w) basis


class Ideal:
    """Nonzero integral ideal, stored as a canonical 2x2 HNF lattice basis."""

    __slots__ = ("ring", "basis")

    def __init__(self, ring: NumberRing, rows):
        self.ring = ring
        canon = lattice_canonical(rows, 2)
        if len(canon) != 2:
            raise ValueError("ideal lattice must have full rank")
        self.basis = canon

    @staticmethod
    def from_generators(ring: NumberRing, gens) -> "Ideal":
        rows = []
        for g in gens:
            rows.append(list(g))
            rows.append(list(ring.mul(g, (0, 1))))
        return Ideal(ring, rows)

    @staticmethod
    def unit_ideal(ring: NumberRing) -> "Ideal":
        return Ideal(ring, [[1, 0], [0, 1]])

    @staticmethod
    def from_prime(ring: NumberRing, P: PrimeIdealQ) -> "Ideal":
        if P.kind == "inert":
            return Ideal.from_generators(ring, [(P.q, 0)])
        return Ideal.from_generators(ring, [(P.q, 0), (-P.root, 1)])

    @property
    def norm(self) -> int:
        return abs(self.basis[0][0] * self.basis[1][1])

    def is_closed(self) -> bool:
        """A sublattice is an ideal iff it is stable under multiplication by w."""
        for row in self.basis:
            img = self.ring.mul((row[0], row[1]), (0, 1))
            if not lattice_member(self.basis, list(img)):
                return False
        return True

    def multiply(self, other: "Ideal") -> "Ideal":
        rows = []
        for r1 in self.basis:
            for r2 in other.basis:
                rows.append(list(self.ring.mul((r1[0], r1[1]), (r2[0], r2[1]))))
        return Ideal(self.ring, rows)

    def conjugate(self) -> "Ideal":
        return Ideal(self.ring, [list(self.ring.conj((r[0], r[1]))) for r in self.basis])

    def contains(self, el: tuple[int, int]) -> bool:
        return lattice_member(self.basis, list(el))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ideal)
            and self.ring == other.ring
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ring.d, self.basis))


def _norm_form_solutions(ring: NumberRing, target: int) -> list[tuple[int, int]]:
    """All elements with |norm| equal to target, for real d, bounded through
    the fundamental-unit fixture."""
    unit = _REAL_UNIT_FIXTURES.get(ring.d)
    if unit is None:
        raise BoundTooLarge(
            f"no fundamental-unit fixture for real d={ring.d}; principality"
            " search is not bounded"
        )
    # any generator can be unit-shifted into |a|, |b| <= sqrt(N * eps) + slack
    eps = abs(unit[0] + unit[1] * (1 + math.sqrt(ring.d)) / 2) if ring.half_basis else abs(
        unit[0] + unit[1] * math.sqrt(ring.d)
    )
    box = math.isqrt(int(target * eps)) + 2
    sols = []
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            if abs(ring.norm((a, b))) == target:
                sols.append((a, b))
    return sorted(set(sols))


def _least_norm(I: Ideal) -> int:
    """Least norm of a nonzero element of I, for imaginary d.

    Lagrange-Gauss reduction of the basis under the positive definite norm
    form, in integers: at the end u is a shortest vector (Cohen, GTM 138,
    ch. 5).
    """
    ring = I.ring
    u, v = I.basis
    if ring.norm(u) > ring.norm(v):
        u, v = v, u
    while True:
        nu = ring.norm(u)
        # twice the bilinear form: N(u + v) - N(u) - N(v)
        b2 = ring.norm((u[0] + v[0], u[1] + v[1])) - nu - ring.norm(v)
        q = (b2 + nu) // (2 * nu)  # nearest integer to b2 / (2 nu)
        v = (v[0] - q * u[0], v[1] - q * u[1])
        if ring.norm(v) >= nu:
            return nu
        u, v = v, u


def is_principal(I: Ideal) -> bool:
    """A nonzero element of I has norm divisible by N(I), with equality
    exactly for a generator; imaginary d reads the least norm from a
    reduced basis, real d searches the norm form."""
    n = I.norm
    if I.ring.d < 0:
        return _least_norm(I) == n
    if n == 1:
        return True
    for el in _norm_form_solutions(I.ring, n):
        if I.contains(el):
            return True
    return False


def minkowski_bound(ring: NumberRing) -> int:
    """Integer cutoff covering the Minkowski bound (safe to overshoot).

    For d < 0 the bound (2/pi) sqrt|disc| is below (212/333) sqrt|disc|
    since pi > 333/106, and isqrt of the floor plus one exceeds that.
    """
    disc = abs(ring.discriminant)
    if ring.d < 0:
        return math.isqrt(212**2 * disc // 333**2) + 1
    return math.isqrt(disc) // 2 + 1


def _ideals_of_norm(ring: NumberRing, m: int) -> list[Ideal]:
    out = []
    for a in range(1, m + 1):
        if m % a:
            continue
        c = m // a
        for b in range(0, c):  # HNF reduces the entry above the second pivot mod c
            cand = Ideal(ring, [[a, b], [0, c]])
            if cand.basis == ((a, b), (0, c)) and cand.is_closed():
                out.append(cand)
    return out


def _equivalent(I: Ideal, J: Ideal) -> bool:
    """Same ideal class iff I * conj(J) is principal (J conj(J) is (norm J))."""
    return is_principal(I.multiply(J.conjugate()))


def _abelian_type_from_orders(h: int, orders: list[int]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of an abelian group of order h,
    read from its element orders.

    For a prime l dividing h, #{x : x^(l^k) = 1} = l^(r_1 + ... + r_k),
    where r_k counts the invariant factors divisible by l^k.  The i-th
    largest factor then carries l to the power #{k : r_k >= i}.
    """
    ranks = {}
    for ell in prime_divisors(h):
        r = []
        total = 0
        while True:
            killed = sum(1 for o in orders if ell ** (len(r) + 1) % o == 0)
            s = 0
            while killed % ell == 0:
                killed //= ell
                s += 1
            if s == total:
                break
            r.append(s - total)
            total = s
        ranks[ell] = r
    largest_first = [
        math.prod(ell ** sum(1 for rk in r if rk >= i) for ell, r in ranks.items())
        for i in range(1, max((r[0] for r in ranks.values() if r), default=0) + 1)
    ]
    if math.prod(largest_first) != h:
        raise RuntimeError("could not identify the abelian group type")
    return largest_first[::-1]


def class_group(ring: NumberRing) -> list[int]:
    """Invariant factors of the ideal class group (empty list = trivial).

    Every class contains an ideal of norm at most the Minkowski bound, so
    enumerating those ideals and separating them by pairwise equivalence
    yields the full group; the structure is read off the element orders of
    the multiplication table.
    """
    if abs(ring.d) > _DESK_D_LIMIT:
        raise BoundTooLarge(f"|d| = {abs(ring.d)} exceeds the desk-scale limit")
    bound = minkowski_bound(ring)
    ideals = [Ideal.unit_ideal(ring)]
    for m in range(2, bound + 1):
        ideals.extend(_ideals_of_norm(ring, m))
    reps: list[Ideal] = []
    for I in ideals:
        if not any(_equivalent(I, J) for J in reps):
            reps.append(I)
    h = len(reps)
    if h == 1:
        return []
    orders = []
    for i in range(h):
        power = reps[i]
        k = 1
        while not is_principal(power):
            power = power.multiply(reps[i])
            k += 1
            if k > h:
                raise RuntimeError("element order exceeded the group order")
        orders.append(k)
    return _abelian_type_from_orders(h, orders)


def character_obstruction_report(G, ring: NumberRing) -> dict:
    """Advisory check that no nontrivial homomorphism G -> K* can exist:
    the abelianization exponent must be coprime to the roots of unity in K."""
    dom = G.coeff
    inverse = {a: element_inverse(dom, a) for a in G.elements}
    commutators = {
        mat_mul(dom, mat_mul(dom, a, b), mat_mul(dom, inverse[a], inverse[b]))
        for a in G.elements
        for b in G.elements
    }
    derived = set(enumerate_group(list(commutators), dom, n=G.n, bound=G.order).elements)
    ab_order = G.order // len(derived)
    # exponent of the abelianization: lcm of coset orders
    exponent = 1
    for g in G.elements:
        k = 1
        power = g
        while power not in derived:
            power = mat_mul(dom, power, g)
            k += 1
        exponent = exponent * k // math.gcd(exponent, k)
    mu = ring.roots_of_unity_order()
    return {
        "abelianization_order": ab_order,
        "abelianization_exponent": exponent,
        "roots_of_unity_order": mu,
        "no_nontrivial_character": math.gcd(exponent, mu) == 1,
    }
