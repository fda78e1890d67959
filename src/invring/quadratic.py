"""Quadratic integer rings: prime ideals, divisors, the pushforward of
divisors along Z -> O_d, and class groups at desk scale.

Elements are pairs (a, b) meaning a + b*w with w = sqrt(d), or (1+sqrt(d))/2
when d = 1 mod 4.  Prime ideals above a rational prime q are classified by
the roots of the minimal polynomial of w mod q: two roots split, one root
ramifies, none stays inert.  For odd q the discriminant decides: zero mod q
ramifies, a non-residue by Euler's criterion stays inert, and a residue
splits with roots (trace_w +- s)/2 for a Tonelli-Shanks square root s, in
O(log^2 q) operations; q = 2 tests its two residues.  Valuations are read
from the exponent of q in the coordinates and in the norm: at a split
prime, an element with coprime-to-q content lies in at most one of the two
conjugate primes, which then carries the whole q-part of its norm.  The q
are the primes of the norm; the norm a^2 of a rational integer a costs the
trial division of |a|, as prime_divisors takes the root of a square.

Class groups of imaginary d come from the reduced binary quadratic forms
of discriminant D, one per class, with Gauss/Dirichlet composition
followed by reduction as the group law.  Real d enumerates the ideals up
to the Minkowski bound and separates them by principality, decided by
solving the norm form for x at each y, with y bounded through a
fundamental-unit fixture.  Principality of an imaginary ideal compares its
norm with the least norm of a nonzero element, from Lagrange-Gauss
reduction of its lattice basis; the ideal enumeration also serves as an
independent reference for the forms in the tests.
"""

from __future__ import annotations

import math
import re

from .domains import is_prime, multiplicity, prime_divisors, record
from .linalg import lattice_canonical, lattice_member


class ZeroElement(ValueError):
    """Divisors of zero are undefined."""


class BoundTooLarge(ValueError):
    """The ring is outside the desk-scale window for exact enumeration."""


# fundamental units (a, b) in the (1, w) basis for the shipped real rings
_REAL_UNIT_FIXTURES: dict[int, tuple[int, int]] = {
    2: (1, 1),  # 1 + sqrt(2)
    3: (2, 1),  # 2 + sqrt(3)
    5: (0, 1),  # (1 + sqrt(5)) / 2
    10: (3, 1),  # 3 + sqrt(10)
    13: (1, 1),  # (3 + sqrt(13)) / 2
    15: (4, 1),  # 4 + sqrt(15)
}

_DESK_D_LIMIT = 200


@record
class NumberRing:
    """Ring of integers of Q(sqrt(d)) for squarefree d."""

    d: int

    def __post_init__(self):
        d = self.d
        if d in (0, 1) or any(multiplicity(d, q) > 1 for q in prime_divisors(abs(d))):
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


@record
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

    def __str__(self):
        if self.kind == "inert":
            return f"({self.q})"
        return f"({self.q}, w - {self.root})"


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


def valuation(ring: NumberRing, el: tuple[int, int], P: PrimeIdealQ) -> int:
    """Exact valuation of a nonzero element at the prime P.

    Write el = q^k * y with q^k the largest power of q dividing both
    coordinates.  An inert P is qO, so v = k; a ramified P has P^2 = qO
    and norm q, so v = v_q(N(el)).  A split P and its conjugate meet in qO,
    which does not contain y, so y lies in at most one of them: v = k plus
    v_q(N(y)) when y is in P, that is y_0 + y_1 * root = 0 mod q, else k.
    """
    if el == (0, 0):
        raise ZeroElement("valuation of zero")
    q = P.q
    if P.kind == "ramified":
        return multiplicity(ring.norm(el), q)
    k = min(multiplicity(x, q) for x in el if x)
    if P.kind == "inert":
        return k
    y = (el[0] // q**k, el[1] // q**k)
    if (y[0] + y[1] * P.root) % q:
        return k
    return k + multiplicity(ring.norm(y), q)


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

    def __eq__(self, other) -> bool:
        return isinstance(other, Divisor) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def items(self):
        return sorted(
            self.coeffs.items(),
            key=lambda kv: (kv[0].q, kv[0].root if kv[0].root is not None else -1)
            if isinstance(kv[0], PrimeIdealQ)
            else (kv[0], -1),
        )

    def __str__(self):
        if not self.coeffs:
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
    return Divisor({q: multiplicity(a, q) for q in prime_divisors(abs(a))})


def ramification_length(P: PrimeIdealQ) -> int:
    """Length of O_P / q O_P for q = P cap Z: the index e that primes_above
    assigns from the splitting type, which equals v_P(q)."""
    return P.e


def divisor_map(ring: NumberRing, D: Divisor) -> Divisor:
    """Pushforward of a divisor over Z: each prime q maps to
    sum of e(P) * P over the primes P above q, extended linearly; distinct q
    have disjoint primes above them, so no two terms share a prime."""
    return Divisor(
        {P: c * ramification_length(P) for q, c in D.coeffs.items() for P in primes_above(ring, q)}
    )


def verify_div_compatibility(ring: NumberRing, a: int) -> bool:
    """Both routes to the divisor of a rational integer agree:
    factor over Z then push forward, versus factor directly in the ring,
    whose norm a^2 costs the trial division of |a|, as the route over Z."""
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
    reduced basis, real d solves the norm form for x at each y.

    For real d, multiplying a by the fixture unit eps > 1 scales |a/a'| by
    eps^2, so a generator has an associate with |a|, |a'| <= sqrt(N eps).
    Its w-coordinate, (a - a')/(2 sqrt(d)) for w = sqrt(d) or
    (a - a')/sqrt(d) with d >= 5, is then at most 2 sqrt(N eps), and y >= 0
    is enough since -a is an associate too.  The fixture (u0, u1) has
    u0, u1 >= 0, so eps <= E = u0 + u1 (isqrt(d) + 1), and isqrt(4 N E) + 1
    bounds y.  For each y, x^2 + t x y + n_w y^2 = +-N has the roots
    x = (-t y +- s)/2 with s^2 = D y^2 +- 4N; since D = t^2 (mod 4),
    s = t y (mod 2) and the numerator is even.
    """
    n = I.norm
    ring = I.ring
    if ring.d < 0:
        return _least_norm(I) == n
    if n == 1:
        return True
    unit = _REAL_UNIT_FIXTURES.get(ring.d)
    if unit is None:
        raise BoundTooLarge(
            f"no fundamental-unit fixture for real d={ring.d}; principality"
            " search is not bounded"
        )
    E = unit[0] + unit[1] * (math.isqrt(ring.d) + 1)
    for y in range(math.isqrt(4 * n * E) + 2):
        for target in (n, -n):
            disc = ring.discriminant * y * y + 4 * target
            s = math.isqrt(max(disc, 0))
            if s * s != disc:
                continue
            for root in (s, -s):
                if I.contains(((root - ring.trace_w * y) // 2, y)):
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
            if cand.is_closed():
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
            s = multiplicity(sum(1 for o in orders if ell ** (len(r) + 1) % o == 0), ell)
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


def _order(x, mul, is_one, h: int) -> int:
    """Order of x in a group of order h, by repeated multiplication."""
    power, k = x, 1
    while not is_one(power):
        power, k = mul(power, x), k + 1
        if k > h:
            raise RuntimeError("element order exceeded the group order")
    return k


def _class_group_from_ideals(ring: NumberRing) -> list[int]:
    """Every class contains an ideal of norm at most the Minkowski bound, so
    enumerating those ideals and separating them by pairwise equivalence
    yields the full group; the structure is read off the element orders."""
    bound = minkowski_bound(ring)
    ideals = [Ideal.unit_ideal(ring)]
    for m in range(2, bound + 1):
        ideals.extend(_ideals_of_norm(ring, m))
    reps: list[Ideal] = []
    for I in ideals:
        if not any(_equivalent(I, J) for J in reps):
            reps.append(I)
    h = len(reps)
    orders = [_order(I, Ideal.multiply, is_principal, h) for I in reps]
    return _abelian_type_from_orders(h, orders)


# ---------------------------------------------------------------------------
# binary quadratic forms (a, b, c) = ax^2 + bxy + cy^2 of discriminant
# D = b^2 - 4ac < 0; the form corresponds to the ideal aZ + (-b + sqrt(D))/2 Z


def _xgcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, u, v) with u*x + v*y = g = gcd(x, y)."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while y:
        q, r = divmod(x, y)
        x, y, u0, v0, u1, v1 = y, r, u1, v1, u0 - q * u1, v0 - q * v1
    return (x, u0, v0) if x >= 0 else (-x, -u0, -v0)


def _reduce(a: int, b: int, D: int) -> tuple[int, int, int]:
    """The reduced form properly equivalent to (a, b, .) of discriminant D,
    from a normalised one, -a < b <= a (Cohen, GTM 138, sec. 5.4).

    While a > c, (a, b, c) ~ (c, -b, a), normalised by b -> b + 2kc; a
    falls at every step.  Reduced means |b| <= a <= c, with b >= 0 when
    |b| = a or a = c.
    """
    while True:
        c = (b * b - D) // (4 * a)
        if a <= c:
            return (a, -b if a == c and b < 0 else b, c)
        a, b = c, c - (c + b) % (2 * c)


def _compose(f: tuple[int, int, int], g: tuple[int, int, int]) -> tuple[int, int, int]:
    """The reduced composite of two primitive forms of one discriminant
    (Dirichlet composition; Cohen, GTM 138, sec. 5.4)."""
    (a1, b1, c1), (a2, b2, c2) = f, g
    s, n = (b1 + b2) // 2, (b2 - b1) // 2
    e1, _, v = _xgcd(a1, a2)
    e, x, w = _xgcd(e1, s)  # x*u*a1 + x*v*a2 + w*s = e = gcd(a1, a2, s)
    a3 = a1 * a2 // (e * e)
    b3 = b2 - 2 * (a2 // e) * (x * v * n + w * c2)
    return _reduce(a3, a3 - (a3 - b3) % (2 * a3), b1 * b1 - 4 * a1 * c1)


def _reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """Every reduced form of discriminant D < 0, by increasing a; a reduced
    form has 3a^2 <= |D|, and the principal form (1, b, c) comes first."""
    forms = []
    a = 1
    while 3 * a * a <= -D:
        for b in range(1 - a, a + 1):
            c, r = divmod(b * b - D, 4 * a)
            if not r and c >= a and not (a == c and b < 0):
                forms.append((a, b, c))
        a += 1
    return forms


def class_group(ring: NumberRing) -> list[int]:
    """Invariant factors of the ideal class group (empty list = trivial).

    For d < 0, classes of ideals are classes of forms of discriminant
    D = ring.discriminant.  D is fundamental, so every form is primitive
    and each class holds exactly one reduced form: h is their number, and
    the element orders come from composition followed by reduction.  For
    d > 0 the classes come from the ideals up to the Minkowski bound,
    separated by principality tests that need a fundamental-unit fixture.
    """
    if abs(ring.d) > _DESK_D_LIMIT:
        raise BoundTooLarge(f"|d| = {abs(ring.d)} exceeds the desk-scale limit")
    if ring.d > 0:
        return _class_group_from_ideals(ring)
    forms = _reduced_forms(ring.discriminant)
    h = len(forms)
    # the principal form is the only reduced form with a = 1
    orders = [_order(f, _compose, lambda g: g[0] == 1, h) for f in forms]
    return _abelian_type_from_orders(h, orders)
