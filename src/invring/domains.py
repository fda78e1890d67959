"""Coefficient domains: Z, Q, F_p, and Z localized at a prime p.

Scalars are plain ints (Z, F_p) or Fractions (Q, Z_(p)).  Elements of the
localization must have denominator coprime to p; that is enforced whenever a
scalar enters through coerce().  Matrices over a domain are plain tuples of
tuples of scalars, manipulated by the helpers at the bottom.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Scalar = int | Fraction
Matrix = tuple[tuple[Scalar, ...], ...]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n > 0, in increasing order."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class CoefficientDomain:
    """Tagged exact coefficient domain.

    tag is one of "Z", "Q", "Fp", "Zlocal"; p is the prime for the last two.
    """

    tag: str
    p: int | None = None

    def __post_init__(self):
        if self.tag not in ("Z", "Q", "Fp", "Zlocal"):
            raise ValueError(f"unknown coefficient domain tag {self.tag!r}")
        if self.tag in ("Fp", "Zlocal"):
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"{self.tag} needs a prime p, got {self.p!r}")
        elif self.p is not None:
            raise ValueError(f"{self.tag} takes no prime")
        # fixed at construction; not fields, so eq, hash and repr ignore them
        object.__setattr__(self, "_zero", self.coerce(0))
        object.__setattr__(self, "_one", self.coerce(1))

    # -- constructors -----------------------------------------------------

    def coerce(self, x) -> Scalar:
        """Bring an int or Fraction into this domain, or raise ValueError."""
        if self.tag == "Z":
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError(f"{x} is not an integer")
                return int(x)
            return int(x)
        if self.tag == "Q":
            return Fraction(x)
        if self.tag == "Zlocal":
            f = Fraction(x)
            if f.denominator % self.p == 0:
                raise ValueError(f"{x} has denominator divisible by {self.p}")
            return f
        # Fp
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ValueError(f"{x} is not p-integral at {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return int(x) % self.p

    @property
    def zero(self) -> Scalar:
        return self._zero

    @property
    def one(self) -> Scalar:
        return self._one

    # -- arithmetic --------------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.p if self.tag == "Fp" else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.p if self.tag == "Fp" else a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.p if self.tag == "Fp" else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.p if self.tag == "Fp" else -a

    def is_zero(self, a: Scalar) -> bool:
        return a % self.p == 0 if self.tag == "Fp" else a == 0

    def is_unit(self, a: Scalar) -> bool:
        if self.tag == "Z":
            return a in (1, -1)
        if self.tag == "Q":
            return a != 0
        if self.tag == "Zlocal":
            return a != 0 and Fraction(a).numerator % self.p != 0
        return a % self.p != 0

    def inv(self, a: Scalar) -> Scalar:
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit in {self}")
        if self.tag == "Z":
            return a
        if self.tag == "Fp":
            return pow(a % self.p, -1, self.p)
        return 1 / Fraction(a)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    # -- formatting ---------------------------------------------------------

    def scalar_str(self, a: Scalar) -> str:
        if isinstance(a, Fraction) and a.denominator != 1:
            return f"{a.numerator}/{a.denominator}"
        return str(int(a))

    def parse_scalar(self, text: str) -> Scalar:
        text = text.strip()
        if "/" in text:
            num, den = text.split("/")
            return self.coerce(Fraction(int(num), int(den)))
        return self.coerce(int(text))

    def __str__(self):
        if self.tag == "Fp":
            return f"F{self.p}"
        if self.tag == "Zlocal":
            return f"Z_({self.p})"
        return self.tag


ZZ = CoefficientDomain("Z")
QQ = CoefficientDomain("Q")


def GF(p: int) -> CoefficientDomain:
    return CoefficientDomain("Fp", p)


def Z_local(p: int) -> CoefficientDomain:
    return CoefficientDomain("Zlocal", p)


def parse_domain(text: str) -> CoefficientDomain:
    """Parse "Z", "Q", "Fp:5"/"F5", "Zlocal:5"/"Z_(5)" into a domain."""
    t = text.strip()
    if t == "Z":
        return ZZ
    if t == "Q":
        return QQ
    if t.startswith("Fp:"):
        return GF(int(t[3:]))
    if t.startswith("F") and t[1:].isdigit():
        return GF(int(t[1:]))
    if t.startswith("Zlocal:"):
        return Z_local(int(t[7:]))
    if t.startswith("Z_(") and t.endswith(")"):
        return Z_local(int(t[3:-1]))
    raise ValueError(f"unrecognized coefficient domain {text!r}")


# ---------------------------------------------------------------------------
# matrices over a domain


def mat_from_rows(domain: CoefficientDomain, rows) -> Matrix:
    return tuple(tuple(domain.coerce(x) for x in row) for row in rows)


def mat_identity(domain: CoefficientDomain, n: int) -> Matrix:
    return tuple(
        tuple(domain.one if i == j else domain.zero for j in range(n)) for i in range(n)
    )


def mat_mul(domain: CoefficientDomain, a: Matrix, b: Matrix) -> Matrix:
    n, k = len(a), len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(len(b[0])):
            acc = domain.zero
            for t in range(k):
                acc = domain.add(acc, domain.mul(a[i][t], b[t][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_is_identity(domain: CoefficientDomain, a: Matrix) -> bool:
    """Group matrices are canonical (entries enter through coerce and mat_mul
    keeps them so), so tuple equality decides."""
    return a == mat_identity(domain, len(a))


def mat_det(domain: CoefficientDomain, a: Matrix) -> Scalar:
    """Determinant by exact fraction-based elimination, brought into the
    domain; over F_p that is the determinant of the representatives mod p."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        sel = next((i for i in range(col, n) if m[i][col]), None)
        if sel is None:
            return domain.zero
        if sel != col:
            m[col], m[sel] = m[sel], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] / m[col][col]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return domain.coerce(det)


def scalar_mod_p_residue(x: Scalar, p: int) -> int:
    """Residue of a p-integral scalar in F_p; denominator must be coprime to p."""
    f = Fraction(x)
    if f.denominator % p == 0:
        raise ValueError(f"{x} is not p-integral at {p}")
    return (f.numerator * pow(f.denominator, -1, p)) % p
