"""Coefficient domains: Z, Q, F_p, and Z localized at a prime p.

Scalars are plain ints (Z, F_p) or Fractions (Q, Z_(p)).  Elements of the
localization must have denominator coprime to p; that is enforced whenever a
scalar enters through coerce().  Matrices over a domain are plain tuples of
tuples of scalars, manipulated by the helpers at the bottom.

Arithmetic on many scalars (sums, dot products, scaling) runs on plain ints
and Fractions and brings each result into the domain once, through coerce();
rational data takes its integer form from integer_form().  The per-scalar
methods add, sub, mul and neg serve single scalars.

The value classes of every layer are frozen records made by @record.  It
gives them what @dataclass(frozen=True) would, without importing the
dataclass module and inspect, the largest import a command could avoid.
A record's fields are its annotated names, in order; a class attribute of
the same name is that field's default, and fields with defaults come last.
record gives the class:
- __init__(self, *fields), by position or keyword, which stores each field
  with object.__setattr__ and then calls __post_init__ where the class has one;
- __eq__, true for an instance of the same class with equal fields, and
  NotImplemented against any other class;
- __hash__, the hash of the tuple of fields;
- __repr__, Name(field=value!r, ...);
- __setattr__ and __delattr__ that raise AttributeError.
These are the methods, hashes and reprs @dataclass(frozen=True) gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul

Scalar = int | Fraction
Matrix = tuple[tuple[Scalar, ...], ...]


def multiplicity(n: int, p: int) -> int:
    """The exponent of p in n != 0: the largest k with p^k dividing n."""
    if n == 0 or p < 2:
        raise ValueError(f"multiplicity needs n != 0 and p >= 2, got n={n}, p={p}")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def integer_form(values) -> tuple[int, list[int]]:
    """(den, ints): den is the lcm of the denominators of the values, 1 for
    ints and for no values, and ints are the values times den."""
    values = list(values)
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def is_prime(n: int) -> bool:
    return n >= 2 and prime_divisors(n) == [n]


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n > 0, in increasing order; [] for n <= 1.

    A perfect square is replaced by its root, which has the same primes, so
    the trial division of a norm a^2 runs to sqrt|a|, not to |a|."""
    while n > 1 and (r := isqrt(n)) * r == n:
        n = r
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


def _frozen(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def record(cls):
    """Make cls a frozen record over its annotated fields; see the module
    docstring.  __init__, __eq__ and __hash__ are compiled once per class,
    so an instance pays for no loop over its fields."""
    names = tuple(cls.__annotations__)
    sets = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    own = "".join(f"self.{n}, " for n in names)
    source = f"""
def __init__(self, {', '.join(names)}):{sets}{post}

def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({own}) == ({own.replace("self.", "other.")})
    return NotImplemented

def __hash__(self):
    return hash(({own}))
"""
    methods = {"_set": object.__setattr__}
    exec(source, methods)
    defaults = [cls.__dict__[n] for n in names if n in cls.__dict__]
    methods["__init__"].__defaults__ = tuple(defaults)

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({shown})"

    for name in ("__init__", "__eq__", "__hash__"):
        setattr(cls, name, methods[name])
    cls.__repr__ = __repr__
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


@record
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
        """Bring an int or Fraction into this domain, or raise ValueError.

        Nothing else is read as a number: not a bool, a string or a Decimal,
        and not a float, whose binary value is rarely the number meant.
        """
        kind = type(x)
        if kind is not int and kind is not Fraction:
            raise ValueError(f"{x!r} is a {kind.__name__}; give an int or a Fraction")
        if self.tag == "Z":
            if kind is Fraction:
                if x.denominator != 1:
                    raise ValueError(f"{x} is not an integer")
                return x.numerator
            return x
        if self.tag == "Q":
            return Fraction(x)
        if self.tag == "Zlocal":
            f = Fraction(x)
            if f.denominator % self.p == 0:
                raise ValueError(f"{x} has denominator divisible by {self.p}")
            return f
        # Fp
        if kind is Fraction:
            if x.denominator % self.p == 0:
                raise ValueError(f"{x} is not p-integral at {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return x % self.p

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
            num, den = (int(part) for part in text.split("/"))
            if den == 0:
                raise ValueError(f"zero denominator in {text!r}")
            return self.coerce(Fraction(num, den))
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
    return tuple(tuple(map(domain.coerce, row)) for row in rows)


def mat_identity(domain: CoefficientDomain, n: int) -> Matrix:
    zeros, one = (domain.zero,) * n, (domain.one,)
    return tuple(zeros[:i] + one + zeros[i + 1 :] for i in range(n))


def mat_mul(domain: CoefficientDomain, a: Matrix, b: Matrix) -> Matrix:
    """Each entry is a plain dot product, brought into the domain once."""
    coerce = domain.coerce
    columns = tuple(zip(*b))
    return tuple(tuple(coerce(sum(map(mul, row, col))) for col in columns) for row in a)


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
