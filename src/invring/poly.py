"""Graded polynomial rings over a coefficient domain.

Per-degree monomial bases in a fixed deglex order (degree, then descending
lexicographic exponent), an exact linear substitution action of square
matrices on polynomials, and the induced matrix of that action on each
graded piece, as sparse columns: the monomial images, built degree by
degree.  Every variable has degree 1.  The action on polynomials reads the
same images.

Sums, negation, scaling, products and the action do their arithmetic on
plain ints and Fractions, not through the domain's per-scalar methods, and
each coefficient enters the domain once, at the end (domains module
docstring).  Products and the monomial images run in ints over the common
denominator of domains.integer_form, divided out (or reduced mod p over
F_p) once.  The monomial bases and the index tables of the images are
cached per (nvars, degree).  The integer images come from a
functools.lru_cache of 8 per-key builders, each of which extends the last
degree it built to a higher one and restarts from degree 0 for a lower one;
act reads only the images of its polynomial's monomials.
Arithmetic refuses operands from two different rings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add

from .domains import CoefficientDomain, Matrix, Scalar, integer_form

Exponent = tuple[int, ...]


def _default_names(nvars: int) -> tuple[str, ...]:
    if nvars <= 3:
        return ("X", "Y", "Z")[:nvars]
    return tuple(f"X{i + 1}" for i in range(nvars))


@dataclass(frozen=True)
class GradedRing:
    """Polynomial ring graded by total degree."""

    nvars: int
    coeff: CoefficientDomain

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("need at least one variable")

    @property
    def var_names(self) -> tuple[str, ...]:
        return _default_names(self.nvars)

    def variable(self, i: int) -> "Polynomial":
        if not 0 <= i < self.nvars:
            raise ValueError(f"no variable {i} in {self.nvars} variables")
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exps: self.coeff.one})

    def constant(self, c) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: c})

    @property
    def zero_poly(self) -> "Polynomial":
        return Polynomial(self, {})

    def __str__(self):
        return f"{self.coeff}[{', '.join(self.var_names)}]"


@dataclass(frozen=True)
class GradedPiece:
    """All monomials of one degree, in deglex order."""

    degree: int
    monomials: tuple[Exponent, ...]

    def __post_init__(self):
        # not a field, so eq, hash and repr ignore it
        object.__setattr__(self, "_positions", {e: i for i, e in enumerate(self.monomials)})

    def index(self, exps: Exponent) -> int:
        try:
            return self._positions[exps]
        except KeyError:
            raise ValueError(f"{exps} is not a monomial of degree {self.degree}") from None

    @property
    def dim(self) -> int:
        return len(self.monomials)


def _monomials_of_degree(nvars: int, d: int) -> list[Exponent]:
    if nvars == 1:
        return [(d,)]
    return [
        (e,) + rest
        for e in range(d, -1, -1)
        for rest in _monomials_of_degree(nvars - 1, d - e)
    ]


@lru_cache(maxsize=None)
def _piece_cached(nvars: int, d: int) -> GradedPiece:
    return GradedPiece(degree=d, monomials=tuple(_monomials_of_degree(nvars, d)))


@lru_cache(maxsize=None)
def _step_table(nvars: int, k: int):
    """Index tables for one degree-k step of _image_builder, k >= 1.

    steps[t] = (j, s): X_j is the first variable dividing the t-th monomial
    x^m of degree k, and s is the index of x^m / X_j in degree k - 1.
    times_var[a][i] is the degree-k index of X_i times the a-th monomial of
    degree k - 1.
    """
    piece = _piece_cached(nvars, k)
    lower = _piece_cached(nvars, k - 1)
    index = piece._positions
    times_var = tuple(
        tuple(index[e[:i] + (e[i] + 1,) + e[i + 1:]] for i in range(nvars))
        for e in lower.monomials
    )
    steps = []
    for m in piece.monomials:
        j = next(i for i, mi in enumerate(m) if mi)
        steps.append((j, lower._positions[m[:j] + (m[j] - 1,) + m[j + 1:]]))
    return tuple(steps), times_var


def graded_piece_basis(ring: GradedRing, d: int) -> GradedPiece:
    """Monomial basis of the degree-d piece, descending lex within the degree."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return _piece_cached(ring.nvars, d)


class Polynomial:
    """Exact multivariate polynomial; terms map exponent tuples to coefficients.

    Every coefficient enters through the domain's coerce, so the terms hold
    canonical nonzero scalars (ints in [0, p) over F_p); a term whose
    coefficient is zero in the domain is dropped.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GradedRing, terms: dict[Exponent, Scalar]):
        self.ring = ring
        coerce = ring.coeff.coerce
        self.terms = {e: v for e, c in terms.items() if (v := coerce(c))}

    @classmethod
    def _from_nonzero(cls, ring: GradedRing, terms: dict[Exponent, Scalar]) -> "Polynomial":
        """A polynomial whose terms are already canonical and nonzero."""
        f = cls.__new__(cls)
        f.ring = ring
        f.terms = terms
        return f

    def _sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda item: (-sum(item[0]), tuple(-e for e in item[0])),
        )

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError(f"operands from two rings: {self.ring} and {other.ring}")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Polynomial(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """Product, summed in plain ints without per-term domain calls.

        Over Q and Z_(p) the sums run on integer numerators over each
        factor's common denominator, divided out once at the end; over F_p
        they are reduced mod p once at the end.
        """
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError(f"operands from two rings: {self.ring} and {other.ring}")
        dom = self.ring.coeff
        left, right, den = self.terms.items(), other.terms.items(), 1
        if dom.tag in ("Q", "Zlocal"):
            d1, ints1 = integer_form(self.terms.values())
            d2, ints2 = integer_form(other.terms.values())
            left, right, den = zip(self.terms, ints1), list(zip(other.terms, ints2)), d1 * d2
        out: dict[Exponent, int] = {}
        get = out.get
        for e1, c1 in left:
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        if dom.tag == "Fp":
            p = dom.p
            terms = {e: r for e, v in out.items() if (r := v % p)}
        elif dom.tag == "Z":
            terms = {e: v for e, v in out.items() if v}
        else:
            terms = {e: Fraction(v, den) for e, v in out.items() if v}
        return Polynomial._from_nonzero(self.ring, terms)

    def scale(self, c) -> "Polynomial":
        c = self.ring.coeff.coerce(c)
        return Polynomial(self.ring, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("polynomial powers need a nonnegative exponent")
        result = self.ring.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, tuple(self._sorted_terms())))

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"

    # -- vector conversions -------------------------------------------------

    def to_vector(self, piece: GradedPiece) -> tuple[Scalar, ...]:
        vec = [self.ring.coeff.zero] * piece.dim
        for e, c in self.terms.items():
            vec[piece.index(e)] = c
        return tuple(vec)


def polynomial_from_vector(ring: GradedRing, piece: GradedPiece, vec) -> Polynomial:
    """The polynomial with coefficient vector vec on the monomials of piece."""
    if len(vec) != piece.dim:
        raise ValueError(f"vector of length {len(vec)} for a piece of dimension {piece.dim}")
    return Polynomial(ring, {m: c for m, c in zip(piece.monomials, vec) if c})


@lru_cache(maxsize=8)
def _image_builder(n: int, p: int | None, forms: tuple):
    """The builder of the images of the monomials under the integer forms,
    by index, for one key; the cache keeps the 8 keys used last.

    With X_j the first variable dividing x^m, the image of x^m is the image
    of x^(m - e_j) times forms[j], a tuple of pairs (i, coefficient of X_i);
    the products run in plain ints on monomial indices, each image reduced
    mod p when p is given.  The index tables of each step come from
    _step_table.  The builder keeps the last degree it built: degree d
    extends it when that is at most d, and starts again from degree 0
    otherwise.  The returned dicts are the kept ones: callers copy them.
    """
    have, images = 0, ({0: 1},)

    def build(d: int) -> tuple[dict[int, int], ...]:
        nonlocal have, images
        if have > d:
            have, images = 0, ({0: 1},)
        for k in range(have + 1, d + 1):
            steps, times_var = _step_table(n, k)
            nxt = []
            for j, s in steps:
                src = images[s]
                form = forms[j]
                img: dict[int, int] = {}
                for a, c in src.items():
                    up = times_var[a]
                    for i, gij in form:
                        t = up[i]
                        img[t] = img.get(t, 0) + c * gij
                if p is None:
                    nxt.append({t: v for t, v in img.items() if v})
                else:
                    nxt.append({t: r for t, v in img.items() if (r := v % p)})
            images = tuple(nxt)
        have = d
        return images

    return build


def _scaled_images(ring: GradedRing, g: Matrix, d: int) -> tuple[int, tuple[dict[int, int], ...]]:
    """(den^d, images), den the common denominator of g: the images of the
    degree-d monomials from _image_builder under the integer forms den * L_j
    = sum_i den * g[i][j] X_i.  They are the kept dicts; callers only read
    them."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    n = ring.nvars
    if len(g) != n or any(len(row) != n for row in g):
        raise ValueError("matrix size must match the number of variables")
    dom = ring.coeff
    den, ints = integer_form([dom.coerce(x) for row in g for x in row])
    forms = tuple(tuple((i, c) for i in range(n) if (c := ints[i * n + j])) for j in range(n))
    return den**d, _image_builder(n, dom.p if dom.tag == "Fp" else None, forms)(d)


def action_matrix(ring: GradedRing, g: Matrix, d: int) -> tuple[dict[int, Scalar], ...]:
    """Matrix of act(g, .) on the deglex basis of the degree-d piece, by columns.

    Column c is the image of the c-th basis monomial as {row index: nonzero
    entry}, so the map is functorial: column c of action_matrix(g h, d) is
    the sum over t of the (t, c) entry of action_matrix(h, d) times column t
    of action_matrix(g, d).  Entries are ints over Z and F_p (reduced mod p
    over F_p) and Fractions over Q and Z_(p); a zero entry is absent.  Every
    call returns fresh dicts.

    The columns are the images of _scaled_images, so a run of calls at
    rising degrees builds each degree once.  Over Q and Z_(p) each entry is
    divided by den^d once, here.
    """
    scale, images = _scaled_images(ring, g, d)
    if ring.coeff.tag in ("Q", "Zlocal"):  # the entries enter the domain once, here
        entry = Fraction if scale == 1 else lambda v: Fraction(v, scale)
        return tuple({t: entry(v) for t, v in img.items()} for img in images)
    return tuple(img.copy() for img in images)


def act(g: Matrix, f: Polynomial) -> Polynomial:
    """Linear substitution X_j -> sum_i g[i][j] X_i applied to f.

    This is a degree-preserving ring homomorphism; act on a composite gh
    equals act(g) after act(h).  Each degree-d term c*x^e of f contributes
    c times the integer image of x^e from _scaled_images, and each output
    coefficient of degree d is divided by den^d once, when that is not 1.
    """
    ring = f.ring
    terms: dict[Exponent, Scalar] = {}
    # the zero polynomial reads degree 0, so g is checked for every f
    for d in {sum(e) for e in f.terms} or {0}:
        scale, images = _scaled_images(ring, g, d)
        piece = _piece_cached(ring.nvars, d)
        out: dict[int, Scalar] = {}
        for e, c in f.terms.items():
            if sum(e) == d:
                for t, v in images[piece._positions[e]].items():
                    out[t] = out.get(t, 0) + c * v
        for t, v in out.items():
            terms[piece.monomials[t]] = v if scale == 1 else Fraction(v, scale)
    return Polynomial(ring, terms)


# ---------------------------------------------------------------------------
# text form: "3*X^2*Y - 1/2*Z", variables named per the ring


def format_polynomial(f: Polynomial) -> str:
    if f.is_zero():
        return "0"
    dom = f.ring.coeff
    names = f.ring.var_names
    parts = []
    for e, c in f._sorted_terms():
        factors = []
        for name, exp in zip(names, e):
            if exp == 1:
                factors.append(name)
            elif exp > 1:
                factors.append(f"{name}^{exp}")
        neg = Fraction(c) < 0
        coeff_str = dom.scalar_str(-c if neg else c)
        if factors and coeff_str == "1":
            body = "*".join(factors)
        elif factors:
            body = "*".join([coeff_str] + factors)
        else:
            body = coeff_str
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)
