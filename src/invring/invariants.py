"""Degree-truncated invariant rings and Veronese subrings.

Per-degree bases of the fixed subspace (R_d)^G are computed as the kernel of
the stacked generator constraints; over Z that kernel is automatically a
saturated lattice, so the basis generates the invariants exactly rather than
a finite-index sublattice.  On top of the bases live the Reynolds and
transfer maps, Hilbert functions, and one generator walk behind both minimal
generators and standard-gradedness: a product of generators of degree d is a
generator of some degree k times a product of degree d - k, so the walk spans
degree d from those and adds generators where that span falls short of the
basis.  The ring is standard graded through D when none is added above 1.

Spans are kept as reduced echelon rows over F_p and as integer lattices in
Hermite form over Z, Q and Z localized at p, whose vectors are scaled by
units of the domain to clear denominators; both forms are canonical for what
they span.  One rule compares spans over every domain: an echelon inside
another spans it exactly when the two have equal rank and the quotient of
their pivot products, the index, is a unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .domains import CoefficientDomain
from .groups import MatrixGroup, coset_representatives
from .linalg import (
    IntegerMatrix,
    integer_kernel_basis,
    kernel_mod_p,
    lattice_canonical,
    lattice_complement_generators,
    member_mod_p,
    rref_mod_p,
)
from .poly import (
    GradedRing,
    Polynomial,
    act,
    action_matrix,
    graded_piece_basis,
    polynomial_from_vector,
)

Rows = tuple[tuple, ...]


class NotInvertible(Exception):
    """The group order is not a unit in the coefficient domain."""


class NotHInvariant(Exception):
    """The transfer argument is not fixed by the subgroup."""


class IndexNotInvertible(Exception):
    """The subgroup index is not a unit in the coefficient domain."""


# ---------------------------------------------------------------------------
# domain-aware span arithmetic


def _integerize_rows(vectors) -> list[list[int]]:
    """Scale each vector by the lcm of its denominators (ints have 1)."""
    out = []
    for v in vectors:
        den = lcm(*(x.denominator for x in v))
        out.append([x.numerator * (den // x.denominator) for x in v])
    return out


def canonical_span(domain: CoefficientDomain, vectors, ncols: int) -> Rows:
    """Canonical row set spanning the given vectors over the domain.

    Over F_p the rows are the RREF.  Over Z, Q and Z_(p) they are the
    Hermite basis of the integer lattice the vectors span once each is
    scaled by a unit clearing its denominators; that basis is canonical over
    Z only.  Over every domain an echelon a inside c spans all of c exactly
    when len(a) == len(c) and the index of a in c, the quotient of their
    pivot products, is a unit of the domain.
    """
    vectors = [v for v in vectors if any(not domain.is_zero(x) for x in v)]
    if not vectors:
        return ()
    if domain.tag == "Fp":
        rows, _ = rref_mod_p([[int(x) for x in v] for v in vectors], ncols, domain.p)
        return rows
    return lattice_canonical(_integerize_rows(vectors), ncols)


def _spans(domain: CoefficientDomain, a: Rows, c: Rows) -> bool:
    """True iff the echelon a, whose span lies inside that of c, spans c."""
    return len(a) == len(c) and domain.is_unit(_pivot_product(a) // _pivot_product(c))


def _pivot_product(rows: Rows) -> int:
    return prod(next(x for x in row if x) for row in rows)


def span_member(domain: CoefficientDomain, rows: Rows, vector) -> bool:
    if domain.tag == "Fp":
        return member_mod_p(rows, [int(x) for x in vector], domain.p)
    return _spans(domain, rows, canonical_span(domain, list(rows) + [vector], len(vector)))


def span_equal(domain: CoefficientDomain, a: Rows, b: Rows) -> bool:
    if a == b:  # exact over Z and F_p, whose forms are canonical
        return True
    ncols = len((a or b)[0])
    c = canonical_span(domain, list(a) + list(b), ncols)
    return _spans(domain, a, c) and _spans(domain, b, c)


def span_complement(domain: CoefficientDomain, sub: Rows, sup: Rows) -> list[tuple]:
    """Vectors extending sub to generate sup, minimal in count."""
    if domain.tag in ("Z", "Zlocal"):
        return lattice_complement_generators(list(sub), list(sup), domain.is_unit)
    picked: list[tuple] = []
    current = sub
    ncols = len(sup[0]) if sup else 0
    for v in sup:
        if not span_member(domain, current, v):
            picked.append(tuple(v))
            current = canonical_span(domain, list(current) + [list(v)], ncols)
    return picked


# ---------------------------------------------------------------------------
# invariant bases


def invariant_basis(G: MatrixGroup, ring: GradedRing, d: int) -> Rows:
    """Canonical basis of the degree-d invariants (R_d)^G.

    Returned rows are coefficient vectors over the deglex monomial basis.
    Over Z and Z_(p) the rows span the saturated invariant lattice.
    """
    piece = graded_piece_basis(ring, d)
    n = piece.dim
    if n == 0:
        return ()
    domain = ring.coeff
    gens = G.generators if G.generators else G.elements
    constraint_rows: list[list] = []
    for g in gens:
        a = action_matrix(ring, g, d)
        for i in range(n):
            row = list(a[i])
            row[i] = domain.sub(row[i], domain.one)
            if any(row):  # entries are canonical, so only zero is falsy
                constraint_rows.append(row)
    if domain.tag == "Fp":
        return kernel_mod_p(
            [[int(x) for x in row] for row in constraint_rows], n, domain.p
        )
    int_rows = _integerize_rows(constraint_rows)
    return integer_kernel_basis(IntegerMatrix(int_rows, cols=n)).data


def trace_average_invariant_count(G: MatrixGroup, ring: GradedRing, d: int) -> Fraction:
    """Average of traces of the degree-d action over the group.

    For characteristic zero this counts dim (R_d)^G and serves as an
    independent cross-check on the kernel computation.
    """
    if ring.coeff.tag == "Fp":
        raise ValueError("trace averaging needs characteristic zero")
    total = Fraction(0)
    for g in G.elements:
        a = action_matrix(ring, g, d)
        total += sum((Fraction(a[i][i]) for i in range(len(a))), Fraction(0))
    return total / G.order


def _average(f: Polynomial, mats, count: int, error: type[Exception], label: str) -> Polynomial:
    """(1/count) sum of g.f over mats; raises error if count is not a unit."""
    domain = f.ring.coeff
    c = domain.coerce(count)
    if not domain.is_unit(c):
        raise error(f"{label} = {count} is not a unit in {domain}")
    total = f.ring.zero_poly
    for g in mats:
        total = total + act(g, f)
    return total.scale(domain.inv(c))


def reynolds(f: Polynomial, G: MatrixGroup) -> Polynomial:
    """Group averaging projector (1/|G|) sum_g g.f onto the invariants."""
    return _average(f, G.elements, G.order, NotInvertible, "|G|")


def transfer(f: Polynomial, G: MatrixGroup, H: MatrixGroup) -> Polynomial:
    """Averaged coset sum sending H-invariants to G-invariants.

    Splits the inclusion of the G-invariants into the H-invariants whenever
    the index [G:H] is a unit; raises if f is not H-invariant or the index
    is not invertible.
    """
    h_gens = H.generators if H.generators else H.elements
    for h in h_gens:
        if act(h, f) != f:
            raise NotHInvariant("polynomial is not fixed by the subgroup")
    reps = coset_representatives(G, H)
    return _average(f, reps, len(reps), IndexNotInvertible, "[G:H]")


# ---------------------------------------------------------------------------
# truncated subalgebras


@dataclass(frozen=True)
class TruncatedSubalgebra:
    """An invariant or Veronese subring known through degree D.

    bases[d] holds the canonical basis of the degree-d piece as vectors over
    the monomial basis of the ambient ring in degree d * regrade.
    """

    ambient: GradedRing
    group: MatrixGroup
    D: int
    regrade: int
    bases: tuple[Rows, ...]

    @property
    def domain(self) -> CoefficientDomain:
        return self.ambient.coeff

    def ambient_degree(self, d: int) -> int:
        return d * self.regrade

    def piece_dim(self, d: int) -> int:
        return graded_piece_basis(self.ambient, self.ambient_degree(d)).dim

    def piece_polynomials(self, d: int, rows=None) -> list[Polynomial]:
        """Polynomials of the degree-d rows, by default the basis rows."""
        piece = graded_piece_basis(self.ambient, self.ambient_degree(d))
        rows = self.bases[d] if rows is None else rows
        return [polynomial_from_vector(self.ambient, piece, row) for row in rows]

    def piece_products(self, e: int, left, f: int, right) -> list[tuple]:
        """Vectors in degree e + f of every product u * v, with u running
        over the degree-e rows left and v over the degree-f rows right."""
        piece = graded_piece_basis(self.ambient, self.ambient_degree(e + f))
        right_polys = self.piece_polynomials(f, right)
        return [
            (u * v).to_vector(piece)
            for u in self.piece_polynomials(e, left)
            for v in right_polys
        ]


@dataclass(frozen=True)
class HilbertFunction:
    values: tuple[int, ...]

    def __getitem__(self, d: int) -> int:
        return self.values[d]

    def __len__(self) -> int:
        return len(self.values)


def truncated_invariant_ring(
    G: MatrixGroup, ring: GradedRing, D: int
) -> TruncatedSubalgebra:
    """Invariant ring R^G with all piece bases through degree D."""
    if D < 1:
        raise ValueError("truncation degree must be at least 1")
    bases = tuple(invariant_basis(G, ring, d) for d in range(D + 1))
    return TruncatedSubalgebra(
        ambient=ring, group=G, D=D, regrade=1, bases=bases
    )


def hilbert_function(S: TruncatedSubalgebra) -> HilbertFunction:
    return HilbertFunction(values=tuple(len(S.bases[d]) for d in range(S.D + 1)))


def veronese(S: TruncatedSubalgebra, m: int) -> TruncatedSubalgebra:
    """Subring of pieces in degrees divisible by m, regraded by 1/m."""
    if m < 1:
        raise ValueError("Veronese index must be positive")
    if m > S.D:
        raise ValueError("Veronese index exceeds the truncation degree")
    new_d = S.D // m
    return TruncatedSubalgebra(
        ambient=S.ambient,
        group=S.group,
        D=new_d,
        regrade=S.regrade * m,
        bases=tuple(S.bases[d * m] for d in range(new_d + 1)),
    )


@dataclass(frozen=True)
class StandardGradedReport:
    standard: bool
    first_failing_degree: int | None
    checked_to: int


def _generator_walk(S: TruncatedSubalgebra):
    """Yield (d, new generator rows) for d = 1..D.

    alg[d] spans the degree-d products of generators.  Where it falls short
    of the basis, a minimal set of new vectors extends it: Smith-form
    quotient generators over Z and Z_(p), greedy rank extension over a field.
    """
    domain = S.domain
    gens: dict[int, list[tuple]] = {}
    alg: dict[int, Rows] = {}
    for d in range(1, S.D + 1):
        products = []
        for k, rows_k in gens.items():
            products += S.piece_products(k, rows_k, d - k, alg[d - k])
        span = canonical_span(domain, products, S.piece_dim(d))
        new: list[tuple] = []
        if not span_equal(domain, span, S.bases[d]):
            gens[d] = new = span_complement(domain, span, S.bases[d])
            span = canonical_span(domain, list(span) + new, S.piece_dim(d))
            if not span_equal(domain, span, S.bases[d]):
                raise RuntimeError(f"generator completion failed in degree {d}")
        alg[d] = span
        yield d, new


def is_standard_graded_up_to(S: TruncatedSubalgebra) -> StandardGradedReport:
    """Check that products of the degree-1 basis span every piece through D.

    Over Z the comparison is equality of exact lattices (not merely finite
    index): the multiplicative span of the degree-1 piece must reproduce the
    saturated basis lattice degree by degree.  The first failing degree is
    the first above 1 that needs a new generator.
    """
    for d, new in _generator_walk(S):
        if d > 1 and new:
            return StandardGradedReport(False, d, S.D)
    return StandardGradedReport(True, None, S.D)


def minimal_generators_up_to(S: TruncatedSubalgebra) -> list[tuple[int, Polynomial]]:
    """Algebra generators degree by degree through D; an empty tail certifies
    generation below D."""
    return [(d, p) for d, new in _generator_walk(S) for p in S.piece_polynomials(d, new)]
