"""Degree-truncated invariant rings and Veronese subrings.

Per-degree bases of the fixed subspace (R_d)^G are computed as the kernel of
the generator constraints g - I, taken per connected block: two monomials
are joined when one's column of action_matrix has an entry in the other's
row, and each block's rows of g - I are read straight from those columns.
The system is block diagonal up to permuting rows and columns, its kernel
is the direct sum of the block kernels, and the block rows in Hermite form
(RREF over F_p) merged by pivot are the unique Hermite form (RREF) of the
whole kernel.  Over Z that kernel is automatically a saturated lattice, so
the basis generates the invariants exactly rather than a finite-index
sublattice.  For a monomial group the blocks are the monomial orbits.

On top of the bases live the transfer map (the Reynolds operator is the
transfer from the trivial group), Hilbert functions, and one generator walk
behind both minimal generators and standard-gradedness: a product of
generators of degree d is a generator of some degree k times a product of
degree d - k, so the walk spans degree d from those and adds generators
where that span falls short of the basis.
The ring is standard graded through D when none is added above 1.  Over
every domain it multiplies the int basis rows in Z[x] and ranks the products
on the pivot columns of the basis.

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
from itertools import chain
from math import prod

from .domains import ZZ, CoefficientDomain, integer_form
from .groups import MatrixGroup, coset_representatives
from .linalg import (
    IntegerMatrix,
    integer_kernel_basis,
    kernel_mod_p,
    lattice_canonical,
    lattice_complement_generators,
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


class NotHInvariant(ValueError):
    """The transfer argument is not fixed by the subgroup."""


class IndexNotInvertible(ValueError):
    """The subgroup index is not a unit in the coefficient domain."""


# ---------------------------------------------------------------------------
# domain-aware span arithmetic


def canonical_span(domain: CoefficientDomain, vectors, ncols: int) -> Rows:
    """Canonical rows, none zero, spanning the given vectors over the domain:
    the RREF over F_p, and over Z, Q and Z_(p) the Hermite basis of the
    integer lattice they span once each is scaled by a unit clearing its
    denominators, canonical over Z only.  Over every domain an echelon a
    inside c spans all of c exactly when len(a) == len(c) and the index of a
    in c, the quotient of their pivot products, is a unit of the domain.
    A row with an entry other than an int enters through domain.coerce.
    """
    rows = [v if set(map(type, v)) <= {int} else list(map(domain.coerce, v)) for v in vectors]
    if domain.tag == "Fp":
        return rref_mod_p(rows, ncols, domain.p)[0]
    return lattice_canonical([integer_form(v)[1] for v in rows], ncols)


def _spans(domain: CoefficientDomain, a: Rows, c: Rows) -> bool:
    """True iff the echelon a, whose span lies inside that of c, spans c."""
    return len(a) == len(c) and domain.is_unit(_pivot_product(a) // _pivot_product(c))


def _pivot_columns(rows: Rows) -> list[int]:
    return [next(j for j, x in enumerate(row) if x) for row in rows]


def _pivot_product(rows: Rows) -> int:
    return prod(next(x for x in row if x) for row in rows)


def _span_on_pivots(domain: CoefficientDomain, basis: Rows, restricted) -> Rows:
    """canonical_span of int vectors in the span of the canonical rows basis,
    given on its pivot columns P, where every vector of that span leads; so
    the span is determined on P.  Each row h is lifted back to the sum of
    c_i * b_i by back-substitution on basis|_P: c_i is what h still lacks on
    the pivot column of b_i, which no later row touches.  Over F_p basis|_P
    is the identity, so c = h, and the lift is reduced mod p."""
    supports = [[(t, x) for t, x in enumerate(row) if x] for row in basis]
    p = domain.p if domain.tag == "Fp" else 0
    out = []
    for h in canonical_span(domain, restricted, len(basis)):
        v = [0] * len(basis[0])
        for target, support in zip(h, supports):
            j, lead = support[0]
            c, rem = divmod(target - v[j], lead)
            if rem:
                raise RuntimeError("a vector lies outside the lattice of the basis")
            if c:
                for t, x in support:
                    v[t] += c * x
        out.append(tuple(x % p for x in v) if p else tuple(v))
    return tuple(out)


def span_complement(domain: CoefficientDomain, sub: Rows, sup: Rows) -> list[tuple]:
    """Vectors extending sub to generate sup, minimal in count; over a field,
    the rows of sup that grow the span by _spans, the one membership rule."""
    if domain.tag in ("Z", "Zlocal"):
        return lattice_complement_generators(list(sub), list(sup), domain.is_unit)
    picked: list[tuple] = []
    current = sub
    for v in sup:
        grown = canonical_span(domain, [*current, v], len(v))
        if not _spans(domain, current, grown):
            picked.append(tuple(v))
            current = grown
    return picked


# ---------------------------------------------------------------------------
# invariant bases


def _blocks(n: int, action) -> list[list[int]]:
    """Connected blocks of the constraints g - I on n columns.

    action holds the action_matrix columns of every generator g.  Columns j
    and t are joined (union-find) when column j of some g has an entry in
    row t; for t != j that is exactly (g - I)[t][j] != 0, so each row of
    every g - I lies inside one block and the system is block diagonal up
    to permuting rows and columns.  Returns each block's columns in
    ascending order, blocks ordered by first column; a monomial no
    generator moves is a block of its own, and its rows are zero.
    """
    parent = list(range(n))

    def find(j: int) -> int:
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        return j

    for columns in action:
        for j, col in enumerate(columns):
            root = find(j)
            for t in col:
                parent[find(t)] = root
    blocks: dict[int, list[int]] = {}
    for j in range(n):
        blocks.setdefault(find(j), []).append(j)
    return list(blocks.values())


def invariant_basis(G: MatrixGroup, ring: GradedRing, d: int) -> Rows:
    """Canonical basis of the degree-d invariants (R_d)^G.

    Returned rows are coefficient vectors over the deglex monomial basis.
    Over Z and Z_(p) the rows span the saturated invariant lattice.

    The kernel is taken per connected block of the constraints g - I, whose
    nonzero rows are read off the columns of action_matrix on the block's
    columns.  The kernel of a block-diagonal system is the direct sum of
    the block kernels, and a direct sum of saturated lattices is saturated.
    Block rows in Hermite form (RREF over F_p), embedded and ordered by
    pivot, are in Hermite form (RREF) as a whole: entries above a pivot
    from another block are 0.  That form is unique, so the rows are those
    of the kernel of the whole stacked system.
    """
    n = graded_piece_basis(ring, d).dim
    domain = ring.coeff
    action = [action_matrix(ring, g, d) for g in G.generators or G.elements]
    pivoted: list[tuple[int, tuple]] = []
    for cols in _blocks(n, action):
        rows = []
        for columns in action:
            for at, i in enumerate(cols):  # row i of g - I on the block's columns
                row = [columns[c].get(i, 0) for c in cols]
                row[at] = domain.sub(row[at], domain.one)
                if any(row):
                    rows.append(row)
        if domain.tag == "Fp":
            kernel = kernel_mod_p(rows, len(cols), domain.p)
        else:
            block = rows if domain.tag == "Z" else [integer_form(r)[1] for r in rows]
            kernel = integer_kernel_basis(IntegerMatrix(block, cols=len(cols))).data
        for k in kernel:
            v = [0] * n
            for j, x in zip(cols, k):
                v[j] = x
            pivoted.append((cols[next(t for t, x in enumerate(k) if x)], tuple(v)))
    pivoted.sort()  # pivots are distinct, so only they are compared
    return tuple(v for _, v in pivoted)


def trace_average_invariant_count(G: MatrixGroup, ring: GradedRing, d: int) -> Fraction:
    """Average of traces of the degree-d action over the group.

    For characteristic zero this counts dim (R_d)^G and serves as an
    independent cross-check on the kernel computation.
    """
    if ring.coeff.tag == "Fp":
        raise ValueError("trace averaging needs characteristic zero")
    total = Fraction(0)
    for g in G.elements:
        columns = action_matrix(ring, g, d)
        total += sum((Fraction(col.get(i, 0)) for i, col in enumerate(columns)), Fraction(0))
    return total / G.order


def transfer(f: Polynomial, G: MatrixGroup, H: MatrixGroup) -> Polynomial:
    """Averaged coset sum (1/[G:H]) sum of g.f over coset representatives g,
    sending H-invariants to G-invariants.

    Splits the inclusion of the G-invariants into the H-invariants whenever
    the index [G:H] is a unit; raises if f is not H-invariant or the index
    is not invertible.  With H trivial it is the Reynolds operator
    (1/|G|) sum_g g.f.
    """
    h_gens = H.generators if H.generators else H.elements
    for h in h_gens:
        if act(h, f) != f:
            raise NotHInvariant("polynomial is not fixed by the subgroup")
    reps = coset_representatives(G, H)
    domain = f.ring.coeff
    index = domain.coerce(len(reps))
    if not domain.is_unit(index):
        raise IndexNotInvertible(f"[G:H] = {len(reps)} is not a unit in {domain}")
    total = f.ring.zero_poly
    for g in reps:
        total = total + act(g, f)
    return total.scale(domain.inv(index))


# ---------------------------------------------------------------------------
# truncated subalgebras


@dataclass(frozen=True)
class TruncatedSubalgebra:
    """An invariant or Veronese subring known through degree D.

    bases[d] holds the canonical basis of the degree-d piece as vectors over
    the monomial basis of the ambient ring in degree d * regrade.  Over Z, Q
    and Z_(p) they are int tuples, the Hermite basis of a saturated lattice.
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


def _is_reduced_echelon(rows: Rows, p: int) -> bool:
    """True iff the int rows are an RREF over F_p with entries in [0, p):
    that form is canonical, so exactly then rref_mod_p returns them as given."""
    ncols = max(map(len, rows), default=0)
    return rref_mod_p(rows, ncols, p)[0] == tuple(map(tuple, rows))


def _generator_walk(S: TruncatedSubalgebra):
    """Yield (d, new generator rows) for d = 1..D.

    alg[d] spans the degree-d products of generators.  Where it falls short
    of the basis, a minimal set of new vectors extends it: Smith-form
    quotient generators over Z and Z_(p), greedy rank extension over a field.
    Over every domain it multiplies in Z[x] and ranks on pivot columns.
    """
    domain = S.domain
    if set(map(type, chain.from_iterable(chain.from_iterable(S.bases)))) - {int}:
        raise ValueError("subalgebra bases must hold int rows")
    if domain.tag == "Fp" and not all(_is_reduced_echelon(rows, domain.p) for rows in S.bases):
        raise ValueError("subalgebra bases over F_p must be reduced echelon rows in [0, p)")
    ring = GradedRing(S.ambient.nvars, ZZ)
    gens, alg = {}, {}  # degree -> polynomials in Z[x]
    for d in range(1, S.D + 1):
        basis = S.bases[d]
        piece = graded_piece_basis(ring, S.ambient_degree(d))
        cols = _pivot_columns(basis)
        on_cols = [piece.monomials[j] for j in cols]
        products = [u * v for k, us in gens.items() for u in us for v in alg[d - k]]
        span = _span_on_pivots(
            domain, basis, [[f.terms.get(m, 0) for m in on_cols] for f in products]
        )
        new: list[tuple] = []
        if not _spans(domain, span, basis):
            new = span_complement(domain, span, basis)
            span = _span_on_pivots(domain, basis, [[v[j] for j in cols] for v in list(span) + new])
            if not _spans(domain, span, basis):
                raise RuntimeError(f"generator completion failed in degree {d}")
        if d < S.D:  # no later degree reads the top one
            gens[d] = [polynomial_from_vector(ring, piece, v) for v in new]
            alg[d] = [polynomial_from_vector(ring, piece, v) for v in span]
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
