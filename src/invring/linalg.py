"""Exact linear algebra over the integers and prime fields.

Hermite and Smith normal forms with unimodular transforms, saturated kernel
lattices, lattice quotients and complements, and row reduction mod p.  All
integer work uses Python's arbitrary-precision ints; nothing here rounds.

Lattices are represented by their rows.  Canonical form throughout is the
row-style Hermite normal form (pivots positive, entries above each pivot
reduced into [0, pivot)), so two lattices are equal iff their canonical row
tuples compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class IntegerMatrix:
    """Immutable dense matrix with arbitrary-precision integer entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols: int | None = None):
        self.data = tuple(tuple(int(x) for x in row) for row in data)
        self.rows = len(self.data)
        if self.rows:
            self.cols = len(self.data[0])
            if any(len(r) != self.cols for r in self.data):
                raise ValueError("ragged rows")
            if cols is not None and cols != self.cols:
                raise ValueError("explicit cols disagrees with row length")
        else:
            if cols is None:
                raise ValueError("an empty matrix needs an explicit column count")
            self.cols = cols

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        return IntegerMatrix([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    @staticmethod
    def zero(rows: int, cols: int) -> "IntegerMatrix":
        return IntegerMatrix([[0] * cols for _ in range(rows)], cols=cols)

    def __mul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        ot = other.data
        out = []
        for row in self.data:
            out.append(
                tuple(
                    sum(row[k] * ot[k][j] for k in range(self.cols))
                    for j in range(other.cols)
                )
            )
        return IntegerMatrix(out, cols=other.cols)

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            self.data[i][j] == (1 if i == j else 0)
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntegerMatrix)
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.cols, self.data))

    def __repr__(self):
        return f"IntegerMatrix({[list(r) for r in self.data]!r})"


@dataclass(frozen=True)
class SmithForm:
    """Smith decomposition left*M*right = diag(d) with d[i] | d[i+1]."""

    d: tuple[int, ...]
    left: IntegerMatrix
    right: IntegerMatrix


def _hnf_rows(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[list[int]]]:
    """Row HNF of a mutable row list; returns (H, U) with U*input = H."""
    m = [list(r) for r in rows]
    n = len(m)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    piv = 0
    for col in range(ncols):
        if piv >= n:
            break
        while True:
            nz = [i for i in range(piv, n) if m[i][col]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(m[i][col]), i))
            if i0 != piv:
                m[piv], m[i0] = m[i0], m[piv]
                u[piv], u[i0] = u[i0], u[piv]
            if m[piv][col] < 0:
                m[piv] = [-x for x in m[piv]]
                u[piv] = [-x for x in u[piv]]
            p = m[piv][col]
            clean = True
            for i in range(piv + 1, n):
                if m[i][col]:
                    q = m[i][col] // p  # floor keeps remainders in [0, p)
                    if q:
                        m[i] = [a - q * b for a, b in zip(m[i], m[piv])]
                        u[i] = [a - q * b for a, b in zip(u[i], u[piv])]
                    if m[i][col]:
                        clean = False
            if clean:
                break
        if piv < n and m[piv][col]:
            p = m[piv][col]
            for i in range(piv):
                q = m[i][col] // p
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[piv])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[piv])]
            piv += 1
    return m, u


def hermite_normal_form(M: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Row Hermite normal form (H, U) with U unimodular and U*M = H."""
    h, u = _hnf_rows([list(r) for r in M.data], M.cols)
    return IntegerMatrix(h, cols=M.cols), IntegerMatrix(u, cols=M.rows)


def rank(M: IntegerMatrix) -> int:
    h, _ = _hnf_rows([list(r) for r in M.data], M.cols)
    return sum(1 for row in h if any(row))


def unimodular_inverse(M: IntegerMatrix) -> IntegerMatrix:
    """Exact inverse of a unimodular matrix (HNF of a unimodular matrix is I)."""
    h, u = hermite_normal_form(M)
    if not h.is_identity():
        raise ValueError("matrix is not unimodular")
    return u


def smith_normal_form(M: IntegerMatrix) -> SmithForm:
    """Smith normal form with both unimodular transforms.

    The returned diagonal is nonnegative, divisibility-ordered, zeros
    trailing.  The classical pivot/clear loop is used; when the pivot fails
    to divide some remaining entry, that row is folded into the pivot row so
    the pivot shrinks to a gcd, which guarantees the divisibility chain.
    """
    a = [list(r) for r in M.data]
    n, c = M.rows, M.cols
    left = [[int(i == j) for j in range(n)] for i in range(n)]
    right = [[int(i == j) for j in range(c)] for i in range(c)]
    t = 0
    while t < min(n, c):
        entries = [
            (abs(a[i][j]), i, j)
            for i in range(t, n)
            for j in range(t, c)
            if a[i][j]
        ]
        if not entries:
            break
        _, pi, pj = min(entries)
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            left[t], left[pi] = left[pi], left[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in right:
                row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            left[t] = [-x for x in left[t]]
        p = a[t][t]
        col_clean = True
        for i in range(t + 1, n):
            if a[i][t]:
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    left[i] = [x - q * y for x, y in zip(left[i], left[t])]
                if a[i][t]:
                    col_clean = False
        if not col_clean:
            continue
        row_clean = True
        for j in range(t + 1, c):
            if a[t][j]:
                q = a[t][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                    for row in right:
                        row[j] -= q * row[t]
                if a[t][j]:
                    row_clean = False
        if not row_clean:
            continue
        bad = None
        for i in range(t + 1, n):
            for j in range(t + 1, c):
                if a[i][j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            left[t] = [x + y for x, y in zip(left[t], left[bad])]
            continue
        t += 1
    d = tuple(a[i][i] for i in range(min(n, c)))
    return SmithForm(d=d, left=IntegerMatrix(left, cols=n), right=IntegerMatrix(right, cols=c))


def integer_kernel_basis(M: IntegerMatrix) -> IntegerMatrix:
    """Basis of the saturated kernel lattice {v : M v = 0}, rows in HNF.

    The kernel of an integer matrix is automatically saturated; the basis
    comes from the unimodular transform rows matching zero HNF rows of M^T,
    so it generates the full kernel, not a finite-index sublattice.
    """
    if M.cols == 0:
        return IntegerMatrix([], cols=0)
    if M.rows == 0:
        return IntegerMatrix.identity(M.cols)
    at = M.transpose()
    h, u = _hnf_rows([list(r) for r in at.data], at.cols)
    kernel_rows = [u[i] for i in range(len(h)) if not any(h[i])]
    if not kernel_rows:
        return IntegerMatrix([], cols=M.cols)
    k, _ = _hnf_rows(kernel_rows, M.cols)
    return IntegerMatrix([row for row in k if any(row)], cols=M.cols)


def cokernel_invariant_factors(M: IntegerMatrix) -> tuple[tuple[int, ...], int]:
    """Structure of Z^rows / column-space(M) as (torsion factors > 1, free rank)."""
    snf = smith_normal_form(M)
    torsion = tuple(x for x in snf.d if x > 1)
    nonzero = sum(1 for x in snf.d if x)
    return torsion, M.rows - nonzero


# ---------------------------------------------------------------------------
# lattice arithmetic on row sets


def lattice_canonical(rows, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Canonical (HNF, zero rows dropped) basis of the lattice spanned by rows."""
    rows = [list(r) for r in rows]
    if not rows:
        return ()
    h, _ = _hnf_rows(rows, ncols)
    return tuple(tuple(r) for r in h if any(r))


def saturate_lattice(rows, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Smallest saturated lattice containing the given rows.

    Computed as the kernel of the kernel: sat(L) = ker(N) where the rows of
    N span {v : B v = 0} for a basis B of L.
    """
    basis = lattice_canonical(rows, ncols)
    if not basis:
        return ()
    n = integer_kernel_basis(IntegerMatrix(basis, cols=ncols))
    sat = integer_kernel_basis(n)
    return tuple(sat.data)


def lattice_solve(basis, v) -> list[Fraction] | None:
    """Rational coordinates x with x * basis = v, or None if v is outside the span.

    basis must be in HNF row order (increasing pivot columns).
    """
    res = [Fraction(a) for a in v]
    coords: list[Fraction] = []
    for row in basis:
        j = next((k for k, x in enumerate(row) if x), None)
        if j is None:
            coords.append(Fraction(0))
            continue
        t = res[j] / row[j]
        coords.append(t)
        if t:
            res = [r - t * b for r, b in zip(res, row)]
    if any(res):
        return None
    return coords


def lattice_member(basis, v) -> bool:
    """True iff v lies in the integer lattice spanned by an HNF basis."""
    coords = lattice_solve(basis, v)
    return coords is not None and all(x.denominator == 1 for x in coords)


def lattice_quotient(sub_rows, sup_basis) -> tuple[tuple[int, ...], int]:
    """Invariant factors (>1) and free rank of lattice(sup)/lattice(sub).

    Every sub row must lie in the sup lattice with integer coordinates.
    """
    m = len(sup_basis)
    if m == 0:
        if sub_rows:
            raise ValueError("sub lattice not contained in zero lattice")
        return (), 0
    coord_rows = []
    for s in sub_rows:
        coords = lattice_solve(sup_basis, s)
        if coords is None or any(x.denominator != 1 for x in coords):
            raise ValueError("sub lattice is not contained in sup lattice")
        coord_rows.append([int(x) for x in coords])
    if not coord_rows:
        return (), m
    # quotient of Z^m by the row span = cokernel of the transposed map
    return cokernel_invariant_factors(IntegerMatrix(coord_rows, cols=m).transpose())


def lattice_complement_generators(sub_rows, sup_basis) -> list[tuple[int, ...]]:
    """A minimal set of sup-lattice vectors generating lattice(sup)/lattice(sub).

    Uses the Smith form of the coordinate matrix: the quotient is
    sum of Z/d_i plus a free part, and the preimages of its standard
    generators (those with d_i != 1) are returned.  The count equals the
    minimal number of generators of the quotient.
    """
    m = len(sup_basis)
    if m == 0:
        return []
    if not sub_rows:
        return [tuple(r) for r in sup_basis]
    coord_rows = []
    for s in sub_rows:
        coords = lattice_solve(sup_basis, s)
        if coords is None or any(x.denominator != 1 for x in coords):
            raise ValueError("sub lattice is not contained in sup lattice")
        coord_rows.append([int(x) for x in coords])
    snf = smith_normal_form(IntegerMatrix(coord_rows, cols=m))
    vinv = unimodular_inverse(snf.right)
    picks = [i for i in range(m) if i >= len(snf.d) or snf.d[i] != 1]
    gens = []
    for i in picks:
        vec = [0] * len(sup_basis[0])
        for j in range(m):
            cij = vinv.data[i][j]
            if cij:
                vec = [x + cij * y for x, y in zip(vec, sup_basis[j])]
        gens.append(tuple(vec))
    return gens


# ---------------------------------------------------------------------------
# row reduction over F_p


def rref_mod_p(rows, ncols: int, p: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form over F_p; returns (nonzero rows, pivot columns)."""
    m = [[x % p for x in r] for r in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        sel = next((i for i in range(r, len(m)) if m[i][col]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def echelon_mod_p(rows, ncols: int, p: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Forward row echelon form over F_p; returns (nonzero rows, pivot columns).

    Rows come in pivot order with each pivot scaled to 1; entries above the
    pivots are left unreduced, so the rows are not canonical.  The row count
    is the rank, and member_mod_p accepts the rows as they are.  About half
    the work of rref_mod_p, for callers that need only ranks or membership.
    """
    m = [r for r in ([x % p for x in row] for row in rows) if any(r)]
    out: list[tuple[int, ...]] = []
    pivots: list[int] = []
    for col in range(ncols):
        if not m:
            break
        sel = next((i for i, row in enumerate(m) if row[col]), None)
        if sel is None:
            continue
        piv = m.pop(sel)
        if piv[col] != 1:
            inv = pow(piv[col], -1, p)
            piv = [(x * inv) % p for x in piv]
        rest = []
        for row in m:
            f = row[col]
            if f:
                row = [(x - f * y) % p for x, y in zip(row, piv)]
                if not any(row):
                    continue
            rest.append(row)
        m = rest
        out.append(tuple(piv))
        pivots.append(col)
    return tuple(out), tuple(pivots)


def kernel_mod_p(rows, ncols: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the right kernel {v : M v = 0} over F_p."""
    rref, pivots = rref_mod_p(rows, ncols, p)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [0] * ncols
        v[j] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-rref[i][j]) % p
        basis.append(v)
    canon, _ = rref_mod_p(basis, ncols, p)
    return canon


def member_mod_p(rref_rows, v, p: int) -> bool:
    """True iff v lies in the row space of rows from rref_mod_p or echelon_mod_p."""
    res = [x % p for x in v]
    for row in rref_rows:
        j = next((k for k, x in enumerate(row) if x), None)
        if j is None:
            continue
        if res[j]:
            f = res[j]
            res = [(x - f * y) % p for x, y in zip(res, row)]
    return not any(res)
