"""Exact linear algebra over the integers and prime fields.

Hermite and Smith normal forms, saturated kernel lattices, lattice
complements, and row reduction mod p.  All integer work uses Python's
arbitrary-precision ints; nothing here rounds.  Each elimination runs on one
matrix, and its unimodular transform rides along in an identity border
(Cohen, GTM 138, section 2.4; see _hnf_rows and smith_normal_form); callers
that read no transform pass bare rows.  The Hermite pass is a forward
echelon followed by the reduction above the pivots; the kernel's first pass
reads only zero rows, which the echelon already leaves final, and stops there.

Lattices are represented by their rows.  Canonical form throughout is the
row-style Hermite normal form (pivots positive, entries above each pivot
reduced into [0, pivot)), so two lattices are equal iff their canonical row
tuples compare equal.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from .domains import record


class IntegerMatrix:
    """Immutable dense matrix whose entries are ints, bools excluded (ValueError)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols: int | None = None):
        self.data = tuple(map(tuple, data))
        if any(type(x) is not int for row in self.data for x in row):
            raise ValueError("matrix entries must be ints")
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

    def __mul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.data)) if other.rows else [()] * other.cols
        return IntegerMatrix(
            [[sum(map(mul, row, col)) for col in cols] for row in self.data], cols=other.cols
        )

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
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


@record
class SmithForm:
    """Smith decomposition left*M*right = diag(d) with d[i] | d[i+1]."""

    d: tuple[int, ...]
    left: IntegerMatrix
    right: IntegerMatrix


def _identity_border(rows) -> list[list[int]]:
    """Rows of M with the identity attached on the right: M | I."""
    return [list(r) + [int(i == j) for j in range(len(rows))] for i, r in enumerate(rows)]


def _echelon_rows(rows, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Forward stage of _hnf_rows: (rows, pivot columns), with row k leading
    in its k-th pivot column on a positive entry and every row past the
    pivot rows zero on the first ncols columns.

    Each step touches only the rows from the current pivot down, so the zero
    rows, and their border, come out as _hnf_rows leaves them.
    """
    m = [list(r) for r in rows]
    n = len(m)
    pivots: list[int] = []
    for col in range(ncols):
        piv = len(pivots)
        if piv >= n:
            break
        while True:
            nz = [i for i in range(piv, n) if m[i][col]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(m[i][col]), i))
            if i0 != piv:
                m[piv], m[i0] = m[i0], m[piv]
            if m[piv][col] < 0:
                m[piv] = [-x for x in m[piv]]
            p = m[piv][col]
            clean = True
            for i in range(piv + 1, n):
                if m[i][col]:
                    q = m[i][col] // p  # floor keeps remainders in [0, p)
                    if q:
                        m[i] = [a - q * b for a, b in zip(m[i], m[piv])]
                    if m[i][col]:
                        clean = False
            if clean:
                break
        if m[piv][col]:
            pivots.append(col)
    return m, pivots


def _reduce_above_pivots(m: list[list[int]], pivots: list[int]) -> list[list[int]]:
    """Second stage of _hnf_rows: in pivot order, reduce the entries above
    each pivot into [0, pivot) by subtracting multiples of its row."""
    for k, col in enumerate(pivots):
        row = m[k]
        p = row[col]
        for i in range(k):
            q = m[i][col] // p
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], row)]
    return m


def _hnf_rows(rows, ncols: int) -> list[list[int]]:
    """Row HNF with pivots taken in the first ncols columns only.

    Every row operation acts on the whole row, so columns past ncols ride
    along: rows given as M | I come out as H | U with U*M = H, and U is read
    from the border.  Callers that need no transform pass bare rows.
    """
    return _reduce_above_pivots(*_echelon_rows(rows, ncols))


def hermite_normal_form(M: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Row Hermite normal form (H, U) with U unimodular and U*M = H."""
    c = M.cols
    hu = _hnf_rows(_identity_border(M.data), c)
    h = IntegerMatrix([r[:c] for r in hu], cols=c)
    return h, IntegerMatrix([r[c:] for r in hu], cols=M.rows)


def rank(M: IntegerMatrix) -> int:
    return sum(1 for row in _hnf_rows(M.data, M.cols) if any(row))


def unimodular_inverse(M: IntegerMatrix) -> IntegerMatrix:
    """Exact inverse of a unimodular matrix (HNF of a unimodular matrix is I)."""
    h, u = hermite_normal_form(M)
    if h != IntegerMatrix.identity(M.rows):
        raise ValueError("matrix is not unimodular")
    return u


def _smith_diagonal(a: list[list[int]], n: int, c: int) -> tuple[int, ...]:
    """Run the Smith pivot/clear loop on the top-left n x c block of the rows
    a, in place, and return its diagonal.  Columns and rows of a past the
    block only ride along.  A pivot that fails to divide some remaining entry
    takes that entry's row into the pivot row, so the pivot shrinks to a gcd
    and the diagonal forms a divisibility chain.
    """
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
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        p = a[t][t]
        col_clean = True
        for i in range(t + 1, n):
            if a[i][t]:
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
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
            continue
        t += 1
    return tuple(a[i][i] for i in range(min(n, c)))


def smith_normal_form(M: IntegerMatrix) -> SmithForm:
    """Smith normal form with both unimodular transforms.

    The returned diagonal is nonnegative, divisibility-ordered, zeros
    trailing.  The pivot/clear loop runs on [[M, I], [I, 0]]: left is read
    from the border on the right of M, right from the border below it.
    cokernel_invariant_factors reads only d and runs the loop on bare M.
    """
    n, c = M.rows, M.cols
    a = _identity_border(M.data) + [[int(i == j) for j in range(c + n)] for i in range(c)]
    d = _smith_diagonal(a, n, c)
    left = IntegerMatrix([r[c:] for r in a[:n]], cols=n)
    return SmithForm(d=d, left=left, right=IntegerMatrix([r[:c] for r in a[n:]], cols=c))


def integer_kernel_basis(M: IntegerMatrix) -> IntegerMatrix:
    """Basis of the saturated kernel lattice {v : M v = 0}, rows in HNF.

    The kernel of an integer matrix is automatically saturated; the basis
    comes from the unimodular transform rows matching zero HNF rows of M^T,
    so it generates the full kernel, not a finite-index sublattice.  That
    first pass needs only the echelon stage, which leaves the zero rows as
    the full Hermite pass does; the second pass puts them in HNF.
    """
    columns = list(zip(*M.data)) if M.rows else [()] * M.cols
    hu, pivots = _echelon_rows(_identity_border(columns), M.rows)
    k = _hnf_rows([r[M.rows :] for r in hu[len(pivots) :]], M.cols)
    return IntegerMatrix([row for row in k if any(row)], cols=M.cols)


def cokernel_invariant_factors(M: IntegerMatrix) -> tuple[tuple[int, ...], int]:
    """Structure of Z^rows / column-space(M) as (torsion factors > 1, free rank)."""
    d = _smith_diagonal([list(r) for r in M.data], M.rows, M.cols)
    torsion = tuple(x for x in d if x > 1)
    nonzero = sum(1 for x in d if x)
    return torsion, M.rows - nonzero


# ---------------------------------------------------------------------------
# lattice arithmetic on row sets


def lattice_canonical(rows, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Canonical (HNF, zero rows dropped) basis of the lattice spanned by rows."""
    return tuple(tuple(r) for r in _hnf_rows(rows, ncols) if any(r))


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


def _lattice_coordinates(basis, v) -> list[int] | None:
    """Integer coordinates x with x * basis = v, or None if v is outside the
    integer lattice spanned by an HNF basis.

    The same walk as lattice_solve, in integers: each pivot must divide the
    residual entry exactly.
    """
    res = list(v)
    coords = []
    for row in basis:
        j = next((k for k, x in enumerate(row) if x), None)
        if j is None:
            coords.append(0)
            continue
        t, rem = divmod(res[j], row[j])
        if rem:
            return None
        coords.append(t)
        if t:
            res = [r - t * b for r, b in zip(res, row)]
    return None if any(res) else coords


def lattice_member(basis, v) -> bool:
    """True iff v lies in the integer lattice spanned by an HNF basis."""
    return _lattice_coordinates(basis, v) is not None


def lattice_complement_generators(sub_rows, sup_basis, is_unit) -> list[tuple[int, ...]]:
    """A minimal set of sup-lattice vectors generating lattice(sup)/lattice(sub).

    Uses the Smith form of the coordinate matrix: the quotient is
    sum of Z/d_i plus a free part, and the preimages of its standard
    generators are returned for every d_i that is_unit rejects (0 included).
    With the unit test of Z or of Z_(p) the count is the minimal number of
    generators of the quotient over that ring.
    """
    m = len(sup_basis)
    coord_rows = [_lattice_coordinates(sup_basis, s) for s in sub_rows]
    if None in coord_rows:
        raise ValueError("sub lattice is not contained in sup lattice")
    snf = smith_normal_form(IntegerMatrix(coord_rows, cols=m))
    vinv = unimodular_inverse(snf.right)
    picks = [vinv.data[i] for i in range(m) if i >= len(snf.d) or not is_unit(snf.d[i])]
    if not picks:
        return []
    return list((IntegerMatrix(picks) * IntegerMatrix(sup_basis)).data)


# ---------------------------------------------------------------------------
# row reduction over F_p
#
# A row over F_p is packed into one int, entry j in field j counted from the
# least significant end.  A field holds p(p - 1), the largest entry a row
# update v + (p - f) * pivot can leave, so updates never carry between
# fields; that is one byte while p <= 13.  An echelon is a dict
# {lead column: packed row with lead entry 1}, the lead being the lowest
# nonzero field.  The tuple functions below convert only at entry and exit.


@lru_cache(maxsize=None)
def _field_layout(p: int):
    """(field width in bytes, fold) for packed rows over F_p; fold reduces
    every field of a packed row into [0, p)."""
    width = 1
    while p * (p - 1) >> (8 * width):
        width += 1
    if width == 1:
        table = bytes(x % p for x in range(256))

        def fold(v: int) -> int:
            raw = v.to_bytes((v.bit_length() + 7) >> 3, "little")
            return int.from_bytes(raw.translate(table), "little")

    else:
        bits = 8 * width
        mask = (1 << bits) - 1

        def fold(v: int) -> int:
            out = shift = 0
            while v:
                out |= (v & mask) % p << shift
                v >>= bits
                shift += bits
            return out

    return width, fold


def _pack(row, p: int) -> int:
    """Packed form of a row whose entries already lie in [0, p)."""
    width, _ = _field_layout(p)
    if width == 1:
        return int.from_bytes(bytes(row), "little")
    return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in row), "little")


def _unpack(v: int, ncols: int, p: int) -> tuple[int, ...]:
    width, _ = _field_layout(p)
    raw = v.to_bytes(ncols * width, "little")
    if width == 1:
        return tuple(raw)
    return tuple(
        int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)
    )


def _insert(pivots: dict[int, int], rows, p: int) -> int:
    """Extend an echelon by packed rows and return how many it kept.

    Each row is reduced against the pivots until its lead column has none.
    It vanishes iff it lies in the span, so a full echelon absorbs every
    row; otherwise it is scaled to lead 1 and kept under its lead column.  A
    membership test that must leave the echelon unchanged inserts into a copy.
    """
    width, fold = _field_layout(p)
    bits = 8 * width
    mask = (1 << bits) - 1
    before = len(pivots)
    for v in rows:
        while v:
            col = ((v & -v).bit_length() - 1) // bits
            piv = pivots.get(col)
            lead = (v >> (col * bits)) & mask
            if piv is None:
                pivots[col] = v if lead == 1 else fold(v * pow(lead, -1, p))
                break
            v = fold(v + (p - lead) * piv)
    return len(pivots) - before


def rref_mod_p(rows, ncols: int, p: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form over F_p of integer rows, which need not be
    reduced mod p; returns (nonzero rows, pivot columns).

    The forward pass inserts the packed rows into an echelon;
    back-substitution then clears the entries above each pivot, which makes
    the rows canonical.
    """
    pivots: dict[int, int] = {}
    _insert(pivots, (_pack([x % p for x in row], p) for row in rows), p)
    cols = tuple(sorted(pivots))
    m = [pivots[c] for c in cols]
    width, fold = _field_layout(p)
    mask = (1 << (8 * width)) - 1
    for i in range(len(m) - 1, 0, -1):
        shift, piv = 8 * width * cols[i], m[i]
        for j in range(i):
            f = (m[j] >> shift) & mask
            if f:
                m[j] = fold(m[j] + (p - f) * piv)
    return tuple(_unpack(v, ncols, p) for v in m), cols


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
    """True iff v lies in the row space of rref_rows over F_p.

    The rows are already an echelon: each is packed as it stands and kept
    under its lead column, where its entry is 1; v is a member iff inserting
    it into that echelon keeps nothing.  Other rows raise ValueError, since
    _insert could loop forever on them.
    """
    pivots = {}
    for row in rref_rows:
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None or row[lead] != 1 or lead in pivots:
            raise ValueError("rows must be nonzero, lead with 1 and have distinct lead columns")
        pivots[lead] = _pack(row, p)
    return not _insert(pivots, [_pack([x % p for x in v], p)], p)
