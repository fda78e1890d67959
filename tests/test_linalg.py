"""Normal forms, saturated kernels, and lattice arithmetic."""

import random
from fractions import Fraction

import pytest

from invring.domains import ZZ
from invring.linalg import (
    IntegerMatrix,
    _field_layout,
    _hnf_rows,
    _insert,
    _pack,
    _unpack,
    cokernel_invariant_factors,
    hermite_normal_form,
    integer_kernel_basis,
    kernel_mod_p,
    lattice_canonical,
    lattice_complement_generators,
    lattice_member,
    lattice_solve,
    member_mod_p,
    rank,
    rref_mod_p,
    smith_normal_form,
    unimodular_inverse,
)


@pytest.mark.parametrize(
    "m, expect_h",
    [
        ([[2, 0], [0, 3]], [[2, 0], [0, 3]]),
        ([[0, 0], [0, 0]], [[0, 0], [0, 0]]),
        ([[2, 4], [6, 8]], [[2, 0], [0, 4]]),
    ],
)
def test_hnf_examples(m, expect_h):
    M = IntegerMatrix(m)
    h, u = hermite_normal_form(M)
    assert [list(r) for r in h.data] == expect_h
    assert (u * M) == h


def test_hnf_transform_unimodular():
    M = IntegerMatrix([[2, 4], [6, 8]])
    _, u = hermite_normal_form(M)
    assert unimodular_inverse(u) * u == IntegerMatrix.identity(2)


@pytest.mark.parametrize(
    "m, expect_d",
    [
        ([[2, 0], [0, 3]], (1, 6)),
        ([[0, 0], [0, 0]], (0, 0)),
        ([[2, 4], [6, 8]], (2, 4)),
    ],
)
def test_snf_examples(m, expect_d):
    s = smith_normal_form(IntegerMatrix(m))
    assert s.d == expect_d


def test_snf_divisibility_and_reconstruction():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = IntegerMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        s = smith_normal_form(M)
        diag = s.left * M * s.right
        for i in range(rows):
            for j in range(cols):
                expected = s.d[i] if i == j and i < len(s.d) else 0
                assert diag.data[i][j] == expected
        nonzero = [x for x in s.d if x]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # transforms are unimodular: inverses exist over Z
        unimodular_inverse(s.left)
        unimodular_inverse(s.right)


@pytest.mark.parametrize(
    "m, expect",
    [
        ([[1, -1]], [[1, 1]]),
        ([[1, 0], [0, 1]], []),
        ([[2, -2]], [[1, 1]]),
    ],
)
def test_kernel_examples(m, expect):
    k = integer_kernel_basis(IntegerMatrix(m))
    assert [list(r) for r in k.data] == expect


def test_kernel_saturation_invariant():
    rng = random.Random(11)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        M = IntegerMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        k = integer_kernel_basis(M)
        if k.rows:
            s = smith_normal_form(k)
            assert all(x == 1 for x in s.d[: k.rows])
        assert rank(M) + k.rows == cols


def _one_loop_hnf_rows(rows, ncols):
    """The row Hermite pass as one loop: each pivot's upper entries are
    reduced as soon as its column is cleared below."""
    m = [list(r) for r in rows]
    n = len(m)
    piv = 0
    for col in range(ncols):
        if piv >= n:
            break
        while True:
            nz = [i for i in range(piv, n) if m[i][col]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(m[i][col]), i))
            m[piv], m[i0] = m[i0], m[piv]
            if m[piv][col] < 0:
                m[piv] = [-x for x in m[piv]]
            p = m[piv][col]
            clean = True
            for i in range(piv + 1, n):
                if m[i][col]:
                    q = m[i][col] // p
                    if q:
                        m[i] = [a - q * b for a, b in zip(m[i], m[piv])]
                    if m[i][col]:
                        clean = False
            if clean:
                break
        if m[piv][col]:
            p = m[piv][col]
            for i in range(piv):
                q = m[i][col] // p
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[piv])]
            piv += 1
    return m


def _two_full_pass_kernel(M):
    """Kernel rows from a full Hermite pass on (M^T | I), then a second
    Hermite pass on the transform rows of the zero rows."""
    bordered = [
        list(col) + [int(i == j) for j in range(M.cols)]
        for i, col in enumerate(M.transpose().data)
    ]
    hu = _one_loop_hnf_rows(bordered, M.rows)
    k = _one_loop_hnf_rows([r[M.rows :] for r in hu if not any(r[: M.rows])], M.cols)
    return IntegerMatrix([row for row in k if any(row)], cols=M.cols)


def _kernel_cases(rng):
    """Seeded matrices of every shape the kernel meets: empty, zero rows,
    tall, wide, rank-deficient, and the maps s - 1 and Tr of cyclic modules."""
    from invring.cohomology import CyclicModule, _sigma_minus_1
    from invring.domains import QQ

    cases = [IntegerMatrix([], cols=4), IntegerMatrix([[], []], cols=0)]
    for rows, cols in [(1, 1), (3, 3), (6, 3), (3, 6), (5, 8), (8, 5), (7, 7)]:
        for _ in range(12):
            data = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            if rows > 2 and rng.random() < 0.5:  # rank-deficient
                data[-1] = [a * rng.randint(-3, 3) + b for a, b in zip(data[0], data[1])]
            if rng.random() < 0.3:
                data[rng.randrange(rows)] = [0] * cols
            cases.append(IntegerMatrix(data, cols=cols))
    cyclic = [((0, -1), (1, -1)), ((0, -1), (1, 0)), ((1, -1), (1, 0)), ((-1, 0), (0, -1))]
    for n in (3, 4, 5):  # cyclic shifts of a basis
        cyclic.append(tuple(tuple(int(j == (i + 1) % n) for j in range(n)) for i in range(n)))
    for sigma in cyclic:
        order = next(k for k in range(1, 7) if _order_divides(sigma, k))
        for dom in (ZZ, QQ):
            M = CyclicModule(dom, sigma, order)
            cases += [_sigma_minus_1(M), M._trace]
    # over Q, a conjugate with denominators scales s - 1 and Tr by delta
    half = CyclicModule(QQ, ((0, Fraction(1, 2)), (2, 0)), 2)
    return cases + [_sigma_minus_1(half), half._trace]


def _order_divides(sigma, k):
    n = len(sigma)
    power = IntegerMatrix.identity(n)
    for _ in range(k):
        power = power * IntegerMatrix(sigma)
    return power == IntegerMatrix.identity(n)


def test_kernel_matches_two_full_hermite_passes():
    # the first pass stops at an echelon; the kernel rows are the same
    rng = random.Random(27)
    for M in _kernel_cases(rng):
        assert integer_kernel_basis(M) == _two_full_pass_kernel(M), M


def test_hermite_stages_match_one_loop():
    # the echelon and the reduction above the pivots, run as two stages,
    # leave every row, border included, where the one-loop pass leaves it
    rng = random.Random(28)
    for M in _kernel_cases(rng):
        bordered = [list(r) + [int(i == j) for j in range(M.rows)] for i, r in enumerate(M.data)]
        assert _hnf_rows(bordered, M.cols) == _one_loop_hnf_rows(bordered, M.cols), M


@pytest.mark.parametrize(
    "m, expect",
    [
        ([[2]], ((2,), 0)),
        ([[1, 0], [0, 1]], ((), 0)),
        ([[0, 0], [0, 0]], ((), 2)),
    ],
)
def test_cokernel_examples(m, expect):
    assert cokernel_invariant_factors(IntegerMatrix(m)) == expect


@pytest.mark.parametrize("entry", [Fraction(1, 2), 2.7, "7", True], ids=repr)
def test_integer_matrix_rejects_entries_that_are_not_ints(entry):
    # int() would read these as 0, 2, 7 and 1, so the cokernel of
    # diag(entry, 2) would come out without an error
    with pytest.raises(ValueError, match="must be ints"):
        IntegerMatrix([[1, entry]])
    with pytest.raises(ValueError, match="must be ints"):
        cokernel_invariant_factors(IntegerMatrix([[entry, 0], [0, 2]]))


@pytest.mark.parametrize(
    "rows, cols, deficient",
    [(0, 3, False), (3, 0, False), (5, 2, False), (2, 5, False), (4, 4, True)],
    ids=["0xc", "rx0", "tall", "wide", "rank-deficient"],
)
def test_bordered_and_bare_entries_agree(rows, cols, deficient):
    # the Smith loop and the HNF run bordered (transforms read) and bare
    rng = random.Random(rows * 10 + cols)
    for _ in range(25):
        data = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if deficient:
            data[-1] = [a - b for a, b in zip(data[0], data[1])]
        M = IntegerMatrix(data, cols=cols)
        s = smith_normal_form(M)
        assert cokernel_invariant_factors(M) == (
            tuple(x for x in s.d if x > 1),
            rows - sum(1 for x in s.d if x),
        )
        h, u = hermite_normal_form(M)
        assert u * M == h
        diag = s.left * M * s.right
        assert all(
            diag.data[i][j] == (s.d[i] if i == j else 0)
            for i in range(rows)
            for j in range(cols)
        )
        h_rows = [r for r in h.data if any(r)]
        assert rank(M) == len(h_rows)
        assert IntegerMatrix(lattice_canonical(M.data, cols), cols=cols) == IntegerMatrix(
            h_rows, cols=cols
        )
        if deficient:
            assert len(h_rows) < rows


def test_lattice_solve_and_member():
    basis = lattice_canonical([[1, 2, 0], [0, 0, 3]], 3)
    assert lattice_member(basis, [2, 4, 3])
    assert not lattice_member(basis, [1, 1, 0])
    coords = lattice_solve(basis, [3, 6, -3])
    assert coords is not None and all(c.denominator == 1 for c in coords)


def _echelon_basis(rng, ncols):
    """Rows with strictly increasing pivot columns, pivots and entries of
    both signs, and zero rows mixed in."""
    pivots = sorted(rng.sample(range(ncols), rng.randint(1, ncols)))
    rows = []
    for j in pivots:
        row = [0] * ncols
        row[j] = rng.choice([-1, 1]) * rng.randint(1, 6)
        for k in range(j + 1, ncols):
            row[k] = rng.randint(-9, 9)
        rows.append(row)
    for _ in range(rng.randint(0, 2)):
        rows.insert(rng.randint(0, len(rows)), [0] * ncols)
    return rows


def test_lattice_member_matches_rational_solve():
    # the integer walk against the rational coordinates of lattice_solve
    rng = random.Random(11)
    members = 0
    for _ in range(300):
        ncols = rng.randint(1, 5)
        if rng.random() < 0.5:
            basis = _echelon_basis(rng, ncols)
        else:
            raw = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
            basis = [list(r) for r in lattice_canonical(raw, ncols)] + [[0] * ncols]
        for _ in range(8):
            if rng.random() < 0.5:
                # an integer or half-integer combination of the rows
                c = [rng.randint(-4, 4) for _ in basis]
                den = rng.choice([1, 1, 2, 3])
                v = [sum(ci * row[k] for ci, row in zip(c, basis)) for k in range(ncols)]
                v = [x // den if x % den == 0 else x for x in v]
            else:
                v = [rng.randint(-12, 12) for _ in range(ncols)]
            coords = lattice_solve(basis, v)
            want = coords is not None and all(x.denominator == 1 for x in coords)
            assert lattice_member(basis, v) == want, (basis, v)
            members += want
    assert 300 < members < 2000


def test_complement_generators_minimal():
    # <(1,2)> inside Z^2 needs exactly one generator to complete
    gens = lattice_complement_generators([[1, 2]], [(1, 0), (0, 1)], ZZ.is_unit)
    assert len(gens) == 1
    full = lattice_canonical([[1, 2], list(gens[0])], 2)
    assert full == ((1, 0), (0, 1))


def test_complement_generators_empty_sub():
    gens = lattice_complement_generators([], [(1, 0, 1), (0, 1, 0)], ZZ.is_unit)
    assert gens == [(1, 0, 1), (0, 1, 0)]


def test_lattice_quotient_and_complement_of_empty_lattices():
    # the Smith path needs no shortcut for no sub rows or a zero sup lattice
    assert lattice_complement_generators([], [], ZZ.is_unit) == []
    with pytest.raises(ValueError, match="not contained in sup lattice"):
        lattice_complement_generators([[1, 0]], [], ZZ.is_unit)


PRIMES = [2, 3, 5, 7, 11, 13, 17, 31]


@pytest.mark.parametrize("p", PRIMES)
def test_packed_row_update_matches_entrywise(p):
    """fold(a + c * b) on packed rows is the entrywise (a + c * b) mod p, up
    to the largest entry p(p - 1) an update can leave, on rows as wide as 80."""
    _, fold = _field_layout(p)
    rng = random.Random(300 + p)
    cases = [([p - 1] * 80, [p - 1] * 80, p - 1)]
    for _ in range(50):
        ncols = rng.randint(1, 80)
        a = [rng.randrange(p) for _ in range(ncols)]
        b = [rng.randrange(p) for _ in range(ncols)]
        cases.append((a, b, rng.randrange(1, p)))
    for a, b, c in cases:
        assert _unpack(_pack(a, p), len(a), p) == tuple(a)
        got = fold(_pack(a, p) + c * _pack(b, p))
        assert _unpack(got, len(a), p) == tuple((x + c * y) % p for x, y in zip(a, b))


def test_rref_and_kernel_mod_p():
    rows, pivots = rref_mod_p([[2, 4], [1, 2]], 2, 5)
    assert rows == ((1, 2),)
    assert pivots == (0,)
    ker = kernel_mod_p([[1, 2]], 2, 5)
    assert ker == ((1, 2),)  # (-2, 1) rescaled to leading coefficient 1
    assert member_mod_p(rows, [3, 6], 5)
    assert not member_mod_p(rows, [1, 0], 5)
    # membership in RREF rows agrees with the rank test, for members and
    # non-members, with one- and two-byte fields
    rng = random.Random(21)
    seen = set()
    for p in (2, 3, 5, 17):
        for _ in range(40):
            ncols = rng.randint(1, 6)
            m = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rng.randint(0, 4))]
            rref, _ = rref_mod_p(m, ncols, p)
            coeffs = [rng.randrange(p) for _ in rref]
            combo = [sum(c * row[j] for c, row in zip(coeffs, rref)) for j in range(ncols)]
            for v in ([rng.randrange(-p, 2 * p) for _ in range(ncols)], combo):
                member = len(rref_mod_p(list(rref) + [v], ncols, p)[0]) == len(rref)
                assert member_mod_p(rref, v, p) == member
                seen.add((p, member))
    assert len(seen) == 8


@pytest.mark.parametrize(
    "rows",
    [((2, 2),), ((1, 1), (1, 2)), ((0, 0), (0, 1))],
    ids=["lead-2", "shared-lead", "zero-row"],
)
def test_member_mod_p_rejects_rows_that_are_no_echelon(rows):
    # reducing against a lead of 2 never clears it, so the insertion loops
    with pytest.raises(ValueError, match="lead with 1"):
        member_mod_p(rows, [1, 0], 3)


def test_kernel_mod_p_matches_rank():
    rng = random.Random(3)
    for p in (2, 3, 5, 17):
        for _ in range(30):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            m = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            r = len(rref_mod_p(m, cols, p)[0])
            ker = kernel_mod_p(m, cols, p)
            assert r + len(ker) == cols
            assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in m for v in ker)


def _planted_matrix(rng, p, nrows, ncols, rank_cap):
    """Random rows over F_p spanning at most rank_cap dimensions, with zero
    rows and multiples of other rows mixed in."""
    basis = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank_cap)]
    rows = []
    for _ in range(nrows):
        kind = rng.randrange(4)
        if kind == 0:
            rows.append([0] * ncols)
        elif kind == 1 and rows:
            c = rng.randrange(1, p)
            rows.append([c * x + p * rng.randrange(3) for x in rng.choice(rows)])
        else:
            row = [0] * ncols
            for b in basis:
                c = rng.randrange(p)
                row = [x + c * y for x, y in zip(row, b)]
            rows.append(row)
    return rows, basis


def _reduced_against(basis, v, p):
    """v minus its projection on an incremental basis of (pivot, row) pairs."""
    v = [x % p for x in v]
    for col, row in basis:
        f = v[col]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return v


def _incremental_basis(rows, p):
    """Row-by-row basis of the span over F_p, independent of the library."""
    basis = []
    for v in rows:
        v = _reduced_against(basis, v, p)
        col = next((j for j, x in enumerate(v) if x), None)
        if col is not None:
            inv = pow(v[col], -1, p)
            basis.append((col, [x * inv % p for x in v]))
    return basis


def _check_rref(rng, p, rows, basis, ncols):
    rref, pivots = rref_mod_p(rows, ncols, p)
    # the RREF of a row space is unique, so these conditions pin rref
    assert list(pivots) == sorted(set(pivots))
    for i, (row, col) in enumerate(zip(rref, pivots)):
        assert all(x == 0 for x in row[:col])
        assert [r[col] for r in rref] == [int(k == i) for k in range(len(rref))]
        assert all(0 <= x < p for x in row)
    rref_basis = _incremental_basis(rref, p)
    assert len(rref_basis) == len(rref)
    assert not any(any(_reduced_against(rref_basis, v, p)) for v in rows)
    input_basis = _incremental_basis(rows, p)
    assert not any(any(_reduced_against(input_basis, v, p)) for v in rref)
    probes = [[rng.randrange(p) for _ in range(ncols)] for _ in range(10)]
    for _ in range(10):
        v = [0] * ncols
        for b in basis:
            c = rng.randrange(p)
            v = [x + c * y for x, y in zip(v, b)]
        probes.append(v)
    probes.extend(rows)
    for v in probes:
        assert member_mod_p(rref, v, p) == (not any(_reduced_against(input_basis, v, p)))
    assert all(member_mod_p(rref, v, p) for v in rows)


@pytest.mark.parametrize("p", PRIMES)
def test_rref_mod_p_definition_and_membership(p):
    rng = random.Random(100 + p)
    for _ in range(60):
        ncols = rng.randint(1, 9)
        rows, basis = _planted_matrix(rng, p, rng.randint(0, 10), ncols, rng.randint(0, 5))
        _check_rref(rng, p, rows, basis, ncols)
    # rows wider than a machine word, of full and of deficient rank
    for _ in range(6):
        ncols = rng.randint(60, 80)
        rows, basis = _planted_matrix(rng, p, rng.randint(20, 40), ncols, rng.randint(10, 40))
        _check_rref(rng, p, rows, basis, ncols)


@pytest.mark.parametrize("p", [2, 3, 13, 17])
def test_packed_echelon_extends_in_batches(p):
    """Inserting rows in two batches into one echelon gives the span that a
    single batch gives: same rank, same lead columns, same members; each
    insert returns its rank gain."""
    rng = random.Random(200 + p)
    for _ in range(20):
        ncols = rng.randint(1, 70)
        rows, basis = _planted_matrix(rng, p, rng.randint(0, 30), ncols, rng.randint(0, 25))
        packed = [_pack([x % p for x in row], p) for row in rows]
        cut = rng.randint(0, len(packed))
        input_basis = _incremental_basis(rows, p)
        once: dict[int, int] = {}
        assert _insert(once, packed, p) == len(input_basis)
        twice: dict[int, int] = {}
        gain = _insert(twice, packed[:cut], p)
        assert gain == len(_incremental_basis(rows[:cut], p))
        first = dict(twice)
        assert _insert(twice, packed[cut:], p) == len(input_basis) - gain
        assert all(twice[col] == row for col, row in first.items())
        assert len(once) == len(twice) == len(input_basis)
        assert sorted(once) == sorted(twice) == sorted(col for col, _ in input_basis)
        probes = [[rng.randrange(p) for _ in range(ncols)] for _ in range(10)]
        for _ in range(10):
            v = [0] * ncols
            for b in basis:
                v = [x + rng.randrange(p) * y for x, y in zip(v, b)]
            probes.append(v)
        for v in probes:
            inside = not any(_reduced_against(input_basis, v, p))
            w = _pack([x % p for x in v], p)
            assert (_insert(dict(once), [w], p) == 0) == (_insert(dict(twice), [w], p) == 0) == inside
