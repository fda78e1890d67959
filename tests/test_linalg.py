"""Normal forms, saturated kernels, and lattice arithmetic."""

import random

import pytest

from invring.domains import ZZ
from invring.linalg import (
    IntegerMatrix,
    _field_layout,
    _insert,
    _pack,
    _reduce,
    _unpack,
    cokernel_invariant_factors,
    hermite_normal_form,
    integer_kernel_basis,
    kernel_mod_p,
    lattice_canonical,
    lattice_complement_generators,
    lattice_member,
    lattice_quotient,
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


def test_lattice_quotient_orientation():
    # Z^2 / <(-2,0),(0,2),(-4,0)> has no free part and torsion (2, 2)
    torsion, free = lattice_quotient(
        [[-2, 0], [0, 2], [-4, 0]], [(1, 0), (0, 1)]
    )
    assert torsion == (2, 2)
    assert free == 0


def test_lattice_quotient_free_part():
    torsion, free = lattice_quotient([[1, 2]], [(1, 0), (0, 1)])
    assert torsion == ()
    assert free == 1


def test_complement_generators_minimal():
    # <(1,2)> inside Z^2 needs exactly one generator to complete
    gens = lattice_complement_generators([[1, 2]], [(1, 0), (0, 1)], ZZ.is_unit)
    assert len(gens) == 1
    full = lattice_canonical([[1, 2], list(gens[0])], 2)
    assert full == ((1, 0), (0, 1))


def test_complement_generators_empty_sub():
    gens = lattice_complement_generators([], [(1, 0, 1), (0, 1, 0)], ZZ.is_unit)
    assert gens == [(1, 0, 1), (0, 1, 0)]


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
    single batch gives: same rank, same lead columns, same members."""
    rng = random.Random(200 + p)
    for _ in range(20):
        ncols = rng.randint(1, 70)
        rows, basis = _planted_matrix(rng, p, rng.randint(0, 30), ncols, rng.randint(0, 25))
        packed = [_pack([x % p for x in row], p) for row in rows]
        cut = rng.randint(0, len(packed))
        once: dict[int, int] = {}
        _insert(once, packed, p)
        twice: dict[int, int] = {}
        _insert(twice, packed[:cut], p)
        first = dict(twice)
        _insert(twice, packed[cut:], p)
        assert all(twice[col] == row for col, row in first.items())
        input_basis = _incremental_basis(rows, p)
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
            assert (_reduce(once, w, p) == 0) == (_reduce(twice, w, p) == 0) == inside
