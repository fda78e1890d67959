"""Normal forms, saturated kernels, and lattice arithmetic."""

import random

import pytest

from invring.linalg import (
    IntegerMatrix,
    cokernel_invariant_factors,
    echelon_mod_p,
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
    saturate_lattice,
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


def test_saturate_lattice():
    sat = saturate_lattice([[2, 2]], 2)
    assert sat == ((1, 1),)
    sat2 = saturate_lattice([[1, 2], [0, 4]], 2)
    assert sat2 == ((1, 0), (0, 1))


def test_lattice_solve_and_member():
    basis = lattice_canonical([[1, 2, 0], [0, 0, 3]], 3)
    assert lattice_member(basis, [2, 4, 3])
    assert not lattice_member(basis, [1, 1, 0])
    coords = lattice_solve(basis, [3, 6, -3])
    assert coords is not None and all(c.denominator == 1 for c in coords)


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
    gens = lattice_complement_generators([[1, 2]], [(1, 0), (0, 1)])
    assert len(gens) == 1
    full = lattice_canonical([[1, 2], list(gens[0])], 2)
    assert full == ((1, 0), (0, 1))


def test_complement_generators_empty_sub():
    gens = lattice_complement_generators([], [(1, 0, 1), (0, 1, 0)])
    assert gens == [(1, 0, 1), (0, 1, 0)]


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
    for p in (2, 3, 5):
        for _ in range(30):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            m = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            r = len(rref_mod_p(m, cols, p)[0])
            k = len(kernel_mod_p(m, cols, p))
            assert r + k == cols


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


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_echelon_mod_p_matches_rref(p):
    rng = random.Random(100 + p)
    for _ in range(60):
        ncols = rng.randint(1, 9)
        rows, basis = _planted_matrix(rng, p, rng.randint(0, 10), ncols, rng.randint(0, 5))
        ech, pivots = echelon_mod_p(rows, ncols, p)
        rref, rref_pivots = rref_mod_p(rows, ncols, p)
        assert len(ech) == len(rref)
        assert pivots == rref_pivots
        for row, col in zip(ech, pivots):
            assert all(x == 0 for x in row[:col]) and row[col] == 1
            assert all(0 <= x < p for x in row)
        probes = [[rng.randrange(p) for _ in range(ncols)] for _ in range(10)]
        for _ in range(10):
            v = [0] * ncols
            for b in basis:
                c = rng.randrange(p)
                v = [x + c * y for x, y in zip(v, b)]
            probes.append(v)
        probes.extend(rows)
        for v in probes:
            assert member_mod_p(ech, v, p) == member_mod_p(rref, v, p)
        assert all(member_mod_p(ech, v, p) for v in rows)
