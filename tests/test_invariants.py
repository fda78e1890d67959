"""Invariant bases, transfer and Reynolds maps, Veronese subrings."""

import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest

from invring import invariants
from invring.domains import GF, QQ, ZZ, Z_local, integer_form, mat_from_rows
from invring.fixtures import GROUP_GENERATORS, fixture_group, fixture_group_names
from invring.groups import MatrixGroup, enumerate_group, sylow_subgroup, trivial_group
from invring.invariants import (
    IndexNotInvertible,
    NotHInvariant,
    StandardGradedReport,
    _blocks,
    _is_reduced_echelon,
    _pivot_columns,
    _span_on_pivots,
    _spans,
    canonical_span,
    hilbert_function,
    invariant_basis,
    is_standard_graded_up_to,
    minimal_generators_up_to,
    span_complement,
    trace_average_invariant_count,
    transfer,
    truncated_invariant_ring,
    veronese,
)
from invring.linalg import (
    IntegerMatrix,
    integer_kernel_basis,
    kernel_mod_p,
    lattice_solve,
    member_mod_p,
)
from invring.poly import (
    GradedRing,
    act,
    action_matrix,
    graded_piece_basis,
    polynomial_from_vector,
)

R2 = GradedRing(2, ZZ)
SWAP = enumerate_group([[[0, 1], [1, 0]]], ZZ)
MINUS_I = enumerate_group([[[-1, 0], [0, -1]]], ZZ)
S3_GENS = [
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
]


def _polys(ring, d, rows):
    piece = graded_piece_basis(ring, d)
    return [polynomial_from_vector(ring, piece, r) for r in rows]


def test_invariant_basis_swap_degree1():
    rows = invariant_basis(SWAP, R2, 1)
    assert rows == ((1, 1),)


@pytest.mark.parametrize("dom", [ZZ, QQ, GF(3), Z_local(3)], ids=str)
def test_invariant_basis_trivial_group(dom):
    rows = invariant_basis(trivial_group(2, dom), GradedRing(2, dom), 2)
    assert rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_invariant_basis_minus_identity():
    assert invariant_basis(MINUS_I, R2, 1) == ()
    assert invariant_basis(MINUS_I, R2, 2) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_invariant_basis_saturated():
    # x^2 + y^2 and x*y generate the swap-invariant lattice in degree 2;
    # the basis must contain x*y itself, not only 2*x*y
    rows = invariant_basis(SWAP, R2, 2)
    from invring.linalg import smith_normal_form, IntegerMatrix

    s = smith_normal_form(IntegerMatrix([list(r) for r in rows]))
    assert all(x == 1 for x in s.d[: len(rows)])


def test_reynolds_swap_over_q():
    # the Reynolds operator is the transfer from the trivial group
    ring = GradedRing(2, QQ)
    G = enumerate_group([[[0, 1], [1, 0]]], QQ)
    one = trivial_group(2, QQ)
    X = ring.variable(0)
    Y = ring.variable(1)
    r = transfer(X, G, one)
    assert r == (X + Y).scale(Fraction(1, 2))
    assert transfer(r, G, one) == r  # idempotent projector
    for g in G.elements:
        assert act(g, r) == r


def test_reynolds_not_invertible_over_z():
    with pytest.raises(IndexNotInvertible):
        transfer(R2.variable(0), SWAP, trivial_group(2, ZZ))


@pytest.mark.parametrize("dom", [QQ, Z_local(5), GF(5), GF(7)], ids=str)
@pytest.mark.parametrize("name", ["s3", "rot3", "swap", "a3"])
def test_reynolds_is_the_group_average(name, dom):
    G = fixture_group(name, dom)
    ring = GradedRing(G.n, dom)
    X = ring.variable(0)
    f = X * X * ring.variable(G.n - 1) + X
    average = ring.zero_poly
    for g in G.elements:
        average = average + act(g, f)
    assert transfer(f, G, trivial_group(G.n, dom)) == average.scale(dom.inv(G.order))


def test_transfer_identity_when_h_equals_g():
    ring = GradedRing(2, Z_local(3))
    G = enumerate_group([[[0, 1], [1, 0]]], Z_local(3))
    f = ring.variable(0) + ring.variable(1)
    assert transfer(f, G, G) == f


def test_transfer_s3_a3_explicit():
    ring = GradedRing(3, Z_local(3))
    G = enumerate_group(S3_GENS, Z_local(3))
    H = sylow_subgroup(G, 3)
    X, Y, Z = (ring.variable(i) for i in range(3))
    f = X * X * Y + Y * Y * Z + Z * Z * X
    psi = transfer(f, G, H)
    tau = tuple(tuple(Fraction(x) for x in row) for row in [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    expected = (f + act(tau, f)).scale(Fraction(1, 2))
    assert psi == expected
    # the result is G-invariant
    for g in G.elements:
        assert act(g, psi) == psi


def test_transfer_splits_inclusion():
    ring = GradedRing(3, Z_local(3))
    G = enumerate_group(S3_GENS, Z_local(3))
    H = sylow_subgroup(G, 3)
    f = ring.variable(0) * ring.variable(1) * ring.variable(2)
    assert transfer(f, G, H) == f


def test_transfer_rejects_non_h_invariant():
    ring = GradedRing(3, Z_local(3))
    G = enumerate_group(S3_GENS, Z_local(3))
    H = sylow_subgroup(G, 3)
    with pytest.raises(NotHInvariant):
        transfer(ring.variable(0), G, H)


def test_transfer_index_not_invertible():
    ring = GradedRing(3, Z_local(2))
    G = enumerate_group(S3_GENS, Z_local(2))
    H = sylow_subgroup(G, 3)  # index 2, not a unit in Z_(2)
    f = ring.variable(0) * ring.variable(1) * ring.variable(2)
    with pytest.raises(IndexNotInvertible):
        transfer(f, G, H)


def test_transfer_rg_linear():
    ring = GradedRing(3, Z_local(3))
    G = enumerate_group(S3_GENS, Z_local(3))
    H = sylow_subgroup(G, 3)
    X, Y, Z = (ring.variable(i) for i in range(3))
    s = X + Y + Z  # G-invariant
    f = X * X * Y + Y * Y * Z + Z * Z * X  # H-invariant only
    assert transfer(s * f, G, H) == s * transfer(f, G, H)


def test_hilbert_functions():
    assert hilbert_function(truncated_invariant_ring(SWAP, R2, 5)).values == (
        1, 1, 2, 2, 3, 3,
    )
    assert hilbert_function(
        truncated_invariant_ring(trivial_group(2, ZZ), R2, 3)
    ).values == (1, 2, 3, 4)
    assert hilbert_function(truncated_invariant_ring(MINUS_I, R2, 5)).values == (
        1, 0, 3, 0, 5, 0,
    )


def test_veronese_identity_and_composition():
    S = truncated_invariant_ring(MINUS_I, R2, 12)
    assert veronese(S, 1).bases == S.bases
    v6 = veronese(S, 6)
    v23 = veronese(veronese(S, 2), 3)
    assert v6.bases == v23.bases
    assert v6.regrade == v23.regrade == 6


def test_truncation_and_veronese_indices_are_checked():
    with pytest.raises(ValueError, match="at least 1"):
        truncated_invariant_ring(MINUS_I, R2, 0)
    S = truncated_invariant_ring(MINUS_I, R2, 4)
    with pytest.raises(ValueError, match="must be positive"):
        veronese(S, 0)
    with pytest.raises(ValueError, match="exceeds the truncation degree"):
        veronese(S, 5)
    assert veronese(S, 4).D == 1


def test_veronese_trivial_group():
    S = truncated_invariant_ring(trivial_group(2, ZZ), R2, 7)
    v = veronese(S, 2)
    assert hilbert_function(v).values == (1, 3, 5, 7)


def test_veronese_invariants_commute():
    # invariants of the Veronese equal the Veronese of the invariants
    S = truncated_invariant_ring(MINUS_I, R2, 8)
    v = veronese(S, 2)
    for d in range(v.D + 1):
        assert v.bases[d] == invariant_basis(MINUS_I, R2, 2 * d)


def test_standard_graded_reports():
    triv = truncated_invariant_ring(trivial_group(2, ZZ), R2, 6)
    assert is_standard_graded_up_to(triv).standard
    smi = truncated_invariant_ring(MINUS_I, R2, 6)
    rep = is_standard_graded_up_to(smi)
    assert not rep.standard and rep.first_failing_degree == 2
    assert is_standard_graded_up_to(veronese(smi, 2)).standard


def test_standard_graded_is_exact_over_z():
    # the swap invariants in degree 2 are NOT spanned by products of degree-1
    # invariants over Z ((x+y)^2 misses x*y), even though ranks agree over Q
    S = truncated_invariant_ring(SWAP, R2, 4)
    rep = is_standard_graded_up_to(S)
    assert not rep.standard and rep.first_failing_degree == 2


def test_minimal_generators():
    S = truncated_invariant_ring(SWAP, R2, 8)
    gens = minimal_generators_up_to(S)
    assert [(d, str(p)) for d, p in gens] == [(1, "X + Y"), (2, "X*Y")]
    smi = truncated_invariant_ring(MINUS_I, R2, 8)
    gens2 = minimal_generators_up_to(smi)
    assert [(d, str(p)) for d, p in gens2] == [
        (2, "X^2"), (2, "X*Y"), (2, "Y^2"),
    ]
    triv = truncated_invariant_ring(trivial_group(2, ZZ), R2, 5)
    assert [(d, str(p)) for d, p in minimal_generators_up_to(triv)] == [
        (1, "X"), (1, "Y"),
    ]


def test_minimal_generators_over_fp():
    ring = GradedRing(2, GF(2))
    G = enumerate_group([[[0, 1], [1, 0]]], GF(2))
    S = truncated_invariant_ring(G, ring, 6)
    gens = minimal_generators_up_to(S)
    assert [d for d, _ in gens] == [1, 2]


B3_GENS = S3_GENS + [[[-1, 0, 0], [0, 1, 0], [0, 0, 1]]]  # signed permutations
S4_GENS = [
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
]


@pytest.mark.parametrize(
    "gens, dom, D, degrees",
    [
        # sign changes leave the even monomials, and Z[x^2, y^2, z^2]^S3 is
        # generated by the elementary symmetric functions of the squares
        (B3_GENS, ZZ, 6, [2, 4, 6]),
        (B3_GENS, Z_local(2), 6, [2, 4, 6]),
        (B3_GENS, GF(3), 6, [2, 4, 6]),
        # -1 = 1 over F_2, so only S3 acts
        (B3_GENS, GF(2), 3, [1, 2, 3]),
        (S4_GENS, GF(2), 4, [1, 2, 3, 4]),
    ],
    ids=["B3-Z", "B3-Z_(2)", "B3-F3", "B3-F2", "S4-F2"],
)
def test_generator_degrees_of_signed_and_symmetric_groups(gens, dom, D, degrees):
    G = enumerate_group(gens, dom)
    S = truncated_invariant_ring(G, GradedRing(G.n, dom), D)
    assert [d for d, _ in minimal_generators_up_to(S)] == degrees


def test_b3_veronese_is_not_standard_graded():
    # S_2 has rank 1 (x^2 + y^2 + z^2) and S_4 rank 2, so the square of the
    # one regraded degree-1 element cannot span regraded degree 2
    S = truncated_invariant_ring(enumerate_group(B3_GENS, ZZ), GradedRing(3, ZZ), 4)
    V = veronese(S, 2)
    assert [len(b) for b in V.bases] == [1, 1, 2]
    rep = is_standard_graded_up_to(V)
    assert not rep.standard and rep.first_failing_degree == 2


def _all_splits_generators(S):
    """Reference generators: degree d spans the products of every pair of
    lower pieces of the generated subalgebra, over all splits e + (d - e)."""
    gens, alg = [], {}
    for d in range(1, S.D + 1):
        products = []
        for e in range(1, d // 2 + 1):
            products += S.piece_products(e, alg[e], d - e, alg[d - e])
        span = canonical_span(S.domain, products, S.piece_dim(d))
        new = span_complement(S.domain, span, S.bases[d])
        gens += [(d, str(p)) for p in S.piece_polynomials(d, new)]
        alg[d] = canonical_span(S.domain, list(span) + new, S.piece_dim(d))
    return gens


def _degree_one_powers_fail(S):
    """Reference check: the first degree the powers of S_1 do not span."""
    span = S.bases[1]
    for d in range(2, S.D + 1):
        products = S.piece_products(1, S.bases[1], d - 1, span)
        span = canonical_span(S.domain, products, S.piece_dim(d))
        c = canonical_span(S.domain, list(span) + list(S.bases[d]), S.piece_dim(d))
        if not (_spans(S.domain, span, c) and _spans(S.domain, S.bases[d], c)):
            return d
    return None


def _walk_ring(name, dom, D=6):
    """The invariant ring of a fixture group through D, or of S4 through 6
    or B3 through 8."""
    if name in ("S4", "B3"):
        G = enumerate_group(S4_GENS if name == "S4" else B3_GENS, dom)
        D = 6 if name == "S4" else 8
    else:
        G = fixture_group(name, dom)
    return truncated_invariant_ring(G, GradedRing(G.n, dom), D)


@pytest.mark.parametrize(
    "name, dom",
    [
        pytest.param(name, dom, id=f"{name}-{dom}")
        for name, doms in [(n, (ZZ, QQ, GF(2), GF(3), Z_local(3))) for n in fixture_group_names()]
        + [(n, (ZZ, QQ, GF(2), GF(3), Z_local(2), Z_local(3))) for n in ("S4", "B3")]
        for dom in doms
    ],
)
def test_generator_walk_matches_all_splits_reference(name, dom):
    S = _walk_ring(name, dom)
    for T in (S, veronese(S, 2)):
        assert [(d, str(p)) for d, p in minimal_generators_up_to(T)] == _all_splits_generators(T)
        fail = _degree_one_powers_fail(T)
        assert is_standard_graded_up_to(T) == StandardGradedReport(fail is None, fail, T.D)


@pytest.mark.parametrize("dom", [ZZ, QQ, GF(2), GF(3), GF(5), Z_local(2), Z_local(3)], ids=str)
@pytest.mark.parametrize("name", fixture_group_names())
def test_pivot_column_lift_matches_canonical_span(name, dom):
    # the products of every pair of lower basis pieces, ranked on the pivot
    # columns of the basis and lifted back, span exactly what the Hermite
    # form (the RREF over F_p) over all columns does
    S = _walk_ring(name, dom, D=8)
    for T in (S, veronese(S, 2)):
        for d in range(1, T.D + 1):
            basis = T.bases[d]
            cols = _pivot_columns(basis)
            products = [
                v
                for e in range(1, d // 2 + 1)
                for v in T.piece_products(e, T.bases[e], d - e, T.bases[d - e])
            ]
            got = _span_on_pivots(dom, basis, [[int(v[j]) for j in cols] for v in products])
            assert got == canonical_span(dom, products, T.piece_dim(d)), (name, T.regrade, d)
            assert all(type(x) is int for row in got for x in row)


def test_pivot_column_lift_refuses_a_vector_outside_the_lattice():
    # on the lattice spanned by (2, 2), whose pivot column is 0, the entry 4
    # lifts to (4, 4) and the entry 3 lies on no lattice vector
    basis = ((2, 2),)
    assert _span_on_pivots(ZZ, basis, [[4]]) == ((4, 4),)
    with pytest.raises(RuntimeError, match="outside the lattice"):
        _span_on_pivots(ZZ, basis, [[3]])


@pytest.mark.parametrize("dom", [ZZ, QQ, Z_local(2), Z_local(3)], ids=str)
@pytest.mark.parametrize("name", fixture_group_names())
def test_bases_are_int_rows(name, dom):
    G = fixture_group(name, dom)
    S = truncated_invariant_ring(G, GradedRing(G.n, dom), 6)
    for T in (S, veronese(S, 2), veronese(S, 3)):
        assert all(type(row) is tuple for rows in T.bases for row in rows)
        assert all(type(x) is int for rows in T.bases for row in rows for x in row)


def test_walk_refuses_a_non_integral_basis_row():
    S = truncated_invariant_ring(enumerate_group([[[0, 1], [1, 0]]], QQ), GradedRing(2, QQ), 3)
    bad = dataclasses.replace(S, bases=(S.bases[0], ((Fraction(1, 2), Fraction(1, 2)),)) + S.bases[2:])
    with pytest.raises(ValueError, match="int rows"):
        minimal_generators_up_to(bad)
    with pytest.raises(ValueError, match="int rows"):
        is_standard_graded_up_to(bad)


@pytest.mark.parametrize(
    "rows",
    [
        ((2, 0), (0, 1)),
        ((1, 3), (0, 1)),
        ((1, -1), (0, 1)),
        ((1, 2), (0, 1)),
        ((0, 1), (1, 0)),
        ((1, 0), (0, 0)),
    ],
    ids=["lead-2", "entry-p", "entry-negative", "above-pivot", "unordered", "zero-row"],
)
def test_walk_refuses_a_basis_over_fp_that_is_not_reduced_echelon(rows):
    # the lift reads coordinates straight off the pivot columns, so over F_3
    # the degree-1 rows must be reduced echelon rows with entries in [0, 3)
    dom = GF(3)
    S = truncated_invariant_ring(trivial_group(2, dom), GradedRing(2, dom), 2)
    assert [d for d, _ in minimal_generators_up_to(S)] == [1, 1]
    bad = dataclasses.replace(S, bases=(S.bases[0], rows, S.bases[2]))
    with pytest.raises(ValueError, match="reduced echelon"):
        minimal_generators_up_to(bad)
    with pytest.raises(ValueError, match="reduced echelon"):
        is_standard_graded_up_to(bad)


def _entrywise_reduced_echelon(rows, p):
    """The RREF rule checked entry by entry: no zero row, strictly
    increasing leads, entries in [0, p), and on each lead column a 1 in its
    own row and 0 in the others."""
    leads = [next((j for j, x in enumerate(row) if x), None) for row in rows]
    row_of = {j: k for k, j in enumerate(leads)}
    return None not in leads and leads == sorted(set(leads)) and all(
        0 <= x < p and (j not in row_of or x == (row_of[j] == i))
        for i, row in enumerate(rows) for j, x in enumerate(row)
    )


@pytest.mark.parametrize("p", [2, 3])
def test_reduced_echelon_check_matches_entrywise_rule(p):
    rng = random.Random(p)
    seen = set()
    for _ in range(3000):
        ncols = rng.randint(1, 4)
        rows = tuple(
            tuple(rng.choice([0, 0, 0, 1, 1, 2, p, -1]) for _ in range(ncols))
            for _ in range(rng.randint(0, 3))
        )
        want = _entrywise_reduced_echelon(rows, p)
        assert _is_reduced_echelon(rows, p) == want, rows
        seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("dom", [QQ, Z_local(2), Z_local(3)], ids=str)
def test_span_bookkeeping_over_q_and_zlocal(dom):
    # s3 is generated by the elementary symmetric polynomials e1, e2, e3, so
    # degree 2 is not spanned by degree-1 products; the even part of the
    # minus-identity ring is generated by the three quadratic monomials
    S = truncated_invariant_ring(fixture_group("s3", dom), GradedRing(3, dom), 6)
    assert [d for d, _ in minimal_generators_up_to(S)] == [1, 2, 3]
    report = is_standard_graded_up_to(S)
    assert not report.standard and report.first_failing_degree == 2
    ring = GradedRing(2, dom)
    V = veronese(truncated_invariant_ring(fixture_group("minus-identity", dom), ring, 8), 2)
    assert is_standard_graded_up_to(V).standard
    assert [d for d, _ in minimal_generators_up_to(V)] == [1, 1, 1]


@pytest.mark.parametrize(
    "dom, row, expected",
    [
        (ZZ, (Fraction(1, 2), 0), ValueError),
        (Z_local(3), (Fraction(1, 3), 1), ValueError),
        (QQ, (0.5, 1), ValueError),
        (GF(3), (Fraction(1, 2), 1), ((1, 2),)),
        (Z_local(3), (Fraction(1, 2), 1), ((1, 2),)),
        (QQ, (Fraction(1, 2), Fraction(-1, 3)), ((3, -2),)),
    ],
    ids=["Z-half", "Z3-third", "Q-float", "F3-half", "Z3-half", "Q-fractions"],
)
def test_canonical_span_brings_other_entries_into_the_domain(dom, row, expected):
    # a denominator must be a unit of the domain: 2 is none over Z and 3 none
    # over Z_(3), so those rows are refused; over F_3 1/2 is 2, and a float
    # is no scalar
    if expected is ValueError:
        with pytest.raises(ValueError):
            canonical_span(dom, [row], 2)
    else:
        assert canonical_span(dom, [row, (0, 0)], 2) == expected


def test_span_membership_is_p_local():
    # 2 is a unit in Q and Z_(3) but not in Z or Z_(2), so (1, 0) lies in
    # the span of (2, 0) over Q and Z_(3) only
    rows, v = ((2, 0),), (1, 0)
    for dom, inside in ((QQ, True), (Z_local(3), True), (ZZ, False), (Z_local(2), False)):
        assert _spans(dom, rows, canonical_span(dom, [*rows, v], 2)) == inside, dom


@pytest.mark.parametrize("dom", [ZZ, QQ, GF(2), Z_local(3)], ids=str)
def test_canonical_span_of_no_rows_or_zero_rows_is_empty(dom):
    # zero rows are dropped by the RREF and the Hermite form themselves;
    # over F_2 the row (2, 4, 0) is zero as well
    zeros = [(0, 0, 0), [dom.zero] * 3] + ([(2, 4, 0)] if dom.tag == "Fp" else [])
    assert canonical_span(dom, [], 3) == ()
    assert canonical_span(dom, zeros, 3) == ()
    assert canonical_span(dom, [*zeros, (0, 1, 0)], 3) == ((0, 1, 0),)


def _reference_member(dom, rows, v):
    """Membership read off the rational coordinates of v in the rows, or
    over F_p by reduction against the RREF rows."""
    if dom.tag == "Fp":
        return member_mod_p(rows, v, dom.p)
    coords = lattice_solve(rows, v)
    if coords is None:
        return False
    if dom == QQ:
        return True
    if dom == ZZ:
        return all(c.denominator == 1 for c in coords)
    return all(c.denominator % dom.p for c in coords)


@pytest.mark.parametrize("dom", [ZZ, QQ, GF(2), GF(3), Z_local(2), Z_local(3)], ids=str)
def test_span_rule_matches_rational_coordinates(dom):
    # Hermite row sets of lattices that are not saturated: each row of a
    # random integer set is scaled by 1, 2, 3 or 6 before the Hermite form
    # (before the RREF over F_p, where a scale divisible by p drops the row)
    rng = random.Random(7)
    scales = (1, 1, 2, 3, 6)
    member_counts = [0, 0]
    equal_counts = [0, 0]
    for _ in range(150):
        ncols = rng.randint(1, 4)
        raw = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rng.randint(1, 3))]
        a = canonical_span(dom, [[rng.choice(scales) * x for x in r] for r in raw], ncols)
        b = canonical_span(dom, [[rng.choice(scales) * x for x in r] for r in raw], ncols)
        probes = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(3)]
        for _ in range(3):
            c = [rng.randint(-2, 2) for _ in raw]
            probes.append([sum(ci * r[k] for ci, r in zip(c, raw)) for k in range(ncols)])
        for v in probes:
            want = _reference_member(dom, a, v)
            assert _spans(dom, a, canonical_span(dom, [*a, v], ncols)) == want, (a, v)
            member_counts[want] += 1
        want = all(_reference_member(dom, b, v) for v in a) and all(
            _reference_member(dom, a, v) for v in b
        )
        c = canonical_span(dom, list(a) + list(b), ncols)
        assert (_spans(dom, a, c) and _spans(dom, b, c)) == want, (a, b)
        equal_counts[want] += a != b
    assert min(member_counts) > 50
    assert equal_counts[True] > 10 or dom.tag in ("Z", "Fp")  # canonical forms
    assert equal_counts[False] > 10 or dom == QQ


def _permutation(images):
    n = len(images)
    return [[int(images[j] == i) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "images, D, over_q",
    [
        ((1, 0, 3, 2, 5, 4), 3, [1, 1, 1, 2, 2, 2, 2, 2, 2]),
        ((1, 2, 3, 0), 5, [1, 2, 2, 3, 3, 4, 4]),
    ],
    ids=["swap-three-pairs", "cycle-four"],
)
def test_generators_over_zlocal_are_minimal(images, D, over_q):
    # over Z_(p) with p prime to |G| the generator degrees are those over Q;
    # over Z and Z_(2) one more generator is needed in the top degree
    degrees = {}
    for dom in (QQ, ZZ, Z_local(2), Z_local(3), Z_local(7)):
        G = enumerate_group([_permutation(images)], dom)
        S = truncated_invariant_ring(G, GradedRing(len(images), dom), D)
        degrees[dom] = [d for d, _ in minimal_generators_up_to(S)]
    assert degrees[QQ] == degrees[Z_local(3)] == degrees[Z_local(7)] == over_q
    assert degrees[ZZ] == degrees[Z_local(2)] == over_q + [D]


def test_molien_count_matches_rank():
    ring = GradedRing(2, QQ)
    for gens in ([[[0, 1], [1, 0]]], [[[-1, 0], [0, -1]]], [[[0, -1], [1, -1]]]):
        G = enumerate_group(gens, QQ)
        for d in range(9):
            cnt = trace_average_invariant_count(G, ring, d)
            assert cnt == len(invariant_basis(G, ring, d))


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _det_one_minus_tg(g):
    """Coefficients in t of det(I - t g), by the Leibniz expansion."""
    n = len(g)
    entries = [
        [[Fraction(int(i == j)), -Fraction(g[i][j])] for j in range(n)] for i in range(n)
    ]
    det = [Fraction(0)] * (n + 1)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i) if perm[j] > perm[i])
        term = [Fraction((-1) ** inversions)]
        for i in range(n):
            term = _poly_mul(term, entries[i][perm[i]])
        det = [x + y for x, y in zip(det, term)]
    return det


def _molien_coefficients(G, D):
    """Coefficients through t^D of (1/|G|) sum_g 1/det(I - t g)."""
    total = [Fraction(0)] * (D + 1)
    for g in G.elements:
        q = _det_one_minus_tg(g)
        inv = [Fraction(1)]
        for d in range(1, D + 1):
            inv.append(-sum(q[k] * inv[d - k] for k in range(1, min(d, len(q) - 1) + 1)))
        total = [x + y for x, y in zip(total, inv)]
    return [x / G.order for x in total]


@pytest.mark.parametrize("name", fixture_group_names())
def test_hilbert_function_matches_molien_series(name):
    """Molien's theorem: in characteristic 0 the Hilbert series of R^G is
    (1/|G|) sum_g 1/det(I - t g)."""
    G = fixture_group(name, QQ)
    S = truncated_invariant_ring(G, GradedRing(G.n, QQ), 8)
    assert list(hilbert_function(S).values) == _molien_coefficients(G, 8)


def test_invariant_basis_over_zlocal_matches_z():
    Gz = enumerate_group(S3_GENS, ZZ)
    Gl = enumerate_group(S3_GENS, Z_local(3))
    rz = GradedRing(3, ZZ)
    rl = GradedRing(3, Z_local(3))
    for d in range(5):
        assert invariant_basis(Gz, rz, d) == invariant_basis(Gl, rl, d)


# ---------------------------------------------------------------------------
# per-block kernels against the kernel of the whole stacked system

DOMAINS = [ZZ, QQ, GF(2), GF(3), GF(5), Z_local(2), Z_local(3)]
# Weyl group of A3 on its root lattice: simple reflections, not monomial
W_A3_GENS = [
    [[-1, 1, 0], [0, 1, 0], [0, 0, 1]],
    [[1, 0, 0], [1, -1, 1], [0, 0, 1]],
    [[1, 0, 0], [0, 1, 0], [0, 1, -1]],
]
HALF_SWAP_GENS = [[[0, 2], [Fraction(1, 2), 0]]]  # non-unit scalars over Q
ROT3_PLUS_ONE_GENS = [[[0, -1, 0], [1, -1, 0], [0, 0, 1]]]  # diag(rot3, 1)


def _constraints(G, ring, d):
    """Pairs (i, row i of g - I) for every generator g, zero rows included."""
    dom = ring.coeff
    out = []
    for g in G.generators or G.elements:
        columns = action_matrix(ring, g, d)
        for i in range(len(columns)):
            row = [col.get(i, dom.zero) for col in columns]
            row[i] = dom.sub(row[i], dom.one)
            out.append((i, row))
    return out


def _action(G, ring, d):
    """The action_matrix columns of every generator, as invariant_basis reads them."""
    return [action_matrix(ring, g, d) for g in G.generators or G.elements]


def _components(n, constraints):
    """Connected components of the graph on n columns with an edge from i to
    every column j where row i of _constraints is nonzero: each component's
    columns ascending, components ordered by first column."""
    adjacent = [set() for _ in range(n)]
    for i, row in constraints:
        for j, x in enumerate(row):
            if x:
                adjacent[i].add(j)
                adjacent[j].add(i)
    seen, out = set(), []
    for start in range(n):
        if start not in seen:
            seen.add(start)
            stack, component = [start], []
            while stack:
                j = stack.pop()
                component.append(j)
                for t in adjacent[j] - seen:
                    seen.add(t)
                    stack.append(t)
            out.append(sorted(component))
    return out


def _stacked_kernel(G, ring, d):
    """Reference: one kernel of all constraint rows stacked, taken whole."""
    n = graded_piece_basis(ring, d).dim
    if n == 0:
        return ()
    rows = [row for _, row in _constraints(G, ring, d)]
    if ring.coeff.tag == "Fp":
        return kernel_mod_p([[int(x) for x in r] for r in rows], n, ring.coeff.p)
    return integer_kernel_basis(IntegerMatrix([integer_form(r)[1] for r in rows], cols=n)).data


@pytest.mark.parametrize("dom", DOMAINS, ids=str)
def test_block_kernels_match_stacked_kernel_on_fixtures(dom):
    for name in fixture_group_names():
        G = fixture_group(name, dom)
        ring = GradedRing(G.n, dom)
        for d in range(11):
            assert invariant_basis(G, ring, d) == _stacked_kernel(G, ring, d), (name, d)


@pytest.mark.parametrize(
    "gens, dom, D",
    [
        (S4_GENS, ZZ, 6),
        (S4_GENS, GF(3), 6),
        (B3_GENS, ZZ, 8),
        (B3_GENS, GF(3), 8),
        (W_A3_GENS, ZZ, 6),
        (W_A3_GENS, QQ, 6),
        (W_A3_GENS, GF(3), 6),
        (W_A3_GENS, Z_local(3), 6),
        (HALF_SWAP_GENS, QQ, 8),
        (HALF_SWAP_GENS, GF(3), 8),
        (HALF_SWAP_GENS, Z_local(3), 8),
    ],
    ids=[
        "S4-Z", "S4-F3", "B3-Z", "B3-F3", "WA3-Z", "WA3-Q", "WA3-F3", "WA3-Z_(3)",
        "half-swap-Q", "half-swap-F3", "half-swap-Z_(3)",
    ],
)
def test_block_kernels_match_stacked_kernel(gens, dom, D):
    G = enumerate_group(gens, dom)
    ring = GradedRing(G.n, dom)
    for d in range(D + 1):
        assert invariant_basis(G, ring, d) == _stacked_kernel(G, ring, d), d


def test_block_rows_merge_in_pivot_order():
    """Under diag(rot3, 1) the blocks are the monomials with one power of Z,
    and from degree 6 on some carry two or more kernel rows, so rows of
    different blocks interleave in pivot order."""
    G = enumerate_group(ROT3_PLUS_ONE_GENS, ZZ)
    ring = GradedRing(3, ZZ)
    for d in range(9):
        piece = graded_piece_basis(ring, d)
        blocks = _blocks(piece.dim, _action(G, ring, d))
        assert sorted(sorted({piece.monomials[j][2] for j in cols}) for cols in blocks) == [
            [c] for c in range(d + 1)
        ]
        assert invariant_basis(G, ring, d) == _stacked_kernel(G, ring, d), d


# B3 conjugated into GL_3(Z) by a basis of the face-centred lattice F and of
# the body-centred lattice I: not monomial, so a block spans many monomials
B3_ON_F_GENS = [
    [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
    [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
    [[0, -1, 0], [-1, 0, 0], [1, 1, 1]],
]
B3_ON_I_GENS = [
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    [[-1, 1, 0], [-1, 0, 0], [2, 0, 1]],
    [[-1, 0, -1], [0, 1, 0], [0, 0, 1]],
]


@pytest.mark.parametrize("gens", [B3_ON_F_GENS, B3_ON_I_GENS], ids=["F", "I"])
def test_b3_on_centred_lattices_matches_molien_and_stacked_kernel(gens):
    # every form of B3 has the Molien series 1/((1 - t^2)(1 - t^4)(1 - t^6))
    G = enumerate_group(gens, ZZ)
    assert G.order == 48
    ring = GradedRing(3, ZZ)
    S = truncated_invariant_ring(G, ring, 12)
    series = [0] * 13  # series[d] counts the monomials of degree d in e2, e4, e6
    for a, b, c in itertools.product(range(7), range(4), range(3)):
        if 2 * a + 4 * b + 6 * c <= 12:
            series[2 * a + 4 * b + 6 * c] += 1
    assert list(hilbert_function(S).values) == series == _molien_coefficients(G, 12)
    for d in range(13):
        assert S.bases[d] == _stacked_kernel(G, ring, d), d


def _partitions_into_at_most(d, parts):
    return sum(
        1
        for c in itertools.combinations_with_replacement(range(d + 1), parts)
        if sum(c) == d
    )


def test_s4_blocks_are_monomial_orbits():
    """S4 permutes the monomials of degree d, with one orbit per partition
    of d into at most 4 parts, and each orbit is one connected block."""
    G = enumerate_group(S4_GENS, ZZ)
    ring = GradedRing(4, ZZ)
    for d in range(8):
        n = graded_piece_basis(ring, d).dim
        blocks = _blocks(n, _action(G, ring, d))
        assert len(blocks) == _partitions_into_at_most(d, 4), d
        assert sorted(j for cols in blocks for j in cols) == list(range(n))


def test_block_without_rows_contributes_its_unit_vector():
    G = fixture_group("s3")
    ring = GradedRing(3, ZZ)
    piece = graded_piece_basis(ring, 3)
    xyz = piece.index((1, 1, 1))
    action = _action(G, ring, 3)
    assert [xyz] in _blocks(piece.dim, action)
    # its row of every g - I is zero: each g fixes the monomial xyz
    assert all(
        col.get(xyz, 0) == (c == xyz) for columns in action for c, col in enumerate(columns)
    )
    unit = tuple(int(j == xyz) for j in range(piece.dim))
    assert unit in invariant_basis(G, ring, 3)


def test_blocks_join_columns_through_their_entries():
    # g - I has rows 0: {0: 1, 2: -1} and 3: {3: 2}, so 0 - 2 are joined by
    # column 2's entry in row 0, 3 is scaled alone, 1 and 4 are fixed
    columns = ({0: 2}, {1: 1}, {0: -1, 2: 1}, {3: 3}, {4: 1})
    assert _blocks(5, [columns]) == [[0, 2], [1], [3], [4]]
    # a second generator joins what the first leaves apart
    assert _blocks(5, [columns, ({0: 1}, {4: 1}, {2: 1}, {3: 1}, {1: 1})]) == [[0, 2], [1, 4], [3]]


BLOCK_GROUPS = [
    *((name, dom) for name in fixture_group_names() for dom in (ZZ, GF(3), QQ)),
    ("S4", ZZ), ("B3", ZZ), ("B3-on-I", ZZ),
]
BLOCK_GENS = {"S4": S4_GENS, "B3": B3_GENS, "B3-on-I": B3_ON_I_GENS}


@pytest.mark.parametrize("name, dom", BLOCK_GROUPS, ids=str)
def test_blocks_are_the_components_of_the_constraint_rows(name, dom):
    G = enumerate_group(BLOCK_GENS[name], dom) if name in BLOCK_GENS else fixture_group(name, dom)
    ring = GradedRing(G.n, dom)
    for d in range(9):
        n = graded_piece_basis(ring, d).dim
        assert _blocks(n, _action(G, ring, d)) == _components(n, _constraints(G, ring, d)), d


@pytest.mark.parametrize("dom", [ZZ, GF(3), QQ], ids=str)
def test_block_kernels_see_the_nonzero_constraint_rows(dom, monkeypatch):
    """Each block kernel is handed exactly the nonzero rows of the stacked
    g - I on the block's columns, generator-major and then by row index."""
    seen = []
    kernel_mod_p_ = invariants.kernel_mod_p
    integer_kernel_basis_ = invariants.integer_kernel_basis

    def record_mod_p(rows, ncols, p):
        seen.append([list(r) for r in rows])
        return kernel_mod_p_(rows, ncols, p)

    def record(matrix):
        seen.append([list(r) for r in matrix.data])
        return integer_kernel_basis_(matrix)

    monkeypatch.setattr(invariants, "kernel_mod_p", record_mod_p)
    monkeypatch.setattr(invariants, "integer_kernel_basis", record)
    for gens in (S4_GENS, B3_ON_I_GENS, W_A3_GENS):
        G = enumerate_group(gens, dom)
        ring = GradedRing(G.n, dom)
        for d in range(6):
            constraints = _constraints(G, ring, d)
            expected = []
            for cols in _components(graded_piece_basis(ring, d).dim, constraints):
                rows = [[row[c] for c in cols] for i, row in constraints if i in cols and any(row)]
                expected.append(rows if dom.tag in ("Z", "Fp") else [integer_form(r)[1] for r in rows])
            seen.clear()
            invariant_basis(G, ring, d)
            assert seen == expected, (gens, d)


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _seeded_conjugator(n, rng):
    """U in GL_n(Z) and its inverse: a product of six elementary matrices
    I + c E_ij with i != j and c in {+-1, +-2}, each inverted by I - c E_ij."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]  # (I + c E_ij) U
        for row in u_inv:  # U^-1 (I - c E_ij)
            row[j] -= c * row[i]
    return u, u_inv


CONJUGATION_CASES = [
    (name, dom)
    for name, spec in sorted(GROUP_GENERATORS.items())
    if spec["generators"]
    for dom in (ZZ, GF(2), GF(3), Z_local(2))
]


@pytest.mark.parametrize("name, dom", CONJUGATION_CASES, ids=str)
def test_invariant_bases_transport_under_conjugation(name, dom):
    """S(U G U^-1)_d = U.S(G)_d for U in GL_n(Z), with U.f = act(U, f): the
    canonical span of the transported basis is the basis of the conjugate,
    over every domain.  U is not monomial, so U G U^-1 is not either,
    except for -I."""
    assert len(CONJUGATION_CASES) == 28
    spec = GROUP_GENERATORS[name]
    n = spec["n"]
    u, u_inv = _seeded_conjugator(n, random.Random(20))
    assert _matmul(u, u_inv) == [[int(i == j) for j in range(n)] for i in range(n)]
    assert any(sum(map(bool, row)) > 1 for row in u)
    conjugate = [_matmul(_matmul(u, g), u_inv) for g in spec["generators"]]
    G, H = fixture_group(name, dom), enumerate_group(conjugate, dom)
    ring = GradedRing(n, dom)
    for d in range(7):
        piece = graded_piece_basis(ring, d)
        moved = [act(u, f) for f in _polys(ring, d, invariant_basis(G, ring, d))]
        vectors = [[f.terms.get(m, 0) for m in piece.monomials] for f in moved]
        assert canonical_span(dom, vectors, piece.dim) == invariant_basis(H, ring, d), d


def _conjugate(gens, u, u_inv):
    return [_matmul(_matmul(u, g), u_inv) for g in gens]


def _transported_basis(u, ring, d, rows):
    """canonical_span of act(u, f) over the polynomials f of the rows."""
    piece = graded_piece_basis(ring, d)
    moved = [act(u, f) for f in _polys(ring, d, rows)]
    vectors = [[f.terms.get(m, 0) for m in piece.monomials] for f in moved]
    return canonical_span(ring.coeff, vectors, piece.dim)


FIXTURE_GENS = {
    name: spec["generators"]
    for name, spec in sorted(GROUP_GENERATORS.items())
    if spec["generators"]
}
TRANSPORT_GENS = {**FIXTURE_GENS, "S4": S4_GENS, "B3": B3_GENS, "W(A3)": W_A3_GENS}
TRANSPORT_CASES = [
    *((name, dom, 6) for name in FIXTURE_GENS for dom in (QQ, Z_local(3))),
    *((name, dom, D) for name in ("S4", "B3", "W(A3)") for dom, D in ((ZZ, 6), (GF(3), 8))),
]


@pytest.mark.parametrize("name, dom, D", TRANSPORT_CASES, ids=str)
def test_invariant_rings_transport_under_conjugation(name, dom, D):
    """The bases of S(G) and S(U G U^-1) agree after transport by U, and so
    do their Hilbert functions and generator degrees; in characteristic 0
    the Hilbert function is Molien's, which pins the ranks themselves."""
    gens = TRANSPORT_GENS[name]
    n = len(gens[0])
    u, u_inv = _seeded_conjugator(n, random.Random(20))
    assert any(sum(map(bool, row)) > 1 for row in u)
    G, H = enumerate_group(gens, dom), enumerate_group(_conjugate(gens, u, u_inv), dom)
    ring = GradedRing(n, dom)
    S, T = truncated_invariant_ring(G, ring, D), truncated_invariant_ring(H, ring, D)
    for d in range(D + 1):
        assert _transported_basis(u, ring, d, S.bases[d]) == T.bases[d], d
    hilbert = list(hilbert_function(S).values)
    assert hilbert == list(hilbert_function(T).values)
    if dom.tag != "Fp":
        assert hilbert == _molien_coefficients(G, D)
    degrees = [d for d, _ in minimal_generators_up_to(S)]
    assert degrees == [d for d, _ in minimal_generators_up_to(T)]


@pytest.mark.parametrize("name, l, p", [("rot4", 2, 2), ("s3", 2, 3)])
def test_truncated_quotient_transports_under_conjugation(name, l, p):
    """A system found on a Veronese cell of G, moved by U, has the same
    quotient Hilbert values, prefix by prefix, on the cell of U G U^-1.
    U is not monomial mod p, so the fibre sees the change of basis."""
    from invring.cmcert import find_sop_mixed, reduce_mod_p, truncated_quotient

    gens = GROUP_GENERATORS[name]["generators"]
    n = len(gens[0])
    u, u_inv = _seeded_conjugator(n, random.Random(21))
    assert any(sum(x % p != 0 for x in row) > 1 for row in u)
    ring = GradedRing(n, ZZ)
    cells = [
        reduce_mod_p(veronese(truncated_invariant_ring(enumerate_group(g, ZZ), ring, 8), l), p)
        for g in (gens, _conjugate(gens, u, u_inv))
    ]
    search = find_sop_mixed(cells[0])
    assert search.found
    moved = [act(u, theta) for theta in search.thetas]
    assert moved != list(search.thetas)
    for k in range(1, len(moved) + 1):
        quotient = truncated_quotient(cells[0], search.thetas[:k])
        assert truncated_quotient(cells[1], moved[:k]) == quotient, k
    assert quotient == (1, 0, 1, 0, 0)


GENERATING_SET_GENS = {
    **FIXTURE_GENS, "S4": S4_GENS, "B3": B3_GENS, "B3-on-F": B3_ON_F_GENS, "B3-on-I": B3_ON_I_GENS
}


@functools.cache
def _dense_generators(name):
    """Elements of the group over Z, most nonzero entries first and ties in
    seeded order, each taken while the ones taken do not yet generate it.
    Their images generate the group over every domain."""
    elements = list(enumerate_group(GENERATING_SET_GENS[name], ZZ).elements)
    random.Random(name).shuffle(elements)
    elements.sort(key=lambda g: -sum(map(bool, itertools.chain(*g))))
    picked, reached = [], set()
    for g in elements:
        if g not in reached:
            picked.append(g)
            reached = set(enumerate_group(picked, ZZ).elements)
    return picked


@pytest.mark.parametrize("dom", [ZZ, GF(2), GF(3), Z_local(2)], ids=str)
@pytest.mark.parametrize("name", GENERATING_SET_GENS)
def test_invariant_basis_does_not_depend_on_the_generating_set(name, dom):
    """S(G)_d is the intersection of ker(g - I) over any generating set of
    G: the given generators, a seeded dense set, or every element (through
    d = 6 only, for cost).  The Hermite basis is unique, so all agree."""
    G = enumerate_group(GENERATING_SET_GENS[name], dom)
    dense_gens = tuple(mat_from_rows(dom, g) for g in _dense_generators(name))
    dense = MatrixGroup(G.n, dom, G.elements, dense_gens)
    every = MatrixGroup(G.n, dom, G.elements, G.elements)
    ring = GradedRing(G.n, dom)
    for d in range(9):
        basis = invariant_basis(G, ring, d)
        assert invariant_basis(dense, ring, d) == basis, d
        if d <= 6:
            assert invariant_basis(every, ring, d) == basis, d
