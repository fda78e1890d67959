"""Invariant bases, transfer and Reynolds maps, Veronese subrings."""

import itertools
import random
from fractions import Fraction

import pytest

from invring.domains import GF, QQ, ZZ, Z_local
from invring.fixtures import fixture_group, fixture_group_names
from invring.groups import enumerate_group, sylow_subgroup, trivial_group
from invring.invariants import (
    IndexNotInvertible,
    NotHInvariant,
    NotInvertible,
    StandardGradedReport,
    canonical_span,
    hilbert_function,
    invariant_basis,
    is_standard_graded_up_to,
    minimal_generators_up_to,
    reynolds,
    span_complement,
    span_equal,
    span_member,
    trace_average_invariant_count,
    transfer,
    truncated_invariant_ring,
    veronese,
)
from invring.linalg import lattice_solve
from invring.poly import (
    GradedRing,
    act,
    graded_piece_basis,
    parse_polynomial,
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
    ring = GradedRing(2, QQ)
    G = enumerate_group([[[0, 1], [1, 0]]], QQ)
    X = ring.variable(0)
    Y = ring.variable(1)
    r = reynolds(X, G)
    assert r == (X + Y).scale(Fraction(1, 2))
    assert reynolds(r, G) == r  # idempotent projector
    for g in G.elements:
        assert act(g, r) == r


def test_reynolds_not_invertible_over_z():
    with pytest.raises(NotInvertible):
        reynolds(R2.variable(0), SWAP)


def test_transfer_identity_when_h_equals_g():
    ring = GradedRing(2, Z_local(3))
    G = enumerate_group([[[0, 1], [1, 0]]], Z_local(3))
    f = parse_polynomial(ring, "X + Y")
    assert transfer(f, G, G) == f


def test_transfer_s3_a3_explicit():
    ring = GradedRing(3, Z_local(3))
    G = enumerate_group(S3_GENS, Z_local(3))
    H = sylow_subgroup(G, 3)
    f = parse_polynomial(ring, "X^2*Y + Y^2*Z + Z^2*X")
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
    f = parse_polynomial(ring, "X*Y*Z")
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
    f = parse_polynomial(ring, "X*Y*Z")
    with pytest.raises(IndexNotInvertible):
        transfer(f, G, H)


def test_transfer_rg_linear():
    ring = GradedRing(3, Z_local(3))
    G = enumerate_group(S3_GENS, Z_local(3))
    H = sylow_subgroup(G, 3)
    s = parse_polynomial(ring, "X + Y + Z")  # G-invariant
    f = parse_polynomial(ring, "X^2*Y + Y^2*Z + Z^2*X")  # H-invariant only
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
        if not span_equal(S.domain, span, S.bases[d]):
            return d
    return None


@pytest.mark.parametrize("dom", [ZZ, QQ, GF(2), Z_local(3)], ids=str)
@pytest.mark.parametrize("name", fixture_group_names())
def test_generator_walk_matches_all_splits_reference(name, dom):
    G = fixture_group(name, dom)
    S = truncated_invariant_ring(G, GradedRing(G.n, dom), 6)
    for T in (S, veronese(S, 2)):
        assert [(d, str(p)) for d, p in minimal_generators_up_to(T)] == _all_splits_generators(T)
        fail = _degree_one_powers_fail(T)
        assert is_standard_graded_up_to(T) == StandardGradedReport(fail is None, fail, T.D)


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


def test_span_membership_is_p_local():
    # 2 is a unit in Q and Z_(3) but not in Z or Z_(2), so (1, 0) lies in
    # the span of (2, 0) over Q and Z_(3) only
    rows, v = ((2, 0),), (1, 0)
    for dom, inside in ((QQ, True), (Z_local(3), True), (ZZ, False), (Z_local(2), False)):
        assert span_member(dom, rows, v) == inside, dom
        assert span_equal(dom, rows, ((1, 0),)) == inside, dom


def _reference_member(dom, rows, v):
    """Membership read off the rational coordinates of v in the rows."""
    coords = lattice_solve(rows, v)
    if coords is None:
        return False
    if dom == QQ:
        return True
    if dom == ZZ:
        return all(c.denominator == 1 for c in coords)
    return all(c.denominator % dom.p for c in coords)


@pytest.mark.parametrize("dom", [ZZ, QQ, Z_local(2), Z_local(3)], ids=str)
def test_span_rule_matches_rational_coordinates(dom):
    # Hermite row sets of lattices that are not saturated: each row of a
    # random integer set is scaled by 1, 2, 3 or 6 before the Hermite form
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
            assert span_member(dom, a, v) == want, (a, v)
            member_counts[want] += 1
        want = all(_reference_member(dom, b, v) for v in a) and all(
            _reference_member(dom, a, v) for v in b
        )
        assert span_equal(dom, a, b) == want, (a, b)
        equal_counts[want] += a != b
    assert min(member_counts) > 50
    assert equal_counts[True] > 10 or dom == ZZ
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
