"""Reduction mod p, parameter search, and regularity certificates."""

import collections
import itertools
import math
import random

import pytest

from invring.cmcert import (
    _EXHAUSTIVE_CAP,
    _SAMPLED_COMBOS,
    _candidates_of_degree,
    _combination,
    _image_rows,
    _nth_combination,
    _parameter_rows,
    _pattern_images,
    _pattern_mask,
    _point_values,
    _projective_pattern,
    _projective_patterns,
    _quotient,
    _search,
    NotStandardGraded,
    NumeratorNotTerminated,
    SopSearchResult,
    cm_certificate,
    find_sop_mixed,
    find_sop_mod_p,
    gorenstein_symmetry_check,
    h_numerator,
    reduce_mod_p,
    regular_sequence_certificate,
    truncated_quotient,
    veronese_cm_search,
)
from invring.domains import GF, QQ, ZZ, Z_local, prime_divisors
from invring.fixtures import fixture_group
from invring.groups import enumerate_group, sylow_subgroup, trivial_group
from invring.invariants import (
    TruncatedSubalgebra,
    hilbert_function,
    is_standard_graded_up_to,
    truncated_invariant_ring,
    veronese,
)
from invring.linalg import _insert
from invring.poly import GradedRing, Polynomial, act, graded_piece_basis

R2 = GradedRing(2, ZZ)
MINUS_I = enumerate_group([[[-1, 0], [0, -1]]], ZZ)
SWAP = enumerate_group([[[0, 1], [1, 0]]], ZZ)


def quadric_cone_mod2(D=12):
    S = truncated_invariant_ring(MINUS_I, R2, D)
    return reduce_mod_p(veronese(S, 2), 2)


def test_reduce_mod_p_preserves_ranks():
    S = truncated_invariant_ring(SWAP, R2, 6)
    Sbar = reduce_mod_p(S, 2)
    assert hilbert_function(Sbar).values == (1, 1, 2, 2, 3, 3, 4)
    S2 = truncated_invariant_ring(trivial_group(2, ZZ), R2, 4)
    assert hilbert_function(reduce_mod_p(S2, 3)).values == (1, 2, 3, 4, 5)
    S3 = truncated_invariant_ring(MINUS_I, R2, 4)
    assert hilbert_function(reduce_mod_p(S3, 2)).values == (1, 0, 3, 0, 5)


def test_find_sop_quadric_cone():
    Sbar = quadric_cone_mod2()
    res = find_sop_mod_p(Sbar)
    assert res.found
    names = sorted(str(t) for t in res.thetas)
    assert names == ["X^2", "Y^2"]


def test_find_sop_full_polynomial_ring():
    S = truncated_invariant_ring(trivial_group(2, ZZ), R2, 8)
    Sbar = reduce_mod_p(S, 3)
    res = find_sop_mod_p(Sbar)
    assert res.found
    assert sorted(str(t) for t in res.thetas) == ["X", "Y"]


def test_find_sop_sampled_search():
    # degree 7 of two variables has 8 monomials, so 2^8 - 1 = 255 projective
    # candidates over F_2 and 255 * 254 ordered pairs: too many to search
    # exhaustively, so the search samples
    S = truncated_invariant_ring(trivial_group(2, ZZ), R2, 14)
    Sbar = reduce_mod_p(veronese(S, 7), 2)
    res = find_sop_mod_p(Sbar)
    assert 255 * 254 > _EXHAUSTIVE_CAP
    assert res.found and 1 <= res.tried <= _SAMPLED_COMBOS
    assert res.tried == 4
    again = find_sop_mod_p(Sbar)
    assert (again.thetas, again.tried) == (res.thetas, res.tried)
    assert regular_sequence_certificate(Sbar, res.thetas).status == "certified"


def test_find_sop_insufficient_truncation():
    Sbar = quadric_cone_mod2(D=2)  # truncates to a single degree
    res = find_sop_mod_p(Sbar)
    assert not res.found
    # C(7, 2) pairs of the 2^3 - 1 projective degree-1 candidates, each once
    assert res.tried == 21


def test_find_sop_requires_standard_graded():
    S = truncated_invariant_ring(MINUS_I, R2, 6)
    Sbar = reduce_mod_p(S, 2)
    with pytest.raises(NotStandardGraded):
        find_sop_mod_p(Sbar)


def test_regular_sequence_quadric():
    Sbar = quadric_cone_mod2()
    thetas = find_sop_mod_p(Sbar).thetas
    cert = regular_sequence_certificate(Sbar, thetas)
    assert cert.status == "certified"
    assert cert.quotient_hilbert[:3] == (1, 1, 0)


def test_regular_sequence_repeated_parameter_fails():
    S = truncated_invariant_ring(trivial_group(2, ZZ), R2, 6)
    Sbar = reduce_mod_p(S, 2)
    x = Sbar.piece_polynomials(1)[0]
    cert = regular_sequence_certificate(Sbar, [x, x])
    assert cert.status == "failed"
    assert cert.failed_stage == 2
    assert cert.failed_degree == 1


def test_regular_sequence_full_ring():
    S = truncated_invariant_ring(trivial_group(2, ZZ), R2, 6)
    Sbar = reduce_mod_p(S, 3)
    xs = Sbar.piece_polynomials(1)
    cert = regular_sequence_certificate(Sbar, xs)
    assert cert.status == "certified"
    assert cert.quotient_hilbert == (1, 0, 0, 0, 0, 0, 0)


def test_certificates_reject_a_basis_that_is_no_echelon():
    # a hand-built algebra whose degree-1 basis 2X + 2Y does not lead with
    # 1: the walk already rejects it, and the parameter membership test
    # does too, instead of reducing against that row forever
    Sbar = reduce_mod_p(truncated_invariant_ring(SWAP, R2, 6), 3)
    bases = (Sbar.bases[0], ((2, 2),), *Sbar.bases[2:])
    B = TruncatedSubalgebra(Sbar.ambient, Sbar.group, Sbar.D, Sbar.regrade, bases)
    [theta] = B.piece_polynomials(1)
    x = B.ambient.variable(0)
    with pytest.raises(ValueError):
        is_standard_graded_up_to(B)
    with pytest.raises(ValueError, match="lead with 1"):
        regular_sequence_certificate(B, [theta])
    with pytest.raises(ValueError, match="lead with 1"):
        truncated_quotient(B, [x, x * x])


def test_cm_certificate_requires_standard():
    S = truncated_invariant_ring(SWAP, R2, 8)
    with pytest.raises(NotStandardGraded) as excinfo:
        cm_certificate(S, [2])
    assert excinfo.value.degree == 2
    assert str(excinfo.value) == "not standard graded: fails at degree 2"


def test_cm_certificate_swap_veronese():
    S = truncated_invariant_ring(SWAP, R2, 12)
    certs = cm_certificate(veronese(S, 2), [2])
    assert certs[2].status == "certified"


def test_cm_certificate_vacuous_prime():
    S = truncated_invariant_ring(MINUS_I, R2, 12)
    certs = cm_certificate(veronese(S, 2), [2, 3])
    assert certs[2].status == "certified"
    assert certs[3].status == "vacuous"


def test_cm_certificate_trivial_group():
    S = truncated_invariant_ring(trivial_group(2, ZZ), R2, 8)
    certs = cm_certificate(S, [2, 5])
    assert all(c.certified for c in certs.values())


@pytest.mark.parametrize(
    "gens, first_l",
    [
        ([[[-1, 0], [0, -1]]], 2),
        ([[[0, 1], [1, 0]]], 2),
        ([[[0, -1], [1, -1]]], 3),
        ([[[0, -1], [1, 0]]], 4),
    ],
)
def test_veronese_cm_search_regression(gens, first_l):
    G = enumerate_group(gens, ZZ)
    rep = veronese_cm_search(G, R2, l_max=6, D=12)
    assert rep.first_certified == first_l


def test_veronese_search_reports_nonstandard_attempts():
    rep = veronese_cm_search(MINUS_I, R2, l_max=3, D=12)
    by_l = {a.l: a for a in rep.attempts}
    assert not by_l[1].standard_graded
    assert by_l[1].first_failing_degree == 2
    assert by_l[2].certified


@pytest.mark.parametrize("l_max", [0, -1])
def test_veronese_search_refuses_l_max_below_one(l_max):
    # no Veronese index would be tried, so the report would read as a
    # search that certified nothing
    with pytest.raises(ValueError, match="must be at least 1"):
        veronese_cm_search(fixture_group("rot3"), R2, l_max=l_max, D=4)


def test_find_sop_mixed_weighted_polynomial_ring():
    # invariants of the full symmetric group on 3 letters have generator
    # degrees 1, 2, 3; no Veronese is needed for a mixed-degree search
    ring = GradedRing(3, ZZ)
    G = enumerate_group(
        [
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        ],
        ZZ,
    )
    S = truncated_invariant_ring(G, ring, 8)
    Sbar = reduce_mod_p(S, 2)
    res = find_sop_mixed(Sbar)
    assert res.found
    assert sorted(t.degree() for t in res.thetas) == [1, 2, 3]
    cert = regular_sequence_certificate(Sbar, res.thetas)
    assert cert.status == "certified"



# (found, tried, parameters) of find_sop_mixed on the Veronese subrings of
# the S3 Sylow-p invariant rings (D = 8); pins the search order and the
# budget accounting (tried == 6000 is the evaluation budget running out).
MIXED_TRAJECTORIES = {
    (2, 1): (True, 3, ("Y", "X + Z", "X*Z")),
    (2, 2): (True, 2, ("Y^2", "X*Z", "X^2 + Z^2")),
    (2, 3): (False, 2000, ()),
    (2, 4): (False, 2000, ()),
    (3, 1): (True, 7, ("X + Y + Z", "X*Y + X*Z + Y*Z", "X*Y*Z")),
    (3, 2): (False, 6000, ()),
    (3, 3): (False, 2000, ()),
    (3, 4): (False, 2000, ()),
}

# Combinations of each MIXED_TRAJECTORIES search that reached the rank; the
# rest share a zero at an F_p-rational point and are sieved out unranked.
MIXED_RANKED = {
    (2, 1): 1,
    (2, 2): 1,
    (2, 3): 0,
    (2, 4): 403,
    (3, 1): 1,
    (3, 2): 1100,
    (3, 3): 1712,
    (3, 4): 0,
}


# (Veronese index, prime) -> (found, tried, parameters) of each
# find_sop_mod_p call behind veronese_cm_search (D = 12, l = 1..6); indices
# that are not standard graded never reach the search.
MOD_P_TRAJECTORIES = {
    "minus-identity": {
        (2, 2): (True, 3, ("Y^2", "X^2")),
        (4, 2): (True, 15, ("Y^4", "X^4")),
        (6, 2): (True, 63, ("Y^6", "X^6")),
    },
    "rot3": {
        (3, 3): (True, 1, ("X^2*Y + X*Y^2", "X^3 + 2*Y^3")),
        (5, 3): (
            True,
            1,
            ("X^4*Y + 2*X^3*Y^2 + 2*X^2*Y^3 + X*Y^4", "X^5 + 2*X^3*Y^2 + X*Y^4 + 2*Y^5"),
        ),
        (6, 3): (True, 4, ("X^4*Y^2 + 2*X^3*Y^3 + X^2*Y^4", "X^6 + X^3*Y^3 + Y^6")),
    },
    "rot4": {
        (4, 2): (True, 3, ("X^2*Y^2", "X^4 + Y^4")),
    },
}


@pytest.mark.parametrize("name", sorted(MOD_P_TRAJECTORIES))
def test_find_sop_mod_p_pinned_trajectory(name, monkeypatch):
    import invring.cmcert as cmcert
    from invring.fixtures import fixture_group

    got = {}

    def recorded(Sbar, seed):
        res = find_sop_mod_p(Sbar, seed=seed)
        got[Sbar.regrade, Sbar.domain.p] = (
            res.found,
            res.tried,
            tuple(str(t) for t in res.thetas),
        )
        return res

    monkeypatch.setattr(cmcert, "find_sop_mod_p", recorded)
    veronese_cm_search(fixture_group(name), R2, l_max=6, D=12)
    assert got == MOD_P_TRAJECTORIES[name]


@pytest.mark.parametrize("p", [2, 3])
def test_find_sop_mixed_pinned_trajectory(p):
    from invring.cmcert import _MIXED_EVAL_BUDGET

    assert _MIXED_EVAL_BUDGET == 6000
    SH = truncated_invariant_ring(
        sylow_subgroup(fixture_group("s3"), p), GradedRing(3, ZZ), 8
    )
    for l in range(1, 5):
        res = find_sop_mixed(reduce_mod_p(veronese(SH, l), p))
        got = (res.found, res.tried, tuple(str(t) for t in res.thetas))
        assert got == MIXED_TRAJECTORIES[p, l], (p, l)
        assert res.ranked == MIXED_RANKED[p, l], (p, l)


def _vanishes_at(theta, point) -> bool:
    """theta(point) == 0, by the substitution X_j -> point[j] * X_1."""
    n = theta.ring.nvars
    g = [list(point)] + [[0] * n for _ in range(n - 1)]
    return act(g, theta).is_zero()


# X^4*Y + 2*X^3*Y^2 + 2*X^2*Y^3 + X*Y^4 and X^5 + 2*X^3*Y^2 + X*Y^4 + 2*Y^5
ROT3_L5_PAIR = (
    {(4, 1): 1, (3, 2): 2, (2, 3): 2, (1, 4): 1},
    {(5, 0): 1, (3, 2): 2, (1, 4): 1, (0, 5): 2},
)


def test_zero_mask_rot3_pair_shares_a_rational_zero():
    # the pair find_sop_mod_p accepts at rot3, l = 5, p = 3 (ROADMAP item 10):
    # both are multiples of X^2 + X*Y + Y^2, which vanishes at (1 : 1)
    ring = GradedRing(2, GF(3))
    points = tuple(_projective_patterns(3, 2))
    assert points == ((0, 1), (1, 0), (1, 1), (1, 2))
    piece = graded_piece_basis(ring, 5)
    rows = [Polynomial(ring, terms).to_vector(piece) for terms in ROT3_L5_PAIR]
    values = _point_values(rows, piece, points, 3)
    first, second = (_pattern_mask(coeffs, values, 3) for coeffs in ((1, 0), (0, 1)))
    assert first == 0b1111
    assert second == 0b100
    assert first & second == 1 << points.index((1, 1))


def test_zero_mask_s3_degree_four_no_rational_common_zero():
    # e1^4, e2^2, e1*e3 vanish together only at (1 : zeta : zeta^2), zeta a
    # primitive cube root of unity, which lies over F_4 and not over F_2
    ring = GradedRing(3, GF(2))
    points = tuple(_projective_patterns(2, 3))
    assert len(points) == 7
    X, Y, Z = (ring.variable(i) for i in range(3))
    e1 = X + Y + Z
    e2 = X * Y + X * Z + Y * Z
    e3 = X * Y * Z
    piece = graded_piece_basis(ring, 4)
    rows = [f.to_vector(piece) for f in (e1**4, e2**2, e1 * e3)]
    values = _point_values(rows, piece, points, 2)
    masks = [_pattern_mask(coeffs, values, 2) for coeffs in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    assert all(masks)
    assert masks[0] & masks[1] & masks[2] == 0


def _cell_candidates(Sbar, points):
    """(degree, coefficient pattern, per-point basis values) of every
    candidate find_sop_mixed builds on Sbar."""
    for k in range(1, Sbar.D):
        piece = graded_piece_basis(Sbar.ambient, Sbar.ambient_degree(k))
        values = _point_values(Sbar.bases[k], piece, points, Sbar.domain.p)
        for coeffs in _candidates_of_degree(Sbar, k):
            yield k, coeffs, values


def test_zero_mask_matches_substitution_on_sylow3_cell():
    # every candidate find_sop_mixed builds on the S3 Sylow-3 cell l = 2
    SH = truncated_invariant_ring(
        sylow_subgroup(fixture_group("s3"), 3), GradedRing(3, ZZ), 8
    )
    Sbar = reduce_mod_p(veronese(SH, 2), 3)
    points = tuple(_projective_patterns(3, 3))
    assert len(points) == 13
    checked = 0
    for k, coeffs, values in _cell_candidates(Sbar, points):
        theta = _combination(Sbar, coeffs, k)
        expected = sum(1 << i for i, v in enumerate(points) if _vanishes_at(theta, v))
        assert _pattern_mask(coeffs, values, 3) == expected, str(theta)
        checked += 1
    assert checked == 275


@pytest.mark.parametrize(
    "make, count",
    [
        (
            lambda: reduce_mod_p(
                veronese(truncated_invariant_ring(fixture_group("s3"), GradedRing(3, ZZ), 8), 2), 3
            ),
            194,
        ),
        (lambda: _s3_sylow3_veronese_mod3(2), 275),
        (lambda: reduce_mod_p(truncated_invariant_ring(SWAP, R2, 8), 17), 637),
    ],
    ids=["s3-p3-l2", "s3-sylow3-p3-l2", "swap-p17"],
)
def test_pattern_tables_match_polynomial_candidates(make, count):
    # the search's masks and multiplication images, combined by linearity
    # from the per-degree basis tables, against the _image_rows of each
    # candidate polynomial's own row, read back through _parameter_rows, and
    # its substitution at every F_p-rational point; the first two are the
    # criterion-07 cells at p = 3, l = 2, the last packs two bytes per field
    Sbar = make()
    p = Sbar.domain.p
    points = tuple(_projective_patterns(p, Sbar.ambient.nvars))
    tables = {}
    checked = 0
    for k, coeffs, values in _cell_candidates(Sbar, points):
        if k not in tables:
            tables[k] = _image_rows(Sbar, Sbar.bases[k], k)
        theta = _combination(Sbar, coeffs, k)
        [(row, degree)] = _parameter_rows(Sbar, [theta])
        assert degree == k
        [image] = _image_rows(Sbar, [row], k)
        assert _pattern_images(coeffs, tables[k], p, range(Sbar.D + 1)) == image, str(theta)
        expected = sum(1 << i for i, v in enumerate(points) if _vanishes_at(theta, v))
        assert _pattern_mask(coeffs, values, p) == expected, str(theta)
        checked += 1
    assert checked == count


def test_find_sop_mixed_sieves_rot3_common_zero():
    # an unsieved search accepts ROT3_L5_PAIR here after one combination;
    # all 6 pairs of the 4 degree-1 candidates vanish at (1 : 1)
    S = truncated_invariant_ring(fixture_group("rot3"), R2, 12)
    res = find_sop_mixed(reduce_mod_p(veronese(S, 5), 3))
    assert (res.found, res.tried, res.ranked) == (False, 6, 0)


def _criterion_cells():
    """(label, reduced algebra) of the Veronese cells of criterion 06 at
    every prime dividing the group order, and of criterion 07 for S3 and
    for its Sylow subgroups."""
    for name in ("minus-identity", "swap", "rot3", "rot4"):
        G = fixture_group(name)
        S = truncated_invariant_ring(G, R2, 12)
        for l in range(1, 7):
            for p in prime_divisors(G.order):
                yield f"06 {name} l={l} p={p}", reduce_mod_p(veronese(S, l), p)
    ring = GradedRing(3, ZZ)
    G = fixture_group("s3")
    SG = truncated_invariant_ring(G, ring, 8)
    for p in (2, 3):
        SH = truncated_invariant_ring(sylow_subgroup(G, p), ring, 8)
        for l in range(1, 5):
            yield f"07 H p={p} l={l}", reduce_mod_p(veronese(SH, l), p)
            yield f"07 G p={p} l={l}", reduce_mod_p(veronese(SG, l), p)


def test_find_sop_mixed_systems_have_no_common_rational_zero():
    found = 0
    for label, Sbar in _criterion_cells():
        res = find_sop_mixed(Sbar)
        if res.found:
            found += 1
            for v in _projective_patterns(Sbar.domain.p, Sbar.ambient.nvars):
                assert not all(_vanishes_at(t, v) for t in res.thetas), (label, v)
    assert found == 24


def test_nth_combination_matches_itertools_order():
    for n in range(9):
        for r in range(n + 1):
            listed = list(itertools.combinations(range(n), r))
            assert [_nth_combination(n, r, i) for i in range(math.comb(n, r))] == listed


def test_cm_certificate_mixed_handles_nonstandard():
    ring = GradedRing(3, ZZ)
    G = enumerate_group(
        [
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        ],
        ZZ,
    )
    S = truncated_invariant_ring(G, ring, 8)
    V = veronese(S, 2)  # not standard graded: e1*e3 is not a product
    certs = cm_certificate(V, [2], mixed=True)
    assert certs[2].status == "certified"


def test_truncated_quotient_bounds():
    from invring.cmcert import truncated_quotient

    Sbar = quadric_cone_mod2()
    thetas = find_sop_mod_p(Sbar).thetas
    q = truncated_quotient(Sbar, thetas)
    base = hilbert_function(Sbar).values
    assert all(0 <= h <= b for h, b in zip(q, base))
    assert q[:3] == (1, 1, 0)


def _reference_quotient(Sbar, thetas):
    """Quotient Hilbert values from the canonical span of polynomial
    products theta * s, s running over the basis of each piece."""
    from invring.invariants import canonical_span
    from invring.poly import graded_piece_basis

    values = []
    for d in range(Sbar.D + 1):
        piece = graded_piece_basis(Sbar.ambient, Sbar.ambient_degree(d))
        products = [
            (theta * s).to_vector(piece)
            for theta in thetas
            if theta.degree() <= Sbar.ambient_degree(d)
            for s in Sbar.piece_polynomials(d - theta.degree() // Sbar.regrade)
        ]
        span = canonical_span(Sbar.domain, products, piece.dim)
        values.append(len(Sbar.bases[d]) - len(span))
    return tuple(values)


def _random_parameters(Sbar, rng, count):
    """count random nonzero homogeneous elements of mixed degrees < D."""
    thetas = []
    while len(thetas) < count:
        k = rng.randint(1, Sbar.D - 1)
        theta = Sbar.ambient.zero_poly
        for b in Sbar.piece_polynomials(k):
            theta = theta + b.scale(rng.randrange(Sbar.domain.p))
        if not theta.is_zero():
            thetas.append(theta)
    return thetas


def _s3_sylow3_veronese_mod3(l):
    from invring.fixtures import fixture_group
    from invring.groups import sylow_subgroup

    G = sylow_subgroup(fixture_group("s3"), 3)
    S = truncated_invariant_ring(G, GradedRing(3, ZZ), 8)
    return reduce_mod_p(veronese(S, l), 3)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _s3_sylow3_veronese_mod3(1),
        lambda: _s3_sylow3_veronese_mod3(2),
        lambda: quadric_cone_mod2(D=8),
    ],
    ids=["s3-sylow3-l1", "s3-sylow3-l2", "quadric-cone"],
)
def test_truncated_quotient_matches_product_span(make, request):
    # the F_p evaluator (stacked multiplication images, forward echelon)
    # against the rank of the canonical span of polynomial products; the
    # certificate's quotient values are those of the prefix it stopped at
    from invring.cmcert import truncated_quotient

    Sbar = make()
    rng = random.Random(request.node.callspec.id)
    for _ in range(8):
        thetas = _random_parameters(Sbar, rng, rng.randint(1, 3))
        assert truncated_quotient(Sbar, thetas) == _reference_quotient(Sbar, thetas)
        cert = regular_sequence_certificate(Sbar, thetas)
        stage = cert.failed_stage or len(thetas)
        assert cert.quotient_hilbert == truncated_quotient(Sbar, thetas[:stage])


def _degree_one_pair_images(Sbar, limit):
    """(pair, multiplication images) of the first limit pairs of degree-1
    candidates, in the order find_sop_mod_p tries them."""
    p, r = Sbar.domain.p, len(Sbar.bases[1])
    table = _image_rows(Sbar, Sbar.bases[1], 1)
    count = (p**r - 1) // (p - 1)
    for pair in itertools.islice(itertools.combinations(range(count), 2), limit):
        yield pair, [
            _pattern_images(_projective_pattern(p, r, i), table, p, range(Sbar.D + 1))
            for i in pair
        ]


def test_standard_graded_quotient_vanishes_iff_its_top_degree_does():
    # the premise of ranking degree D first in find_sop_mod_p: on a standard
    # graded algebra, I_d = S_d gives S_{d+1} = S_1 I_d inside I_{d+1}, so a
    # zero persists;
    # checked on the Veronese subrings with D >= 2 that veronese_cm_search
    # takes to that search
    outcomes = collections.Counter()
    for name in ("minus-identity", "rot3", "rot4", "swap"):
        G = fixture_group(name)
        S = truncated_invariant_ring(G, R2, 12)
        for l in range(1, 7):
            V = veronese(S, l)
            if not is_standard_graded_up_to(V).standard:
                continue
            for p in prime_divisors(G.order):
                Sbar = reduce_mod_p(V, p)
                for pair, images in _degree_one_pair_images(Sbar, 400):
                    h, _ = _quotient(Sbar, images)
                    assert (0 in h) == (h[Sbar.D] == 0), (name, l, p, pair, h)
                    outcomes[h[Sbar.D] == 0] += 1
    assert outcomes[True] and outcomes[False]
    assert sum(outcomes.values()) == 1061


class _RecordedReads(list):
    """A list that records which indices were read."""

    def __init__(self, items, reads):
        super().__init__(items)
        self.reads = reads

    def __getitem__(self, d):
        self.reads.add(d)
        return super().__getitem__(d)


def test_quotient_skips_full_echelons():
    # a full echelon absorbs every row, so _quotient reads no image rows of
    # its degree; the Hilbert values are those of a fresh rank
    Sbar = quadric_cone_mod2()
    for _, images in _degree_one_pair_images(Sbar, 40):
        h, spans = _quotient(Sbar, images)
        full = {d for d, span in enumerate(spans) if len(span) == len(Sbar.bases[d])}
        prefilled = [dict(span) if d in full else {} for d, span in enumerate(spans)]
        reads: set[int] = set()
        again, _ = _quotient(Sbar, [_RecordedReads(im, reads) for im in images], prefilled)
        assert again == h
        assert reads == set(range(Sbar.D + 1)) - full


@pytest.mark.parametrize(
    "name, l, p", [("minus-identity", 4, 2), ("rot3", 6, 3), ("rot4", 4, 2)]
)
def test_search_accepts_only_where_the_top_degree_vanishes(name, l, p):
    # accept sees exactly the combinations whose quotient vanishes in degree
    # D, in order and with their full Hilbert values; the rest are ranked in
    # degree D alone, and every combination counts in ranked
    Sbar = reduce_mod_p(veronese(truncated_invariant_ring(fixture_group(name), R2, 12), l), p)
    r, D = len(Sbar.bases[1]), Sbar.D
    pairs = list(_degree_one_pair_images(Sbar, 400))
    fresh = [_quotient(Sbar, images)[0] for _, images in pairs]
    seen = []

    def accept(quotient):
        seen.append(quotient[0])
        return False

    res = _search(
        Sbar, [pair for pair, _ in pairs], lambda i: (_projective_pattern(p, r, i), 1), accept, ()
    )
    assert (res.found, res.tried, res.ranked) == (False, len(pairs), len(pairs))
    assert seen == [h for h in fresh if h[D] == 0]
    assert 0 < len(seen) < len(pairs)


def _s3_sylow2_cells():
    SH = truncated_invariant_ring(sylow_subgroup(fixture_group("s3"), 2), GradedRing(3, ZZ), 8)
    for l in range(1, 5):
        yield f"s3-sylow2-l{l}", reduce_mod_p(veronese(SH, l), 2)


def _exhaustive_combos(Sbar, limit):
    """(candidate, combinations): the first limit combinations in the
    exhaustive order of find_sop_mixed, degree multisets by total degree and
    each the product of per-degree index combinations, and the map from a
    key to its (coefficient pattern, degree)."""
    max_deg = max(1, Sbar.D - 1)
    per_degree = {k: _candidates_of_degree(Sbar, k) for k in range(1, max_deg + 1)}
    multisets = sorted(
        itertools.combinations_with_replacement(range(1, max_deg + 1), Sbar.ambient.nvars),
        key=lambda ms: (sum(ms), ms),
    )
    combos = []
    for ms in multisets:
        degrees = sorted(set(ms))
        picks = itertools.product(
            *(itertools.combinations(range(len(per_degree[k])), ms.count(k)) for k in degrees)
        )
        for pick in itertools.islice(picks, limit - len(combos)):
            combos.append(tuple((k, i) for k, group in zip(degrees, pick) for i in group))
    return (lambda key: (per_degree[key[0]][key[1]], key[0])), combos


def _fresh_search(Sbar, combos, candidate, accept, points):
    """(result, combinations shown to accept) of the search loop that ranks
    every combination in a fresh echelon of all its stacked degree-D rows,
    with each member's images built in every degree at once."""
    p, D = Sbar.domain.p, Sbar.D
    values, tables, shown = {}, {}, []
    tried = ranked = 0
    for tried, combo in enumerate(combos, start=1):
        members = [candidate(key) for key in combo]
        common = (1 << len(points)) - 1
        for coeffs, k in members:
            if k not in values:
                piece = graded_piece_basis(Sbar.ambient, Sbar.ambient_degree(k))
                values[k] = _point_values(Sbar.bases[k], piece, points, p)
            common &= _pattern_mask(coeffs, values[k], p)
        if common:
            continue
        ranked += 1
        for _, k in members:
            if k not in tables:
                tables[k] = _image_rows(Sbar, Sbar.bases[k], k)
        stacked = [_pattern_images(coeffs, tables[k], p, range(D + 1)) for coeffs, k in members]
        top = {}
        if _insert(top, (row for image in stacked for row in image[D]), p) < len(Sbar.bases[D]):
            continue
        shown.append(combo)
        if accept(_quotient(Sbar, stacked, [{} for _ in range(D)] + [top])):
            found = tuple(_combination(Sbar, *member) for member in members)
            return SopSearchResult(True, found, tried, ranked), shown
    return SopSearchResult(False, (), tried, ranked), shown


def _accept_call(n):
    """An acceptance rule that passes its n-th call only."""
    calls = itertools.count(1)
    return lambda quotient: next(calls) == n


@pytest.mark.parametrize("order", ["product", "shuffled"])
def test_search_ranks_each_prefix_echelon_once(order):
    # combinations that share all members but the last are ranked from one
    # kept degree-D echelon; what accept sees, and the search's outcome,
    # match a loop that ranks every combination afresh
    cells = [*_s3_sylow2_cells(), ("quadric-cone", quadric_cone_mod2())]
    repeats = shown_total = 0
    for label, Sbar in cells:
        p = Sbar.domain.p
        points = tuple(_projective_patterns(p, Sbar.ambient.nvars))
        candidate, combos = _exhaustive_combos(Sbar, 150)
        if order == "shuffled":
            random.Random(label).shuffle(combos)
        repeats += len(combos) - len({combo[:-1] for combo in combos})
        seen = []

        def accept(quotient):
            h, spans = quotient
            seen.append((h, [dict(span) for span in spans]))
            return False

        res = _search(Sbar, combos, candidate, accept, points)
        ref, shown = _fresh_search(Sbar, combos, candidate, lambda quotient: False, points)
        assert (res.found, res.tried, res.ranked) == (ref.found, ref.tried, ref.ranked), label
        assert len(seen) == len(shown), label
        tables = {}
        for combo, got in zip(shown, seen):
            stacked = []
            for coeffs, k in map(candidate, combo):
                if k not in tables:
                    tables[k] = _image_rows(Sbar, Sbar.bases[k], k)
                stacked.append(_pattern_images(coeffs, tables[k], p, range(Sbar.D + 1)))
            assert got == _quotient(Sbar, stacked), (label, combo)
        shown_total += len(shown)
        if len(shown) > 1:
            n = len(shown) // 2 + 1
            res = _search(Sbar, combos, candidate, _accept_call(n), points)
            ref, _ = _fresh_search(Sbar, combos, candidate, _accept_call(n), points)
            assert res.found and ref.found, label
            assert (res.tried, res.ranked) == (ref.tried, ref.ranked), label
            assert list(map(str, res.thetas)) == list(map(str, ref.thetas)), label
    assert repeats > 0 and shown_total > 0


def test_quotient_evaluators_reject_non_prime_field():
    from invring.cmcert import truncated_quotient

    S = truncated_invariant_ring(trivial_group(2, ZZ), R2, 4)
    xs = S.piece_polynomials(1)
    with pytest.raises(ValueError):
        truncated_quotient(S, xs)
    with pytest.raises(ValueError):
        regular_sequence_certificate(S, xs)


@pytest.mark.parametrize("evaluator", ["truncated_quotient", "regular_sequence_certificate"])
@pytest.mark.parametrize(
    "terms, message",
    [
        (({(1, 0): 1}, {(0, 1): 1}), "not in the algebra"),
        (({(7, 0): 1}, {(0, 7): 1}), "outside 1..6"),
        (({(1, 0): 1, (0, 1): 1}, {(0, 0): 1}), "outside 1..6"),
        (({(1, 1): 1, (1, 0): 1, (0, 1): 1},), "nonzero and homogeneous"),
        (({},), "nonzero and homogeneous"),
    ],
    ids=["not-invariant", "above-D", "constant", "not-homogeneous", "zero"],
)
def test_quotient_evaluators_reject_parameters_outside_the_algebra(evaluator, terms, message):
    # over F_2 the swap invariants are spanned by the symmetric polynomials;
    # X and Y are not invariant, X^7 and Y^7 lie above D = 6, and a constant
    # has degree 0, so none of these is a parameter of this truncation
    import invring.cmcert as cmcert

    Sbar = reduce_mod_p(truncated_invariant_ring(SWAP, R2, 6), 2)
    thetas = [Polynomial(Sbar.ambient, t) for t in terms]
    with pytest.raises(ValueError, match=message):
        getattr(cmcert, evaluator)(Sbar, thetas)


def test_parameter_degree_must_be_a_multiple_of_the_regrading():
    # in the second Veronese of the swap invariants, X^3 + Y^3 has ambient
    # degree 3, which is no regraded degree
    from invring.cmcert import truncated_quotient

    Sbar = reduce_mod_p(veronese(truncated_invariant_ring(SWAP, R2, 8), 2), 2)
    theta = Polynomial(Sbar.ambient, {(3, 0): 1, (0, 3): 1})
    with pytest.raises(ValueError, match="multiple of the regrading"):
        truncated_quotient(Sbar, [theta])


def test_reduce_mod_p_needs_integer_coefficients():
    S = truncated_invariant_ring(enumerate_group([[[-1, 0], [0, -1]]], QQ), GradedRing(2, QQ), 4)
    with pytest.raises(ValueError, match="expects integer coefficients"):
        reduce_mod_p(S, 2)


def test_primes_that_are_units_over_zlocal_are_no_fibre():
    # rot3 has order 3; over Z_(5) the prime 3 is a unit, so S/3S = 0 and
    # there is nothing to certify, while over Z_(3) the fibre at 3 is real
    def rot3_veronese(q):
        dom = Z_local(q)
        G = enumerate_group([[[0, -1], [1, -1]]], dom)
        return veronese(truncated_invariant_ring(G, GradedRing(2, dom), 6), 3)

    V5, V3 = rot3_veronese(5), rot3_veronese(3)
    cert = cm_certificate(V5, [3])[3]
    assert cert.status == "vacuous" and cert.parameters == ()
    assert cm_certificate(V3, [3])[3].status == "certified"
    with pytest.raises(ValueError, match=r"3 is a unit in Z_\(5\), so S/3S = 0"):
        reduce_mod_p(V5, 3)


@pytest.mark.parametrize("primes", [[9], [0], [2, 4], [1]], ids=["9", "0", "2-4", "1"])
def test_cm_certificate_rejects_non_primes(primes):
    S = truncated_invariant_ring(fixture_group("s3"), GradedRing(3, ZZ), 6)
    with pytest.raises(ValueError, match="expects primes"):
        cm_certificate(S, primes, mixed=True)


def test_projective_pattern_matches_product_order():
    for p in (2, 3, 5):
        for r in range(6):
            listed = [
                cs
                for cs in itertools.product(range(p), repeat=r)
                if next((c for c in cs if c), None) == 1
            ]
            assert [_projective_pattern(p, r, i) for i in range(len(listed))] == listed
            assert list(_projective_patterns(p, r)) == listed


def test_find_sop_mod_p_samples_without_listing_candidates():
    # -I on four variables, Veronese 4 at D = 4: the degree-1 piece has the
    # 35 quartic monomials, so 2^35 - 1 projective candidates over F_2; the
    # sampled search decodes only the candidates it draws
    G = enumerate_group([[[-1 if i == j else 0 for j in range(4)] for i in range(4)]], ZZ)
    S = truncated_invariant_ring(G, GradedRing(4, ZZ), 4)
    Sbar = reduce_mod_p(veronese(S, 4), 2)
    assert len(Sbar.bases[1]) == 35
    res = find_sop_mod_p(Sbar)
    assert (res.found, res.tried, res.thetas) == (False, _SAMPLED_COMBOS, ())


def test_hilbert_bookkeeping_inequality():
    # at every stage h_quot(d) >= h_prev(d) - h_prev(d - deg theta), with
    # equality exactly where the certificate passes; a failure cell is the
    # first strict inequality
    import itertools
    import random as _random

    from invring.cmcert import truncated_quotient

    Sbar = quadric_cone_mod2(D=10)
    rng = _random.Random(5)
    candidates = Sbar.piece_polynomials(1)
    for _ in range(10):
        thetas = [rng.choice(candidates) for _ in range(2)]
        h_prev = list(hilbert_function(Sbar).values)
        for stage in range(1, 3):
            h_cur = truncated_quotient(Sbar, thetas[:stage])
            for d in range(Sbar.D + 1):
                lower = h_prev[d] - (h_prev[d - 1] if d >= 1 else 0)
                assert h_cur[d] >= lower
            h_prev = h_cur
        cert = regular_sequence_certificate(Sbar, thetas)
        if cert.status == "failed":
            assert cert.failed_stage in (1, 2)


def test_h_numerator():
    assert h_numerator([1, 1, 2, 2, 3, 3], [1, 2])[:4] == [1, 0, 0, 0]
    assert h_numerator([1, 2, 3, 4], [1, 1]) == [1, 0, 0, 0]


def test_gorenstein_minus_identity_raw_grading():
    ringq = GradedRing(2, QQ)
    G = enumerate_group([[[-1, 0], [0, -1]]], QQ)
    S = truncated_invariant_ring(G, ringq, 12)
    rep = gorenstein_symmetry_check(S, [2, 2])
    assert rep.symmetric
    assert rep.numerator == (1, 0, 1)
    assert "truncation" in rep.caveat


def test_gorenstein_full_polynomial_ring():
    ringq = GradedRing(2, QQ)
    S = truncated_invariant_ring(trivial_group(2, QQ), ringq, 10)
    rep = gorenstein_symmetry_check(S, [1, 1])
    assert rep.symmetric
    assert rep.numerator == (1,)


def test_gorenstein_asymmetric_artificial_data():
    # partial sums of 1 + t + t^3: numerator is not palindromic
    values = [1, 2, 2, 3, 3, 3, 3, 3, 3]
    rep = gorenstein_symmetry_check(values, [1])
    assert not rep.symmetric
    assert rep.numerator == (1, 1, 0, 1)


def test_gorenstein_needs_a_parameter_degree():
    with pytest.raises(ValueError, match="at least one parameter degree"):
        gorenstein_symmetry_check([1, 2, 3, 4], [])


def test_gorenstein_needs_a_hilbert_value():
    # an empty sequence has no numerator, so it cannot fail to terminate
    with pytest.raises(ValueError, match="need at least one Hilbert value") as exc:
        gorenstein_symmetry_check([], [1])
    assert not isinstance(exc.value, NumeratorNotTerminated)


def test_gorenstein_not_terminated():
    with pytest.raises(NumeratorNotTerminated):
        gorenstein_symmetry_check([1, 2, 4, 8], [1])


@pytest.mark.parametrize("degrees", [[0, 0], [1, 0], [2, -1]])
def test_gorenstein_rejects_parameter_degree_below_one(degrees):
    # 1 - t^0 = 0 would zero the numerator and read as symmetric
    with pytest.raises(ValueError, match="at least 1"):
        gorenstein_symmetry_check([1, 2, 3, 4, 5, 6], degrees)
