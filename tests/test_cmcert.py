"""Reduction mod p, parameter search, and regularity certificates."""

import itertools
import math
import random

import pytest

from invring.cmcert import (
    _EXHAUSTIVE_CAP,
    _SAMPLED_COMBOS,
    _nth_combination,
    NotStandardGraded,
    NumeratorNotTerminated,
    cm_certificate,
    find_sop_mixed,
    find_sop_mod_p,
    gorenstein_symmetry_check,
    h_numerator,
    reduce_mod_p,
    regular_sequence_certificate,
    veronese_cm_search,
)
from invring.domains import GF, QQ, ZZ
from invring.groups import enumerate_group, trivial_group
from invring.invariants import (
    hilbert_function,
    truncated_invariant_ring,
    veronese,
)
from invring.poly import GradedRing

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
    res = find_sop_mod_p(Sbar, 2)
    assert res.found
    names = sorted(str(t) for t in res.thetas)
    assert names == ["X^2", "Y^2"]


def test_find_sop_full_polynomial_ring():
    S = truncated_invariant_ring(trivial_group(2, ZZ), R2, 8)
    Sbar = reduce_mod_p(S, 3)
    res = find_sop_mod_p(Sbar, 2)
    assert res.found
    assert sorted(str(t) for t in res.thetas) == ["X", "Y"]


def test_find_sop_sampled_search():
    # degree 7 of two variables has 8 monomials, so 2^8 - 1 = 255 projective
    # candidates over F_2 and 255 * 254 ordered pairs: too many to search
    # exhaustively, so the search samples
    S = truncated_invariant_ring(trivial_group(2, ZZ), R2, 14)
    Sbar = reduce_mod_p(veronese(S, 7), 2)
    res = find_sop_mod_p(Sbar, 2)
    assert 255 * 254 > _EXHAUSTIVE_CAP
    assert res.found and 1 <= res.tried <= _SAMPLED_COMBOS
    assert res.tried == 4
    again = find_sop_mod_p(Sbar, 2)
    assert (again.thetas, again.tried) == (res.thetas, res.tried)
    assert regular_sequence_certificate(Sbar, res.thetas).status == "certified"


def test_find_sop_insufficient_truncation():
    Sbar = quadric_cone_mod2(D=2)  # truncates to a single degree
    res = find_sop_mod_p(Sbar, 2)
    assert not res.found
    # C(7, 2) pairs of the 2^3 - 1 projective degree-1 candidates, each once
    assert res.tried == 21


def test_find_sop_requires_standard_graded():
    S = truncated_invariant_ring(MINUS_I, R2, 6)
    Sbar = reduce_mod_p(S, 2)
    with pytest.raises(NotStandardGraded):
        find_sop_mod_p(Sbar, 2)


def test_regular_sequence_quadric():
    Sbar = quadric_cone_mod2()
    thetas = find_sop_mod_p(Sbar, 2).thetas
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
    res = find_sop_mixed(Sbar, 3)
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

    def recorded(Sbar, dim, seed):
        res = find_sop_mod_p(Sbar, dim, seed=seed)
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
    from invring.fixtures import fixture_group
    from invring.groups import sylow_subgroup

    assert _MIXED_EVAL_BUDGET == 6000
    SH = truncated_invariant_ring(
        sylow_subgroup(fixture_group("s3"), p), GradedRing(3, ZZ), 8
    )
    for l in range(1, 5):
        res = find_sop_mixed(reduce_mod_p(veronese(SH, l), p), 3)
        got = (res.found, res.tried, tuple(str(t) for t in res.thetas))
        assert got == MIXED_TRAJECTORIES[p, l], (p, l)


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
    thetas = find_sop_mod_p(Sbar, 2).thetas
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


def test_quotient_evaluators_reject_non_prime_field():
    from invring.cmcert import truncated_quotient

    S = truncated_invariant_ring(trivial_group(2, ZZ), R2, 4)
    xs = S.piece_polynomials(1)
    with pytest.raises(ValueError):
        truncated_quotient(S, xs)
    with pytest.raises(ValueError):
        regular_sequence_certificate(S, xs)


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


def test_gorenstein_not_terminated():
    with pytest.raises(NumeratorNotTerminated):
        gorenstein_symmetry_check([1, 2, 4, 8], [1])
