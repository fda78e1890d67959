"""Reduction mod p, parameter search, and regularity certificates."""

import pytest

from invring.cmcert import (
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


def test_find_sop_insufficient_truncation():
    Sbar = quadric_cone_mod2(D=2)  # truncates to a single degree
    res = find_sop_mod_p(Sbar, 2)
    assert not res.found
    assert res.message


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
    with pytest.raises(NotStandardGraded):
        cm_certificate(S, [2])


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


def test_veronese_search_concurrent_matches_serial():
    rot3 = enumerate_group([[[0, -1], [1, -1]]], ZZ)
    serial = veronese_cm_search(rot3, R2, l_max=6, D=12)
    parallel = veronese_cm_search(rot3, R2, l_max=6, D=12, workers=4)
    assert serial.first_certified == parallel.first_certified
    assert [(a.l, a.standard_graded, a.certified) for a in serial.attempts] == [
        (a.l, a.standard_graded, a.certified) for a in parallel.attempts
    ]


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
    assert all(0 <= h <= b for h, b in zip(q.hilbert, base))
    assert q.parameters == thetas
    assert q.hilbert[:3] == (1, 1, 0)


def test_hilbert_bookkeeping_inequality():
    # at every stage h_quot(d) >= h_prev(d) - h_prev(d - deg theta), with
    # equality exactly where the certificate passes; a failure cell is the
    # first strict inequality
    import itertools
    import random as _random

    from invring.cmcert import _ideal_piece_spans

    Sbar = quadric_cone_mod2(D=10)
    rng = _random.Random(5)
    candidates = Sbar.piece_polynomials(1)
    for _ in range(10):
        thetas = [rng.choice(candidates) for _ in range(2)]
        h_prev = list(hilbert_function(Sbar).values)
        for stage in range(1, 3):
            spans = _ideal_piece_spans(Sbar, thetas[:stage], [1] * stage)
            h_cur = [len(Sbar.bases[d]) - len(spans[d]) for d in range(Sbar.D + 1)]
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
