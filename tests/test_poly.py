"""Graded rings, polynomial arithmetic, and the linear action."""

import math
import random
from fractions import Fraction

import pytest

from invring.domains import GF, QQ, ZZ, Z_local
from invring.poly import (
    GradedRing,
    Polynomial,
    act,
    action_matrix,
    format_polynomial,
    graded_piece_basis,
    parse_polynomial,
    polynomial_from_vector,
)

R2 = GradedRing(2, ZZ)
R3 = GradedRing(3, ZZ)
SWAP = ((0, 1), (1, 0))
MINUS_I = ((-1, 0), (0, -1))


def test_piece_basis_small():
    assert graded_piece_basis(R2, 1).monomials == ((1, 0), (0, 1))
    assert graded_piece_basis(R2, 2).monomials == ((2, 0), (1, 1), (0, 2))
    assert graded_piece_basis(R3, 2).dim == 6


def test_piece_dims_match_series():
    # the degree-d piece of n variables has C(d + n - 1, n - 1) monomials
    for ring in (R2, R3, GradedRing(4, ZZ)):
        n = ring.nvars
        for d in range(9):
            assert graded_piece_basis(ring, d).dim == math.comb(d + n - 1, n - 1)


def test_multiply():
    X, Y = R2.variable(0), R2.variable(1)
    assert (X + Y) * (X + Y) == X * X + (X * Y).scale(2) + Y * Y
    assert (X - Y) * (X + Y) == X * X - Y * Y
    assert (X * Y) * R2.zero_poly == R2.zero_poly


def test_act_examples():
    X, Y = R2.variable(0), R2.variable(1)
    assert act(SWAP, X) == Y
    f = X * X + X * Y
    ident = ((1, 0), (0, 1))
    assert act(ident, f) == f
    assert act(MINUS_I, f) == f  # even degree is fixed by -I


def test_act_ring_homomorphism():
    X, Y = R2.variable(0), R2.variable(1)
    f = X * X - Y
    g = X + Y.scale(3)
    m = ((1, 2), (0, 1))
    assert act(m, f * g) == act(m, f) * act(m, g)
    assert act(m, f + g) == act(m, f) + act(m, g)


def test_action_matrix_examples():
    a = action_matrix(R2, SWAP, 2)
    assert a == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert action_matrix(R2, ((1, 0), (0, 1)), 3) == tuple(
        tuple(int(i == j) for j in range(4)) for i in range(4)
    )
    assert action_matrix(R2, MINUS_I, 1) == ((-1, 0), (0, -1))


def test_action_matrix_functorial():
    from invring.domains import mat_mul
    from invring.groups import enumerate_group

    rng = random.Random(5)
    s3 = enumerate_group(
        [
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        ],
        ZZ,
    )
    for _ in range(50):
        g = rng.choice(s3.elements)
        h = rng.choice(s3.elements)
        d = rng.randint(0, 6)
        lhs = action_matrix(R3, mat_mul(ZZ, g, h), d)
        rhs_g = action_matrix(R3, g, d)
        rhs_h = action_matrix(R3, h, d)
        assert lhs == mat_mul(ZZ, rhs_g, rhs_h)


def test_act_preserves_degree():
    rng = random.Random(9)
    for _ in range(20):
        d = rng.randint(1, 6)
        piece = graded_piece_basis(R2, d)
        vec = [rng.randint(-3, 3) for _ in range(piece.dim)]
        f = polynomial_from_vector(R2, piece, vec)
        g = act(((1, 1), (0, 1)), f)  # any integer matrix works here
        if not g.is_zero():
            assert g.degree() == f.degree()
            assert g.is_homogeneous()


@pytest.mark.parametrize(
    "text, back",
    [
        ("3*X^2*Y - 1/2*Z", "3*X^2*Y - 1/2*Z"),
        ("X + Y", "X + Y"),
        ("-X^3", "-X^3"),
        ("2", "2"),
    ],
)
def test_parse_format_roundtrip(text, back):
    ring = GradedRing(3, QQ)
    f = parse_polynomial(ring, text)
    assert format_polynomial(f) == back
    assert parse_polynomial(ring, format_polynomial(f)) == f


def test_parse_x1_names():
    ring = GradedRing(4, QQ)
    f = parse_polynomial(ring, "X1^2*X2 - X4")
    assert f.degree() == 3


def test_parse_rejects_unknown_symbol():
    with pytest.raises(ValueError):
        parse_polynomial(R2, "X + Q")


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_polynomial(GradedRing(2, QQ), "1/0*X")


def test_zlocal_coefficients_enforced():
    ring = GradedRing(2, Z_local(3))
    f = parse_polynomial(ring, "1/2*X")
    assert f.terms[(1, 0)] == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_polynomial(ring, "1/3*X")


def test_fp_coefficients_reduce():
    ring = GradedRing(2, GF(5))
    f = parse_polynomial(ring, "7*X + 5*Y")
    assert f.terms == {(1, 0): 2}


# -- action matrices against the substitution definition ---------------------


def _reference_action_matrix(ring, g, d):
    """Columns are act(g, m) for each basis monomial m, read off directly."""
    piece = graded_piece_basis(ring, d)
    dom = ring.coeff
    cols = [act(g, Polynomial(ring, {m: dom.one})).to_vector(piece) for m in piece.monomials]
    return tuple(tuple(col[i] for col in cols) for i in range(piece.dim))


def _random_entry(rng, dom):
    """A scalar that coerce() accepts, chosen to exercise the domain's edges."""
    if dom.tag == "Z":
        return rng.randint(-3, 3)
    if dom.tag == "Fp":
        return rng.randint(-2 * dom.p, 2 * dom.p)  # negative and >= p alike
    num = rng.randint(-4, 4)
    if dom.tag == "Q":
        return Fraction(num, rng.randint(1, 6))
    den = rng.choice([q for q in range(1, 8) if q % dom.p])  # Z_(p): prime to p
    return Fraction(num, den)


def _random_matrix(rng, dom, n, zero_col):
    """Seeded n x n entries; column zero_col, if given, is zero."""
    m = [[_random_entry(rng, dom) for _ in range(n)] for _ in range(n)]
    if zero_col is not None:
        for row in m:
            row[zero_col] = 0
    return tuple(map(tuple, m))


@pytest.mark.parametrize(
    "dom", [ZZ, QQ, GF(2), GF(3), GF(5), Z_local(2), Z_local(3)], ids=str
)
def test_action_matrix_matches_substitution(dom):
    rng = random.Random(f"action-{dom}")
    for n in range(1, 5):
        ring = GradedRing(n, dom)
        g = _random_matrix(rng, dom, n, rng.randrange(n) if n % 2 == 0 else None)
        for d in range(7):
            got = action_matrix(ring, g, d)
            want = _reference_action_matrix(ring, g, d)
            assert got == want, (n, g, d)
            assert [list(map(type, r)) for r in got] == [list(map(type, r)) for r in want]


def test_action_matrix_size_mismatch():
    with pytest.raises(ValueError, match="matrix size"):
        action_matrix(R2, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), 0)
    with pytest.raises(ValueError, match="matrix size"):
        action_matrix(R2, ((1, 0), (0,)), 2)


def test_invariant_bases_match_reference_action(monkeypatch):
    from invring.fixtures import GROUP_GENERATORS, fixture_group
    from invring.invariants import truncated_invariant_ring

    for name, spec in GROUP_GENERATORS.items():
        for dom in (ZZ, QQ, GF(2), GF(3), Z_local(3)):
            G = fixture_group(name, dom)
            ring = GradedRing(spec["n"], dom)
            got = truncated_invariant_ring(G, ring, 6).bases
            with monkeypatch.context() as mp:
                mp.setattr("invring.invariants.action_matrix", _reference_action_matrix)
                want = truncated_invariant_ring(G, ring, 6).bases
            assert got == want, (name, dom)
