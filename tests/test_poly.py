"""Graded rings, polynomial arithmetic, and the linear action."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from invring import poly
from invring.domains import GF, QQ, ZZ, Z_local, parse_domain
from invring.poly import (
    GradedRing,
    Polynomial,
    _step_table,
    act,
    action_matrix,
    format_polynomial,
    graded_piece_basis,
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


def test_pow_negative_exponent_raises():
    X = R2.variable(0)
    assert X ** 0 == R2.constant(1)
    assert (X + R2.variable(1)) ** 3 == (X + R2.variable(1)) * (X + R2.variable(1)) ** 2
    with pytest.raises(ValueError, match="nonnegative"):
        X ** -1


@pytest.mark.parametrize("i", [-1, 2, 5])
def test_variable_out_of_range_raises(i):
    with pytest.raises(ValueError, match="no variable"):
        R2.variable(i)


def test_polynomial_from_vector_checks_length():
    piece = graded_piece_basis(R2, 2)
    for vec in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="length"):
            polynomial_from_vector(R2, piece, vec)
    assert polynomial_from_vector(R2, piece, (1, 0, -2)) == Polynomial(R2, {(2, 0): 1, (0, 2): -2})
    f3 = GradedRing(2, GF(3))
    f = polynomial_from_vector(f3, graded_piece_basis(f3, 1), (3, -2))
    assert f.terms == {(0, 1): 1}  # 3 is zero in F_3 and leaves no term


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


def _dense(columns, zero=0):
    """The n x n tuple matrix of sparse action columns, zero where absent."""
    return tuple(tuple(col.get(i, zero) for col in columns) for i in range(len(columns)))


def _sparse(matrix):
    """The columns of a dense matrix as {row index: nonzero entry}."""
    return tuple({i: row[c] for i, row in enumerate(matrix) if row[c]} for c in range(len(matrix)))


def test_action_matrix_examples():
    a = action_matrix(R2, SWAP, 2)
    assert _dense(a) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert _dense(action_matrix(R2, ((1, 0), (0, 1)), 3)) == tuple(
        tuple(int(i == j) for j in range(4)) for i in range(4)
    )
    assert _dense(action_matrix(R2, MINUS_I, 1)) == ((-1, 0), (0, -1))


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
        assert _dense(lhs) == mat_mul(ZZ, _dense(rhs_g), _dense(rhs_h))


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
    "nvars, terms, text",
    [
        pytest.param(nvars, terms, text, id=text)
        for nvars, terms, text in [
            (3, {(2, 1, 0): 3, (0, 0, 1): Fraction(-1, 2)}, "3*X^2*Y - 1/2*Z"),
            (3, {(1, 0, 0): 1, (0, 1, 0): 1}, "X + Y"),
            (3, {(3, 0, 0): -1}, "-X^3"),
            (3, {(0, 0, 0): 2}, "2"),
            (4, {(2, 1, 0, 0): 1, (0, 0, 0, 1): -1}, "X1^2*X2 - X4"),
        ]
    ],
)
def test_format_polynomial_known_answers(nvars, terms, text):
    assert format_polynomial(Polynomial(GradedRing(nvars, QQ), terms)) == text


def test_zlocal_coefficients_enforced():
    ring = GradedRing(2, Z_local(3))
    f = Polynomial(ring, {(1, 0): Fraction(1, 2)})
    assert f.terms[(1, 0)] == Fraction(1, 2)
    with pytest.raises(ValueError):
        Polynomial(ring, {(1, 0): Fraction(1, 3)})


def test_fp_coefficients_reduce():
    ring = GradedRing(2, GF(5))
    f = Polynomial(ring, {(1, 0): 7, (0, 1): 5})
    assert f.terms == {(1, 0): 2}


@pytest.mark.parametrize("dom", [ZZ, QQ, GF(5), Z_local(5)], ids=str)
def test_floats_are_refused(dom):
    for x in (2.7, 0.1, 2.0):
        with pytest.raises(ValueError, match="float"):
            dom.coerce(x)
        with pytest.raises(ValueError, match="float"):
            Polynomial(GradedRing(2, dom), {(1, 0): x})
    assert dom.coerce(2) == dom.coerce(Fraction(2)) == 2


@pytest.mark.parametrize("dom", [ZZ, QQ, GF(5), Z_local(5)], ids=str)
def test_non_numbers_are_refused(dom):
    # only ints and Fractions are scalars; bool is an int subclass, refused too
    for x in (Decimal("2.7"), Decimal("2"), "7", "1/2", True, False):
        with pytest.raises(ValueError, match="give an int or a Fraction"):
            dom.coerce(x)
        with pytest.raises(ValueError, match="give an int or a Fraction"):
            Polynomial(GradedRing(2, dom), {(1, 0): x})


@pytest.mark.parametrize(
    "text, dom",
    [
        ("Z", ZZ),
        (" Q ", QQ),
        ("Fp:5", GF(5)),
        ("F5", GF(5)),
        ("Zlocal:5", Z_local(5)),
        ("Z_(5)", Z_local(5)),
    ],
)
def test_parse_domain_reads_every_spelling(text, dom):
    assert parse_domain(text) == dom


@pytest.mark.parametrize("text", ["", "Z5", "F", "Fp5", "Zlocal5", "Z_(5", "GF(5)", "R"])
def test_parse_domain_refuses_unknown_text(text):
    with pytest.raises(ValueError, match="unrecognized coefficient domain"):
        parse_domain(text)


def test_constructor_brings_coefficients_into_the_domain():
    # direct construction coerces every coefficient, as arithmetic does
    f3 = GradedRing(2, GF(3))
    X, Y = f3.variable(0), f3.variable(1)
    f = Polynomial(f3, {(1, 0): 5, (0, 1): 3, (1, 1): -1})
    assert f.terms == {(1, 0): 2, (1, 1): 2}
    assert str(f) == "2*X*Y + 2*X"
    assert f == Polynomial(f3, {(1, 0): 2, (1, 1): 2}) == (X * Y + X).scale(2)
    assert Polynomial(f3, {(1, 0): Fraction(1, 2)}).terms == {(1, 0): 2}
    assert f3.constant(4).terms == {(0, 0): 1}
    assert f3.constant(3).is_zero()
    with pytest.raises(ValueError):
        Polynomial(f3, {(1, 0): Fraction(1, 3)})
    z3 = GradedRing(2, Z_local(3))
    g = Polynomial(z3, {(1, 0): 2, (0, 1): Fraction(1, 2), (1, 1): 0})
    assert g.terms == {(1, 0): 2, (0, 1): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in g.terms.values())
    assert g == z3.variable(0).scale(2) + z3.variable(1).scale(Fraction(1, 2))
    with pytest.raises(ValueError):
        Polynomial(z3, {(1, 0): Fraction(1, 3)})


# -- products against per-term domain arithmetic ------------------------------


def _reference_mul(f, g):
    """f * g with every product and sum through the domain's own methods."""
    dom = f.ring.coeff
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = dom.add(out.get(e, dom.zero), dom.mul(c1, c2))
    return {e: c for e, c in out.items() if not dom.is_zero(c)}


def _assert_canonical(f):
    dom = f.ring.coeff
    for c in f.terms.values():
        assert c != 0
        if dom.tag == "Fp":
            assert type(c) is int and 0 <= c < dom.p
        elif dom.tag == "Z":
            assert type(c) is int
        else:
            assert type(c) is Fraction


def _random_polynomial(rng, ring, nterms, max_exp):
    """Few exponents over few variables, so products collide often."""
    dom = ring.coeff
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        terms[e] = dom.coerce(_random_entry(rng, dom))
    return Polynomial(ring, terms)


@pytest.mark.parametrize("dom", [ZZ, QQ, GF(2), GF(3), GF(5), Z_local(3)], ids=str)
def test_mul_matches_per_term_reference(dom):
    rng = random.Random(f"mul-{dom}")
    cases = []
    for n in (1, 2, 3):
        ring = GradedRing(n, dom)
        for _ in range(25):
            f = _random_polynomial(rng, ring, rng.randint(0, 6), 2)
            g = _random_polynomial(rng, ring, rng.randint(0, 6), 2)
            cases.append((f, g))
    ring = GradedRing(2, dom)
    X, Y = ring.variable(0), ring.variable(1)
    cases.append((X - Y, X + Y))  # the X*Y terms cancel
    cases.append((ring.zero_poly, X + Y))
    if dom.tag == "Fp":
        # (X + Y)^p = X^p + Y^p: the binomial coefficients wrap to zero mod p
        p = dom.p
        power = (X + Y) ** p
        assert power.terms == {(p, 0): 1, (0, p): 1}
        cases.append(((X + Y) ** (p - 1), X + Y))
        cases.append((X.scale(p - 1) + Y.scale(p - 1), X.scale(p - 1) + Y))  # wraps
    for f, g in cases:
        got = f * g
        assert got.terms == _reference_mul(f, g), (f, g)
        _assert_canonical(got)


def _reference_termwise(f, g, op):
    """Terms of f op g, each through the domain's own add or sub."""
    dom = f.ring.coeff
    out = dict(f.terms)
    for e, c in g.terms.items():
        out[e] = op(out.get(e, dom.zero), c)
    return {e: c for e, c in out.items() if not dom.is_zero(c)}


def _reference_scale(f, c):
    dom = f.ring.coeff
    out = {e: dom.mul(dom.coerce(c), v) for e, v in f.terms.items()}
    return {e: v for e, v in out.items() if not dom.is_zero(v)}


@pytest.mark.parametrize("dom", [ZZ, QQ, GF(2), GF(5), Z_local(3)], ids=str)
def test_sums_negation_and_scaling_match_term_wise_reference(dom):
    rng = random.Random(f"add-{dom}")
    for n in (1, 2, 3):
        ring = GradedRing(n, dom)
        for _ in range(25):
            f = _random_polynomial(rng, ring, rng.randint(0, 6), 2)
            g = _random_polynomial(rng, ring, rng.randint(0, 6), 2)
            c = _random_entry(rng, dom)
            checks = [
                (f + g, _reference_termwise(f, g, dom.add)),
                (f - g, _reference_termwise(f, g, dom.sub)),
                (f - f, {}),
                (-f, {e: dom.neg(v) for e, v in f.terms.items()}),
                (f.scale(c), _reference_scale(f, c)),
                (f.scale(0), {}),
            ]
            if dom.tag == "Fp":
                checks.append((f.scale(dom.p), {}))  # p is zero in F_p
            for got, want in checks:
                assert got.terms == want, (f, g, c)
                _assert_canonical(got)


def test_arithmetic_refuses_operands_from_two_rings():
    x_z = GradedRing(1, ZZ).variable(0)
    half_x_q = GradedRing(1, QQ).variable(0).scale(Fraction(1, 2))
    x_f3 = GradedRing(1, GF(3)).variable(0)
    five_x_z = x_z.scale(5)
    for f, g in [(x_z, half_x_q), (half_x_q, x_z), (five_x_z, x_f3), (x_f3, five_x_z)]:
        for op in (f.__add__, f.__sub__, f.__mul__):
            with pytest.raises(ValueError, match="two rings"):
                op(g)
    # equal rings built apart are one ring
    assert x_z + GradedRing(1, ZZ).variable(0) == five_x_z - x_z.scale(3)


# -- action matrices against the substitution definition ---------------------


def test_step_table_known_answer():
    # degree 1: X, Y; degree 2: X^2, X*Y, Y^2
    steps, times_var = _step_table(2, 2)
    assert steps == ((0, 0), (0, 1), (1, 1))  # X^2 = X*X, X*Y = X*Y, Y^2 = Y*Y
    assert times_var == ((0, 1), (1, 2))  # X -> X^2, X*Y; Y -> X*Y, Y^2
    steps, times_var = _step_table(3, 1)
    assert steps == ((0, 0), (1, 0), (2, 0))
    assert times_var == ((0, 1, 2),)


def _reference_image(ring, g, m):
    """g.x^m = prod_j (sum_i g[i][j] X_i)^(m_j), in Polynomial arithmetic."""
    n = ring.nvars
    image = ring.constant(1)
    for j in range(n):
        form = ring.zero_poly
        for i in range(n):
            form = form + ring.variable(i).scale(g[i][j])
        image = image * form ** m[j]
    return image


def _reference_act(g, f):
    total = f.ring.zero_poly
    for e, c in f.terms.items():
        total = total + _reference_image(f.ring, g, e).scale(c)
    return total


def _reference_action_matrix(ring, g, d):
    """Columns are the images of the basis monomials, read off directly."""
    piece = graded_piece_basis(ring, d)
    cols = [_reference_image(ring, g, m).to_vector(piece) for m in piece.monomials]
    return tuple(tuple(col[i] for col in cols) for i in range(piece.dim))


SPARSE_DOMAINS = [ZZ, QQ, GF(2), GF(3), GF(5), Z_local(2), Z_local(3)]
HALF_SWAP = ((0, 2), (Fraction(1, 2), 0))


def _assert_canonical_columns(dom, columns, n):
    """n columns keyed by row indices below n, each entry nonzero and
    already in the domain: an int in [1, p) over F_p, an int over Z, and
    a Fraction over Q and Z_(p)."""
    kind = Fraction if dom.tag in ("Q", "Zlocal") else int
    assert len(columns) == n
    for col in columns:
        for t, v in col.items():
            assert 0 <= t < n
            assert type(v) is kind and v != 0 and dom.coerce(v) == v, (t, v)
            if dom.tag == "Fp":
                assert 0 < v < dom.p, v


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
            columns = action_matrix(ring, g, d)
            _assert_canonical_columns(dom, columns, len(columns))
            got = _dense(columns, dom.zero)
            want = _reference_action_matrix(ring, g, d)
            assert got == want, (n, g, d)
            assert [list(map(type, r)) for r in got] == [list(map(type, r)) for r in want]


@pytest.mark.parametrize("dom", [QQ, Z_local(3)], ids=str)
def test_action_matrix_of_fractional_matrices(dom):
    # the images come from forms scaled to integer numerators over the
    # common denominator of g, divided out once per entry; the denominators
    # 2, 4 and 5 are units of Z_(3), and integral columns share them too
    F = Fraction
    for g in (
        ((0, 2), (F(1, 2), 0)),
        ((F(1, 2), F(1, 4), 0), (F(-1, 5), 1, F(2, 5)), (0, F(-3, 2), F(1, 4))),
        ((F(1, 2), 1, 0, F(5, 2)), (F(-1, 4), 1, F(2, 5), 0),
         (0, F(1, 5), F(3, 2), -1), (F(2, 5), 0, F(1, 2), F(1, 4))),
    ):
        ring = GradedRing(len(g), dom)
        for d in range(6 if len(g) < 4 else 5):
            columns = action_matrix(ring, g, d)
            _assert_canonical_columns(dom, columns, len(columns))
            assert _dense(columns, dom.zero) == _reference_action_matrix(ring, g, d), (g, d)


@pytest.mark.parametrize("dom", SPARSE_DOMAINS, ids=str)
def test_action_columns_hold_nonzero_domain_entries(dom):
    from invring.fixtures import fixture_group, fixture_group_names

    cases = [
        (GradedRing(G.n, dom), g)
        for G in (fixture_group(name, dom) for name in fixture_group_names())
        for g in G.elements
    ]
    if dom.tag in ("Q", "Zlocal") and dom.p != 2:
        cases.append((GradedRing(2, dom), HALF_SWAP))
    for ring, g in cases:
        for d in range(7):
            _assert_canonical_columns(dom, action_matrix(ring, g, d), graded_piece_basis(ring, d).dim)


@pytest.mark.parametrize("dom", SPARSE_DOMAINS, ids=str)
def test_action_columns_functorial(dom):
    # column c of gh is the sum over t of h's entry (t, c) times column t of
    # g, summed on the sparse columns with the domain's own arithmetic
    from invring.domains import mat_mul
    from invring.fixtures import fixture_group, fixture_group_names

    rng = random.Random(f"columns-{dom}")
    pairs = []
    for name in fixture_group_names():
        G = fixture_group(name, dom)
        pairs += [(G.n, rng.choice(G.elements), rng.choice(G.elements)) for _ in range(4)]
    if dom.tag in ("Q", "Zlocal") and dom.p != 2:
        pairs += [(2, HALF_SWAP, HALF_SWAP), (2, HALF_SWAP, ((1, 1), (0, 1)))]
    for n, g, h in pairs:
        ring = GradedRing(n, dom)
        for d in range(6):
            cols_g, cols_h = action_matrix(ring, g, d), action_matrix(ring, h, d)
            for c, col in enumerate(action_matrix(ring, mat_mul(dom, g, h), d)):
                want = {}
                for t, x in cols_h[c].items():
                    for i, y in cols_g[t].items():
                        want[i] = dom.add(want.get(i, dom.zero), dom.mul(x, y))
                assert col == {i: v for i, v in want.items() if v}, (g, h, d, c)


# the retained images: each key keeps its last degree, which the next call extends

SHEAR3 = ((1, 1, 0), (0, 1, 1), (1, 0, 1))  # entries 0 and 1: one set of forms over Z, F_2, F_3
MEMO_CASES = [(dom, SHEAR3) for dom in (ZZ, QQ, GF(2), GF(3), Z_local(3))]
MEMO_CASES += [(dom, HALF_SWAP) for dom in (QQ, GF(3), Z_local(3))]
MEMO_ORDERS = {
    "ascending": list(range(7)),
    "descending": list(range(6, -1, -1)),
    "cold-high-first": [6, 0, 1, 2, 3, 4, 5, 6, 2],
}


@pytest.mark.parametrize("order", MEMO_ORDERS.values(), ids=MEMO_ORDERS.keys())
def test_action_columns_do_not_depend_on_call_order(order):
    # Z, Q and Z_(3) share the integer images of SHEAR3, and F_2 and F_3
    # differ from them only by the modulus; the cases run interleaved
    poly._image_builder.cache_clear()
    want = {
        (dom, g, d): _reference_action_matrix(GradedRing(len(g), dom), g, d)
        for dom, g in MEMO_CASES
        for d in range(7)
    }
    for d in order:
        for dom, g in MEMO_CASES:
            columns = action_matrix(GradedRing(len(g), dom), g, d)
            _assert_canonical_columns(dom, columns, len(columns))
            assert _dense(columns, dom.zero) == want[dom, g, d], (dom, g, d)


@pytest.mark.parametrize("dom", [ZZ, GF(2), QQ], ids=str)
def test_mutating_returned_columns_leaves_later_calls_alone(dom):
    poly._image_builder.cache_clear()
    ring = GradedRing(3, dom)
    for d in range(6):
        for _ in range(2):  # the same degree again, then the next one
            columns = action_matrix(ring, SHEAR3, d)
            assert _dense(columns, dom.zero) == _reference_action_matrix(ring, SHEAR3, d), d
            columns[0].clear()
            columns[-1][0] = dom.one


def test_retained_images_stay_bounded():
    builders = poly._image_builder
    builders.cache_clear()
    maxsize = builders.cache_info().maxsize
    for k in range(3 * maxsize):
        action_matrix(R2, ((1, k), (0, 1)), 3)
        assert builders.cache_info().currsize <= maxsize
    assert builders.cache_info().currsize == maxsize
    # the maxsize matrices asked last are all still held
    before = builders.cache_info()
    for k in range(2 * maxsize, 3 * maxsize):
        action_matrix(R2, ((1, k), (0, 1)), 3)
    after = builders.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (maxsize, 0)


@pytest.mark.parametrize("dom", [ZZ, QQ, GF(2), GF(5), Z_local(3)], ids=str)
def test_act_matches_substitution(dom):
    # seeded exponents 0-2 per variable, so f mixes degrees, the constant among them
    rng = random.Random(f"act-{dom}")
    for n in range(1, 5):
        ring = GradedRing(n, dom)
        for _ in range(6):
            g = _random_matrix(rng, dom, n, rng.randrange(n) if n % 2 == 0 else None)
            f = _random_polynomial(rng, ring, rng.randint(0, 6), 2)
            got = act(g, f)
            assert got.terms == _reference_act(g, f).terms, (n, g, f)
            _assert_canonical(got)


def test_act_checks_the_matrix_for_every_polynomial():
    for f in (R2.zero_poly, R2.constant(3), R2.variable(0) * R2.variable(1)):
        with pytest.raises(ValueError, match="matrix size"):
            act(((1, 0, 0), (0, 1, 0), (0, 0, 1)), f)
        with pytest.raises(ValueError, match="matrix size"):
            act(((1, 0), (0,)), f)
        with pytest.raises(ValueError, match="float"):
            act(((1, 0), (0, 0.5)), f)
    with pytest.raises(ValueError, match="denominator"):
        act(((1, 0), (0, Fraction(1, 3))), GradedRing(2, Z_local(3)).zero_poly)


def test_action_matrix_size_mismatch():
    with pytest.raises(ValueError, match="matrix size"):
        action_matrix(R2, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), 0)
    with pytest.raises(ValueError, match="matrix size"):
        action_matrix(R2, ((1, 0), (0,)), 2)


@pytest.mark.parametrize("d", [-1, -2])
def test_action_matrix_negative_degree_raises(d):
    # like graded_piece_basis; a negative degree has no monomial basis
    with pytest.raises(ValueError, match="nonnegative"):
        action_matrix(R2, ((1, 0), (0, 1)), d)


def test_invariant_bases_match_reference_action(monkeypatch):
    from invring.fixtures import GROUP_GENERATORS, fixture_group
    from invring.invariants import truncated_invariant_ring

    for name, spec in GROUP_GENERATORS.items():
        for dom in (ZZ, QQ, GF(2), GF(3), Z_local(3)):
            G = fixture_group(name, dom)
            ring = GradedRing(spec["n"], dom)
            got = truncated_invariant_ring(G, ring, 6).bases
            with monkeypatch.context() as mp:
                mp.setattr(
                    "invring.invariants.action_matrix",
                    lambda ring, g, d: _sparse(_reference_action_matrix(ring, g, d)),
                )
                want = truncated_invariant_ring(G, ring, 6).bases
            assert got == want, (name, dom)
