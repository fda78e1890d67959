"""Cyclic group cohomology through the periodic trace complex."""

import functools
import random
from fractions import Fraction
from math import lcm
from operator import mul

import pytest

from invring.cohomology import (
    CohomologyGroup,
    CyclicModule,
    PreconditionViolated,
    cohomology,
    graded_cohomology,
    trace_matrix,
    verify_h1_degree0,
    verify_h2_trivial_mod_pi,
    verify_pi_annihilates_h1,
)
from invring.domains import GF, QQ, ZZ, Z_local, mat_mul
from invring.fixtures import (
    fixture_group,
    fixture_group_names,
    random_order_p_matrix,
    random_order_p_module,
    random_trivial_mod_p_module,
)
from invring.groups import cyclic_generator, enumerate_group
from invring.linalg import (
    IntegerMatrix,
    _lattice_coordinates,
    cokernel_invariant_factors,
    integer_kernel_basis,
)
from invring.poly import GradedRing, action_matrix


@pytest.mark.parametrize(
    "domain, sigma, order, accepted",
    [
        (ZZ, ((0, 1), (1, 0)), 3, False),
        (ZZ, ((1, 1), (0, 1)), 2, False),
        (ZZ, ((2,),), 1, False),
        (ZZ, ((1,),), 0, False),
        (GF(3), ((1,),), 1, False),
        (QQ, ((0, 2), (Fraction(1, 2), 0)), 2, True),
        (Z_local(3), ((0, 2), (Fraction(1, 2), 0)), 2, True),
        (Z_local(2), ((0, 2), (Fraction(1, 2), 0)), 2, False),
        (QQ, ((0, Fraction(-1, 3)), (3, -1)), 3, True),
        (Z_local(5), ((0, Fraction(-1, 3)), (3, -1)), 3, True),
    ],
)
def test_cyclic_module_validation(domain, sigma, order, accepted):
    if accepted:
        M = CyclicModule(domain, sigma, order)
        assert M.rank == len(sigma)
    else:
        with pytest.raises(ValueError):
            CyclicModule(domain, sigma, order)


def test_denominators_by_diagonal_conjugation():
    # D sigma D^-1 with D = diag(q^a_i) is isomorphic to sigma over every
    # ring in which q is a unit, so the answers must match the integer
    # module's, and the trace must be the conjugate trace
    rng = random.Random(9)
    with_denominators = 0
    for dom in (QQ, Z_local(2), Z_local(3), Z_local(11)):
        q = 5 if dom.p == 2 else 2
        for p in (2, 3):
            for _ in range(15):
                sigma = random_order_p_matrix(rng, p)
                n = len(sigma)
                scale = [Fraction(q) ** rng.randint(-2, 2) for _ in range(n)]
                conj = tuple(
                    tuple(sigma[i][j] * scale[i] / scale[j] for j in range(n)) for i in range(n)
                )
                with_denominators += any(x.denominator != 1 for row in conj for x in row)
                M = CyclicModule(dom, sigma, p)
                C = CyclicModule(dom, conj, p)
                for i in range(5):
                    assert cohomology(C, i) == cohomology(M, i), (dom, sigma, conj, i)
                tr = trace_matrix(M)
                assert trace_matrix(C) == tuple(
                    tuple(tr[i][j] * scale[i] / scale[j] for j in range(n)) for i in range(n)
                )
    assert with_denominators >= 60


def test_trace_matrix_examples():
    assert trace_matrix(CyclicModule(ZZ, ((1,),), 3)) == ((3,),)
    assert trace_matrix(CyclicModule(ZZ, ((-1,),), 2)) == ((0,),)
    swap = CyclicModule(ZZ, ((0, 1), (1, 0)), 2)
    assert trace_matrix(swap) == ((1, 1), (1, 1))
    assert cohomology(swap, 0) == CohomologyGroup(1, ())


def test_trace_composes_to_zero_with_sigma_minus_1():
    rng = random.Random(2)
    for p in (2, 3):
        for _ in range(20):
            M = random_order_p_module(rng, p)
            tr = trace_matrix(M)
            sm1 = tuple(
                tuple(x - (i == j) for j, x in enumerate(row)) for i, row in enumerate(M.sigma)
            )
            zero = tuple(tuple(0 for _ in range(M.rank)) for _ in range(M.rank))
            assert mat_mul(ZZ, tr, sm1) == zero
            assert mat_mul(ZZ, sm1, tr) == zero


def test_cohomology_trivial_action():
    M = CyclicModule(ZZ, ((1,),), 5)
    assert cohomology(M, 0) == CohomologyGroup(1, ())
    assert cohomology(M, 1) == CohomologyGroup(0, ())
    assert cohomology(M, 2) == CohomologyGroup(0, (5,))


def test_cohomology_sign_action():
    M = CyclicModule(ZZ, ((-1,),), 2)
    assert cohomology(M, 0) == CohomologyGroup(0, ())
    assert cohomology(M, 1) == CohomologyGroup(0, (2,))
    assert cohomology(M, 2) == CohomologyGroup(0, ())


def test_cohomology_diag_over_zlocal():
    M = CyclicModule(Z_local(2), ((1, 0), (0, -1)), 2)
    assert cohomology(M, 2) == CohomologyGroup(0, (2,))


def test_cohomology_trivial_action_rank_r():
    M = CyclicModule(ZZ, tuple(tuple(int(i == j) for j in range(3)) for i in range(3)), 4)
    assert cohomology(M, 0) == CohomologyGroup(3, ())
    assert cohomology(M, 2) == CohomologyGroup(0, (4, 4, 4))
    assert cohomology(M, 1) == CohomologyGroup(0, ())
    assert cohomology(M, 3) == CohomologyGroup(0, ())


def test_periodicity_random():
    rng = random.Random(0)
    for p in (2, 3):
        for _ in range(100):
            M = random_order_p_module(rng, p)
            for i in (1, 2, 3, 4):
                assert cohomology(M, i) == cohomology(M, i + 2)


def test_cohomology_over_q_vanishes():
    # Maschke: |G| is invertible in Q, so H^i(G, V) = 0 for every i >= 1;
    # H^0 is the fixed space, whose dimension is the rank of the fixed lattice
    rng = random.Random(3)
    for p in (2, 3):
        for _ in range(20):
            sigma = random_order_p_matrix(rng, p)
            M = CyclicModule(QQ, sigma, p)
            for i in (1, 2, 3):
                assert cohomology(M, i) == CohomologyGroup(0, ())
            assert cohomology(M, 0) == cohomology(CyclicModule(ZZ, sigma, p), 0)


def test_torsion_annihilated_by_order():
    rng = random.Random(1)
    for p in (2, 3):
        for _ in range(50):
            M = random_order_p_module(rng, p)
            for i in (1, 2):
                h = cohomology(M, i)
                assert h.free_rank == 0
                assert all(p % t == 0 for t in h.torsion)


@pytest.mark.parametrize(
    "sigma, expect_both",
    [
        (((1, 0), (0, 1)), (2, 2)),
        (((1, 0), (0, -1)), (2,)),
        (((-1, 0), (0, -1)), ()),
    ],
)
def test_lemma_h2_equals_fixed_mod_p(sigma, expect_both):
    M = CyclicModule(Z_local(2), sigma, 2)
    rep = verify_h2_trivial_mod_pi(M)
    assert rep.holds
    assert rep.lhs.torsion == expect_both


def test_lemma_h2_precondition():
    with pytest.raises(PreconditionViolated):
        verify_h2_trivial_mod_pi(CyclicModule(Z_local(2), ((0, 1), (1, 0)), 2))
    with pytest.raises(PreconditionViolated):
        verify_h2_trivial_mod_pi(CyclicModule(ZZ, ((1,),), 3))
    with pytest.raises(PreconditionViolated, match="Z or Z localized at p"):
        verify_h2_trivial_mod_pi(CyclicModule(QQ, ((-1,),), 2))
    with pytest.raises(PreconditionViolated, match="order must equal p = 3"):
        verify_h2_trivial_mod_pi(CyclicModule(Z_local(3), ((-1,),), 2))


def test_verifier_preconditions_and_index_are_checked():
    rot4 = enumerate_group([[[0, -1], [1, 0]]], ZZ)
    with pytest.raises(PreconditionViolated, match="prime order"):
        verify_h1_degree0(rot4, GradedRing(2, ZZ))
    swap = CyclicModule(Z_local(2), ((0, 1), (1, 0)), 2)
    with pytest.raises(PreconditionViolated, match="not trivial mod p"):
        verify_pi_annihilates_h1(swap)
    with pytest.raises(ValueError, match="nonnegative"):
        cohomology(swap, -1)


def test_lemma_h2_fuzz():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(100):
            M = random_trivial_mod_p_module(rng, p)
            assert verify_h2_trivial_mod_pi(M).holds


def test_h1_degree0():
    for gens, ring in [
        ([[[-1]]], GradedRing(1, ZZ)),
        ([[[-1, 0], [0, -1]]], GradedRing(2, ZZ)),
        ([[[0, -1], [1, -1]]], GradedRing(2, Z_local(3))),
    ]:
        G = enumerate_group(gens, ring.coeff)
        assert verify_h1_degree0(G, ring)


def test_pi_annihilates_h1():
    assert verify_pi_annihilates_h1(CyclicModule(Z_local(2), ((-1,),), 2))
    ident3 = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    assert verify_pi_annihilates_h1(CyclicModule(Z_local(5), ident3, 5))
    rng = random.Random(4)
    for _ in range(50):
        M = random_trivial_mod_p_module(rng, 2, max_rank=3)
        assert verify_pi_annihilates_h1(M)


def test_graded_cohomology_minus_identity():
    G = enumerate_group([[[-1, 0], [0, -1]]], ZZ)
    ring = GradedRing(2, ZZ)
    # odd degree pieces: sigma acts by -1, H^1 = (Z/2)^dim
    h1 = graded_cohomology(G, ring, 1, 3)
    assert h1 == CohomologyGroup(0, (2, 2, 2, 2))
    # even degree pieces are fixed: H^1 vanishes, H^2 = (Z/2)^dim
    assert graded_cohomology(G, ring, 1, 2) == CohomologyGroup(0, ())
    assert graded_cohomology(G, ring, 2, 2) == CohomologyGroup(0, (2, 2, 2))


@functools.cache
def _integer_subquotients(sigma, order):
    """(torsion, free rank) of ker A / im B over Z for i = 0, 1, 2, from the
    integer forms of the complex: B is delta*(s - 1) for odd i and
    delta^(n-1)*Tr for even i, A the other one, and i = 0 reads ker(s - 1).
    Image columns are written in integer coordinates of the kernel basis,
    and the coordinate matrix is Smith-reduced."""
    n = len(sigma)
    delta = lcm(*(Fraction(x).denominator for row in sigma for x in row))
    numerator = [[int(delta * x) for x in row] for row in sigma]
    # delta^(n-1) * (I + s + ... + s^(n-1)) = sum of delta^(n-1-k) * N^k
    power = [[int(r == c) for c in range(n)] for r in range(n)]
    tr = [[delta ** (order - 1) * x for x in row] for row in power]
    for k in range(1, order):
        power = [[sum(map(mul, row, col)) for col in zip(*numerator)] for row in power]
        scale = delta ** (order - 1 - k)
        tr = [[a + scale * b for a, b in zip(u, v)] for u, v in zip(tr, power)]
    s_minus_1 = [
        [x - delta * (r == c) for c, x in enumerate(row)] for r, row in enumerate(numerator)
    ]
    out = [((), integer_kernel_basis(IntegerMatrix(s_minus_1, cols=n)).rows)]
    for kernel_of, image_of in ((tr, s_minus_1), (s_minus_1, tr)):
        ker = integer_kernel_basis(IntegerMatrix(kernel_of, cols=n)).data
        coords = [_lattice_coordinates(ker, col) for col in zip(*image_of)]
        assert None not in coords
        coordinate_matrix = IntegerMatrix(list(zip(*coords)) if ker else [], cols=n)
        out.append(cokernel_invariant_factors(coordinate_matrix))
    return out


def _subquotient_oracle(M):
    """H^0, H^1 and H^2 as explicit subquotients; over Z_(p) only p-parts
    of the torsion are kept, over Q none."""
    out = []
    for torsion, free in _integer_subquotients(M.sigma, M.order):
        if M.domain.tag == "Q":
            torsion = ()
        elif M.domain.tag == "Zlocal":
            p, local = M.domain.p, []
            for t in torsion:
                part = 1
                while t % p == 0:
                    t, part = t // p, part * p
                if part > 1:
                    local.append(part)
            torsion = tuple(local)
        out.append(CohomologyGroup(free, torsion))
    return out


def _oracle_modules():
    rng = random.Random(31)
    for p in (2, 3):
        for _ in range(40):
            yield random_order_p_module(rng, p)
    for p in (2, 3, 5):
        for _ in range(15):
            yield random_trivial_mod_p_module(rng, p)
    for dom in (QQ, Z_local(3)):
        yield CyclicModule(dom, ((0, 2), (Fraction(1, 2), 0)), 2)


def test_cohomology_is_the_explicit_subquotient():
    for M in _oracle_modules():
        want = _subquotient_oracle(M)
        for i in range(7):
            assert cohomology(M, i) == want[min(i, 2 - i % 2)], (M, i)


def test_graded_cohomology_is_the_explicit_subquotient():
    """Graded pieces of the cyclic fixtures, d <= 8, over Z, Q, Z_(2), Z_(3)."""
    checked = 0
    for name in fixture_group_names():
        for dom in (ZZ, QQ, Z_local(2), Z_local(3)):
            G = fixture_group(name, dom)
            try:
                g = cyclic_generator(G)
            except ValueError:
                continue
            ring = GradedRing(G.n, dom)
            for d in range(9):
                columns = action_matrix(ring, g, d)
                sigma = [[col.get(r, 0) for col in columns] for r in range(len(columns))]
                M = CyclicModule(dom, sigma, G.order)
                want = _subquotient_oracle(M)
                for i in range(7):
                    assert cohomology(M, i) == want[min(i, 2 - i % 2)], (name, dom, d, i)
                if d == 5:
                    # the path the command line takes
                    assert graded_cohomology(G, ring, 3, d) == want[1]
                checked += 1
    assert checked == 7 * 4 * 9
