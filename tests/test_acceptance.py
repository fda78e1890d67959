"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Every check is exact; stated runtime limits are asserted alongside the
mathematical content.  Regression values (the first certified Veronese index
per fixture group) were computed once with this code and are pinned.
"""

import random
import time
from fractions import Fraction

from invring.cohomology import (
    cohomology,
    verify_h1_degree0,
    verify_h2_trivial_mod_pi,
    verify_pi_annihilates_h1,
    CyclicModule,
)
from invring.cmcert import (
    cm_certificate,
    gorenstein_symmetry_check,
    veronese_cm_search,
)
from invring.domains import QQ, ZZ, Z_local
from invring.fixtures import (
    fixture_group,
    fixture_group_names,
    random_order_p_module,
    random_trivial_mod_p_module,
)
from invring.groups import enumerate_group, sylow_subgroup
from invring.invariants import (
    hilbert_function,
    invariant_basis,
    trace_average_invariant_count,
    transfer,
    truncated_invariant_ring,
    veronese,
)
from invring.linalg import (
    IntegerMatrix,
    hermite_normal_form,
    integer_kernel_basis,
    rank,
    smith_normal_form,
)
from invring.poly import GradedRing, action_matrix, graded_piece_basis, polynomial_from_vector
from invring.quadratic import NumberRing, class_group, verify_div_compatibility


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


def test_criterion_01_transfer_splitting():
    start = time.monotonic()
    coeff = Z_local(3)
    ring = GradedRing(3, coeff)
    G = fixture_group("s3", coeff)
    H = sylow_subgroup(G, 3)
    checked = 0
    ok = True
    for d in range(0, 7):
        piece = graded_piece_basis(ring, d)
        for row in invariant_basis(G, ring, d):
            f = polynomial_from_vector(ring, piece, row)
            if transfer(f, G, H) != f:
                ok = False
            checked += 1
    elapsed = time.monotonic() - start
    _report(
        1,
        "transfer splitting on (R^G)_d for d <= 6",
        ok and checked > 0 and elapsed < 10.0,
        f"{checked} basis elements, {elapsed:.2f}s",
    )


def test_criterion_02_h2_equals_fixed_mod_p():
    start = time.monotonic()
    rng = random.Random(0)
    ok = True
    checked = 0
    for p in (2, 3, 5):
        for _ in range(100):
            M = random_trivial_mod_p_module(rng, p, max_rank=4)
            rep = verify_h2_trivial_mod_pi(M)
            ok = ok and rep.holds and rep.lhs == rep.rhs
            checked += 1
    elapsed = time.monotonic() - start
    _report(
        2,
        "H^2 equals fixed module mod p on random order-p actions",
        ok and checked == 300 and elapsed < 30.0,
        f"{checked} modules, {elapsed:.2f}s",
    )


def test_criterion_03_h1_degree_zero_and_annihilation():
    ok = True
    for name in ("minus-identity", "swap", "a3", "rot3", "transposition3"):
        G = fixture_group(name)
        ok = ok and verify_h1_degree0(G, GradedRing(G.n, ZZ))
    # annihilation of H^1 by the uniformizer on mod-p-trivial actions
    ring2 = GradedRing(2, Z_local(2))
    G2 = fixture_group("minus-identity", Z_local(2))
    gen = G2.generators[0]
    for d in range(0, 7):
        columns = action_matrix(ring2, gen, d)
        sigma = [[col.get(i, 0) for col in columns] for i in range(len(columns))]
        M = CyclicModule(domain=Z_local(2), sigma=sigma, order=2)
        ok = ok and verify_pi_annihilates_h1(M)
    rng = random.Random(1)
    for p in (2, 3, 5):
        for _ in range(50):
            M = random_trivial_mod_p_module(rng, p)
            ok = ok and verify_pi_annihilates_h1(M)
    _report(3, "H^1 vanishes in degree 0 and p kills H^1", ok)


def test_criterion_04_periodicity():
    rng = random.Random(2)
    ok = True
    checked = 0
    for p in (2, 3):
        for _ in range(50):
            M = random_order_p_module(rng, p)
            for i in (1, 2, 3, 4):
                ok = ok and cohomology(M, i) == cohomology(M, i + 2)
            checked += 1
    _report(4, "two-periodicity of cyclic cohomology", ok and checked == 100)


def test_criterion_05_molien_cross_check():
    ok = True
    for name in fixture_group_names():
        G = fixture_group(name, QQ)
        ring = GradedRing(G.n, QQ)
        for d in range(0, 9):
            count = trace_average_invariant_count(G, ring, d)
            rk = len(invariant_basis(G, ring, d))
            ok = ok and count == Fraction(rk)
    _report(5, "trace-average count equals invariant rank (d <= 8)", ok)


# first certified Veronese index per GL_2 fixture, pinned as regression values
VERONESE_REGRESSION = {
    "minus-identity": 2,
    "swap": 2,
    "rot3": 3,
    "rot4": 4,
}


def test_criterion_06_veronese_cm_search():
    start = time.monotonic()
    ok = True
    found = {}
    for name, expected in VERONESE_REGRESSION.items():
        G = fixture_group(name)
        rep = veronese_cm_search(G, GradedRing(2, ZZ), l_max=6, D=12)
        found[name] = rep.first_certified
        ok = ok and rep.first_certified == expected
    elapsed = time.monotonic() - start
    _report(
        6,
        "Veronese CM search finds a certified index",
        ok and elapsed < 300.0,
        f"{found}, {elapsed:.1f}s",
    )


def test_criterion_07_sylow_transfer_surrogate():
    ring = GradedRing(3, ZZ)
    G = fixture_group("s3")
    SG = truncated_invariant_ring(G, ring, 8)
    ok = True
    cells = []
    for p in (2, 3):
        Hp = sylow_subgroup(G, p)
        SH = truncated_invariant_ring(Hp, ring, 8)
        for l in range(1, 5):
            ch = cm_certificate(veronese(SH, l), [p], mixed=True)[p]
            if ch.status != "certified":
                continue
            cg = cm_certificate(veronese(SG, l), [p], mixed=True)[p]
            cells.append((p, l, cg.status))
            ok = ok and cg.status == "certified"
    _report(
        7,
        "Sylow certificate transfers to the full group",
        ok and len(cells) > 0,
        f"cells {cells}",
    )


def test_criterion_08_gorenstein_consistency():
    # The Veronese functor does not preserve the Gorenstein property (the
    # 4th Veronese of the plane has numerator (1, 3)), so the symmetry claim
    # is checked at the search's first certified index, where the subring
    # reflects the invariant ring itself.  The raw-grading variant for the
    # sign group (parameters of ambient degree 2) is asserted as well.
    ok = True
    details = []
    for name in ("minus-identity", "rot3", "rot4"):
        G = fixture_group(name)
        rep = veronese_cm_search(G, GradedRing(2, ZZ), l_max=6, D=12)
        ok = ok and rep.first_certified is not None
        attempt = next(a for a in rep.attempts if a.l == rep.first_certified)
        cert = next(c for c in attempt.certificates.values() if c.status == "certified")
        S = truncated_invariant_ring(G, GradedRing(2, ZZ), 12)
        V = veronese(S, attempt.l)
        gor = gorenstein_symmetry_check(
            list(hilbert_function(V).values), list(cert.parameter_degrees)
        )
        details.append((name, attempt.l, gor.numerator))
        ok = ok and gor.symmetric
    ring_q = GradedRing(2, QQ)
    G = fixture_group("minus-identity", QQ)
    raw = gorenstein_symmetry_check(
        truncated_invariant_ring(G, ring_q, 12), [2, 2]
    )
    ok = ok and raw.symmetric and raw.numerator == (1, 0, 1)
    _report(
        8,
        "certified Veronese rings of SL2 fixtures have symmetric numerators",
        ok,
        "; ".join(f"{n} l={l}: {num}" for n, l, num in details),
    )


def test_criterion_09_divisor_map():
    start = time.monotonic()
    rng = random.Random(3)
    ok = True
    for ring in (NumberRing(-1), NumberRing(-5)):
        for _ in range(200):
            a = rng.randint(1, 10_000) * rng.choice([1, -1])
            ok = ok and verify_div_compatibility(ring, a)
    elapsed = time.monotonic() - start
    _report(
        9,
        "divisor pushforward matches direct factorization",
        ok and elapsed < 10.0,
        f"400 elements, {elapsed:.2f}s",
    )


def test_criterion_10_class_groups():
    ok = class_group(NumberRing(-1)) == [] and class_group(NumberRing(-5)) == [2]
    _report(10, "class groups of the Gaussian and sqrt(-5) rings", ok)


def test_criterion_11_linear_algebra_core():
    start = time.monotonic()
    rng = random.Random(4)
    ok = True
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        M = IntegerMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        h, u = hermite_normal_form(M)
        ok = ok and (u * M) == h
        s = smith_normal_form(M)
        diag = s.left * M * s.right
        for i in range(rows):
            for j in range(cols):
                expected = s.d[i] if i == j and i < len(s.d) else 0
                ok = ok and diag.data[i][j] == expected
        nonzero = [x for x in s.d if x]
        ok = ok and all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        k = integer_kernel_basis(M)
        ok = ok and rank(M) + k.rows == cols
        if k.rows:
            ks = smith_normal_form(k)
            ok = ok and all(x == 1 for x in ks.d[: k.rows])
    elapsed = time.monotonic() - start
    _report(
        11,
        "normal-form reconstruction and kernel saturation",
        ok and elapsed < 10.0,
        f"500 matrices, {elapsed:.2f}s",
    )
