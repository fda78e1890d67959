"""Group enumeration, Sylow subgroups, and cosets."""

import random

import pytest

from invring.domains import (
    GF,
    QQ,
    ZZ,
    Z_local,
    mat_det,
    mat_from_rows,
    mat_mul,
)
from invring.groups import (
    BoundExceeded,
    NotSubgroup,
    coset_representatives,
    cyclic_generator,
    element_order,
    enumerate_group,
    group_from_json_dict,
    sylow_subgroup,
    trivial_group,
)

S3_GENS = [
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
]


def test_enumerate_minus_identity():
    g = enumerate_group([[[-1, 0], [0, -1]]], ZZ)
    assert g.order == 2


def test_enumerate_s3():
    g = enumerate_group(S3_GENS, ZZ)
    assert g.order == 6
    assert g.contains(g.identity)


def test_enumerate_unipotent_exceeds_bound():
    with pytest.raises(BoundExceeded):
        enumerate_group([[[1, 1], [0, 1]]], ZZ, bound=100)


def test_enumerate_rejects_noninvertible():
    with pytest.raises(ValueError):
        enumerate_group([[[2, 0], [0, 1]]], ZZ)


def test_enumerate_rejects_float_entries():
    # 1.5 once truncated to 1, which made this the swap group
    with pytest.raises(ValueError, match="float"):
        enumerate_group([[[0, 1.5], [1, 0]]], ZZ)


def test_enumerate_over_fp():
    g = enumerate_group([[[2, 0], [0, 1]]], GF(5))
    assert g.order == 4  # 2 has order 4 mod 5


@pytest.mark.parametrize("p, order", [(3, 3), (2, 2), (5, 1)])
def test_sylow_s3(p, order):
    g = enumerate_group(S3_GENS, ZZ)
    h = sylow_subgroup(g, p)
    assert h.order == order
    assert g.order % h.order == 0


@pytest.mark.parametrize("p", [0, 1, 4, -2])
def test_sylow_refuses_a_p_that_is_not_prime(p):
    g = enumerate_group(S3_GENS, ZZ)
    with pytest.raises(ValueError, match="not prime"):
        sylow_subgroup(g, p)


def test_sylow_3_is_alternating():
    g = enumerate_group(S3_GENS, ZZ)
    h = sylow_subgroup(g, 3)
    assert all(mat_det(ZZ, m) == 1 for m in h.elements)


def test_sylow_deterministic():
    g = enumerate_group(S3_GENS, ZZ)
    assert sylow_subgroup(g, 2).elements == sylow_subgroup(g, 2).elements
    h1 = sylow_subgroup(g, 2)
    g2 = enumerate_group(S3_GENS, ZZ)
    h2 = sylow_subgroup(g2, 2)
    assert h1.elements == h2.elements


def test_cosets():
    g = enumerate_group(S3_GENS, ZZ)
    a3 = sylow_subgroup(g, 3)
    reps = coset_representatives(g, a3)
    assert len(reps) == 2
    assert reps[0] == g.identity
    triv = trivial_group(3, ZZ)
    assert len(coset_representatives(g, triv)) == 6
    assert coset_representatives(g, g) == [g.identity]


def test_coset_partition_covers_group():
    g = enumerate_group(S3_GENS, ZZ)
    h = sylow_subgroup(g, 2)
    reps = coset_representatives(g, h)
    seen = set()
    for r in reps:
        coset = {mat_mul(ZZ, r, x) for x in h.elements}
        assert not (coset & seen)
        seen |= coset
    assert seen == set(g.elements)


def test_not_subgroup():
    g = enumerate_group(S3_GENS, ZZ)
    other = enumerate_group([[[-1, 0, 0], [0, -1, 0], [0, 0, 1]]], ZZ)
    with pytest.raises(NotSubgroup):
        coset_representatives(g, other)


def test_lagrange_on_all_sylows():
    g = enumerate_group(S3_GENS, ZZ)
    for p in (2, 3, 5, 7):
        assert g.order % sylow_subgroup(g, p).order == 0


def test_element_order_and_cyclic_generator():
    rot4 = enumerate_group([[[0, -1], [1, 0]]], ZZ)
    assert rot4.order == 4
    gen = cyclic_generator(rot4)
    assert element_order(ZZ, gen) == 4


def test_group_from_json():
    g = group_from_json_dict(
        {"n": 2, "coefficients": "Z", "generators": [[[0, 1], [1, 0]]]}
    )
    assert g.order == 2
    with pytest.raises(ValueError, match="generators"):
        group_from_json_dict({"n": 2, "coefficients": "Z"})
    with pytest.raises(ValueError, match="coefficients"):
        group_from_json_dict({"n": 2, "generators": []})


def test_group_from_json_file_bound():
    unipotent = {"n": 2, "coefficients": "Z", "generators": [[[1, 1], [0, 1]]]}
    with pytest.raises(BoundExceeded, match="bound 50"):
        group_from_json_dict({**unipotent, "bound": 50})
    # a float, bool or null is not truncated to an integer
    for bad in ({"bound": 1.5}, {"bound": None}, {"n": 2.0}, {"n": True}):
        with pytest.raises(ValueError, match="must be an integer"):
            group_from_json_dict({**unipotent, **bad})


def test_group_from_json_rational_entries():
    g = group_from_json_dict(
        {"n": 1, "coefficients": "Q", "generators": [[["-1/1"]]]}
    )
    assert g.order == 2


def test_mat_det_agrees_across_domains():
    # one elimination serves every domain: the determinant over F_p, Q and
    # Z_(p) is the integer determinant brought into that domain
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        det_z = mat_det(ZZ, mat_from_rows(ZZ, rows))
        assert isinstance(det_z, int)
        for p in (2, 3, 5):
            assert mat_det(GF(p), mat_from_rows(GF(p), rows)) == det_z % p
            assert mat_det(Z_local(p), mat_from_rows(Z_local(p), rows)) == det_z
        assert mat_det(QQ, mat_from_rows(QQ, rows)) == det_z

