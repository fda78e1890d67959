"""Built-in fixture corpus: small matrix groups, quadratic rings, and random
module generators used by the verification suite and the CLI.

Random actions of order p are assembled from integral block types (trivial,
sign, permutation, and companion blocks) conjugated by small unimodular
matrices, so exactness is never at risk.  For odd p an action congruent to
the identity mod p over Z_(p) is necessarily the identity (reduction mod p
is injective on torsion for odd p), so those draws vary only the rank; the
p = 2 draws carry genuinely nontrivial actions.
"""

from __future__ import annotations

import random

from .cohomology import CyclicModule
from .domains import CoefficientDomain, ZZ, Z_local
from .groups import MatrixGroup, enumerate_group
from .linalg import IntegerMatrix, unimodular_inverse

GROUP_GENERATORS: dict[str, dict] = {
    "minus-identity": {"n": 2, "coefficients": "Z", "generators": [[[-1, 0], [0, -1]]]},
    "swap": {"n": 2, "coefficients": "Z", "generators": [[[0, 1], [1, 0]]]},
    "rot3": {"n": 2, "coefficients": "Z", "generators": [[[0, -1], [1, -1]]]},
    "rot4": {"n": 2, "coefficients": "Z", "generators": [[[0, -1], [1, 0]]]},
    "s3": {
        "n": 3,
        "coefficients": "Z",
        "generators": [
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        ],
    },
    "a3": {
        "n": 3,
        "coefficients": "Z",
        "generators": [[[0, 0, 1], [1, 0, 0], [0, 1, 0]]],
    },
    "transposition3": {
        "n": 3,
        "coefficients": "Z",
        "generators": [[[0, 1, 0], [1, 0, 0], [0, 0, 1]]],
    },
    "trivial2": {"n": 2, "coefficients": "Z", "generators": []},
}

DEDEKIND_FIXTURES: dict[str, int] = {
    "gauss": -1,
    "eisenstein": -3,
    "sqrt-minus-5": -5,
    "sqrt2": 2,
}


def fixture_group(name: str, coeff: CoefficientDomain = ZZ) -> MatrixGroup:
    spec = GROUP_GENERATORS[name]
    return enumerate_group(spec["generators"], coeff, n=spec["n"])


def fixture_group_names() -> list[str]:
    return sorted(GROUP_GENERATORS)


def random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """Product of up to four elementary shears and swaps; entries stay small."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        kind = rng.random()
        if kind < 0.7:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                m[i][k] += c * m[j][k]
        else:
            m[i], m[j] = m[j], m[i]
    return m


def _conjugate(u, m) -> list[list[int]]:
    """u * m * u^-1 for a unimodular u."""
    U = IntegerMatrix(u)
    return [list(r) for r in (U * IntegerMatrix(m) * unimodular_inverse(U)).data]


def _block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[at + i][at + j] = x
        at += len(b)
    return out


_ORDER_BLOCKS = {
    2: [[[1]], [[-1]], [[0, 1], [1, 0]]],
    3: [[[1]], [[0, -1], [1, -1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]],
}
_ORDER_P_MAX_RANK = 4


def random_order_p_matrix(rng: random.Random, p: int) -> list[list[int]]:
    """Random integer matrix with sigma^p = I, of size at most
    _ORDER_P_MAX_RANK; first block kept nontrivial."""
    if p not in _ORDER_BLOCKS:
        supported = " and ".join(str(q) for q in sorted(_ORDER_BLOCKS))
        raise ValueError(f"random order-p actions exist only for p = {supported}, not {p}")
    nontrivial = [b for b in _ORDER_BLOCKS[p] if b != [[1]] and len(b) <= _ORDER_P_MAX_RANK]
    blocks = [rng.choice(nontrivial)]
    size = len(blocks[0])
    while size < _ORDER_P_MAX_RANK and rng.random() < 0.6:
        choices = [b for b in _ORDER_BLOCKS[p] if size + len(b) <= _ORDER_P_MAX_RANK]
        b = rng.choice(choices)
        blocks.append(b)
        size += len(b)
    m = _block_diag(blocks)
    u = random_unimodular(rng, len(m))
    return _conjugate(u, m)


def random_trivial_mod_p_module(
    rng: random.Random, p: int, max_rank: int = 4
) -> CyclicModule:
    """Random order-p action congruent to the identity mod p over Z_(p).

    For p = 2 conjugated sign matrices give genuinely mixed actions; for odd
    p the identity is the only such matrix (reduction mod p is injective on
    torsion), so the draw varies the rank only.
    """
    rank = rng.randint(1, max_rank)
    if p == 2:
        signs = [rng.choice([1, -1]) for _ in range(rank)]
        diag = [[signs[i] if i == j else 0 for j in range(rank)] for i in range(rank)]
        u = random_unimodular(rng, rank)
        sigma = _conjugate(u, diag)
    else:
        sigma = [[int(i == j) for j in range(rank)] for i in range(rank)]
    return CyclicModule(domain=Z_local(p), sigma=sigma, order=p)


def random_order_p_module(rng: random.Random, p: int) -> CyclicModule:
    """Random order-p cyclic module over Z from conjugated block actions."""
    return CyclicModule(domain=ZZ, sigma=random_order_p_matrix(rng, p), order=p)
