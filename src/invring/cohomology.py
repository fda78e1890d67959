"""Cohomology of a cyclic group acting on a free module, via the periodic
complex that alternates the trace map Tr = I + s + ... + s^(n-1) with s - 1.

H^0 is the fixed lattice; for i >= 1 the groups are two-periodic:
odd i gives ker(Tr)/im(s - 1), even i gives ker(s - 1)/im(Tr).  Presentations
come out as invariant factors through Smith reduction of the coordinate
matrix of the image inside the kernel.  Over Z localized at p the reported
torsion is the p-part, which is the module structure over that ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .domains import (
    CoefficientDomain,
    Matrix,
    mat_add,
    mat_identity,
    mat_is_identity,
    mat_mul,
    mat_pow,
    mat_sub,
    scalar_mod_p_residue,
)
from .groups import MatrixGroup, _p_power_part, cyclic_generator
from .linalg import IntegerMatrix, integer_kernel_basis, lattice_quotient, rank
from .poly import GradedRing, action_matrix


class PreconditionViolated(Exception):
    """The module does not satisfy the hypothesis of the requested check."""


class EigenvaluesNotInField(Exception):
    """Some eigenvalue of the action lies outside the fraction field."""


@dataclass(frozen=True)
class CyclicModule:
    """A free module over the domain with one invertible action of order n."""

    domain: CoefficientDomain
    sigma: Matrix
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        if self.domain.tag == "Fp":
            raise ValueError("cyclic module cohomology expects characteristic zero")
        object.__setattr__(
            self,
            "sigma",
            tuple(tuple(self.domain.coerce(x) for x in row) for row in self.sigma),
        )
        power = mat_pow(self.domain, self.sigma, self.order)
        if not mat_is_identity(self.domain, power):
            raise ValueError("sigma^order is not the identity")

    @property
    def rank(self) -> int:
        return len(self.sigma)


@dataclass(frozen=True)
class CohomologyGroup:
    free_rank: int
    torsion: tuple[int, ...]

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion


def trace_matrix(M: CyclicModule) -> Matrix:
    """I + s + s^2 + ... + s^(n-1); composes to zero with s - 1 on both sides."""
    dom = M.domain
    total = mat_identity(dom, M.rank)
    power = mat_identity(dom, M.rank)
    for _ in range(M.order - 1):
        power = mat_mul(dom, power, M.sigma)
        total = mat_add(dom, total, power)
    return total


def _integer_matrix(dom: CoefficientDomain, m: Matrix) -> IntegerMatrix:
    """Clear denominators with one global unit; valid up to unit over Z_(p)."""
    fr = [[Fraction(x) for x in row] for row in m]
    den = 1
    for row in fr:
        for x in row:
            den = lcm(den, x.denominator)
    if dom.tag == "Zlocal" and den % dom.p == 0:
        raise ValueError("denominators must be units in the localization")
    return IntegerMatrix([[int(x * den) for x in row] for row in fr], cols=len(m[0]) if m else 0)


def _localized_factors(dom: CoefficientDomain, torsion: tuple[int, ...]) -> tuple[int, ...]:
    if dom.tag != "Zlocal":
        return torsion
    return tuple(f for f in (_p_power_part(t, dom.p) for t in torsion) if f > 1)


def _subquotient(dom: CoefficientDomain, kernel_of: Matrix, image_of: Matrix, n: int) -> CohomologyGroup:
    """ker(kernel_of) / column-image(image_of) as an abelian group."""
    ker = integer_kernel_basis(_integer_matrix(dom, kernel_of))
    image_int = _integer_matrix(dom, image_of)
    image_rows = [row for row in image_int.transpose().data if any(row)]
    if dom.tag == "Q":
        free = ker.rows - rank(IntegerMatrix(image_rows, cols=n)) if image_rows else ker.rows
        return CohomologyGroup(free_rank=free, torsion=())
    torsion, free = lattice_quotient(image_rows, list(ker.data))
    return CohomologyGroup(free_rank=free, torsion=_localized_factors(dom, torsion))


def cohomology(M: CyclicModule, i: int) -> CohomologyGroup:
    """H^i of the cyclic module; two-periodic in i for i >= 1."""
    if i < 0:
        raise ValueError("cohomology index must be nonnegative")
    dom = M.domain
    n = M.rank
    sigma_minus_1 = mat_sub(dom, M.sigma, mat_identity(dom, n))
    tr = trace_matrix(M)
    if i == 0:
        ker = integer_kernel_basis(_integer_matrix(dom, sigma_minus_1))
        return CohomologyGroup(free_rank=ker.rows, torsion=())
    if i % 2 == 1:
        return _subquotient(dom, tr, sigma_minus_1, n)
    return _subquotient(dom, sigma_minus_1, tr, n)


def sigma_trivial_mod_p(M: CyclicModule, p: int) -> bool:
    """True when the action is the identity on the reduction mod p."""
    for i, row in enumerate(M.sigma):
        for j, x in enumerate(row):
            target = 1 if i == j else 0
            if scalar_mod_p_residue(x, p) != target % p:
                return False
    return True


@dataclass(frozen=True)
class H2ComparisonReport:
    holds: bool
    lhs: CohomologyGroup
    rhs: CohomologyGroup


def verify_h2_trivial_mod_pi(M: CyclicModule) -> H2ComparisonReport:
    """Compare H^2 with (fixed lattice)/p(fixed lattice) for order-p actions
    that are trivial mod p.

    Preconditions: the domain is Z_(p) (or Z with p = 2, where -1 - 1 is
    twice a unit), the order equals p, and sigma is congruent to the
    identity mod p entrywise.
    """
    dom = M.domain
    if dom.tag == "Zlocal":
        p = dom.p
    elif dom.tag == "Z":
        p = M.order
        if p != 2:
            raise PreconditionViolated(
                "over Z only p = 2 satisfies the unit condition on roots of unity"
            )
    else:
        raise PreconditionViolated("expected coefficients in Z or Z localized at p")
    if M.order != p:
        raise PreconditionViolated(f"order must equal p = {p}")
    if not sigma_trivial_mod_p(M, p):
        raise PreconditionViolated("sigma is not trivial mod p")
    lhs = cohomology(M, 2)
    fixed = integer_kernel_basis(
        _integer_matrix(dom, mat_sub(dom, M.sigma, mat_identity(dom, M.rank)))
    )
    scaled = [tuple(p * x for x in row) for row in fixed.data]
    torsion, free = lattice_quotient(scaled, list(fixed.data))
    rhs = CohomologyGroup(free_rank=free, torsion=_localized_factors(dom, torsion))
    return H2ComparisonReport(holds=(lhs == rhs), lhs=lhs, rhs=rhs)


def verify_h1_degree0(G: MatrixGroup, ring: GradedRing) -> bool:
    """H^1 of the trivial rank-one module vanishes for cyclic prime order."""
    from .domains import is_prime

    if not is_prime(G.order):
        raise PreconditionViolated("group must be cyclic of prime order")
    dom = ring.coeff
    M = CyclicModule(domain=dom, sigma=((dom.one,),), order=G.order)
    return cohomology(M, 1).is_trivial()


def verify_pi_annihilates_h1(M: CyclicModule) -> bool:
    """Every invariant factor of H^1 divides p for order-p actions trivial mod p."""
    p = M.order
    if not sigma_trivial_mod_p(M, p):
        raise PreconditionViolated("sigma is not trivial mod p")
    h1 = cohomology(M, 1)
    return h1.free_rank == 0 and all(p % t == 0 for t in h1.torsion)


def _cyclotomic(d: int) -> list[int]:
    """Integer coefficients of the d-th cyclotomic polynomial (low degree first)."""
    poly = [-1, 1] if d == 1 else None
    if poly is not None:
        return poly
    # (X^d - 1) / prod of lower cyclotomics
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            phi = _cyclotomic(e)
            num = _poly_divide_exact(num, phi)
    return num


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1] // den[-1]
        out[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num):
        raise ArithmeticError("polynomial division was not exact")
    return out


def _eval_poly_at_matrix(dom: CoefficientDomain, coeffs: list[int], m: Matrix) -> Matrix:
    n = len(m)
    acc = tuple(tuple(dom.coerce(0) for _ in range(n)) for _ in range(n))
    power = mat_identity(dom, n)
    for k, c in enumerate(coeffs):
        if c:
            term = tuple(tuple(dom.mul(dom.coerce(c), x) for x in row) for row in power)
            acc = mat_add(dom, acc, term)
        if k + 1 < len(coeffs):
            power = mat_mul(dom, power, m)
    return acc


def diagonalize_over_fraction_field(M: CyclicModule) -> dict[Fraction, int]:
    """Multiplicities of the rational eigenvalues among the n-th roots of unity.

    The action is semisimple over a splitting field because sigma^n = I in
    characteristic zero, so the multiplicity attached to each cyclotomic
    factor is dim ker(Phi_d(sigma)) / phi(d).  Only d in {1, 2} yields
    eigenvalues inside the fraction field; any other factor raises.
    """
    dom = M.domain
    n = M.rank
    multiplicities: dict[Fraction, int] = {}
    accounted = 0
    for d in range(1, M.order + 1):
        if M.order % d:
            continue
        phi_d = _eval_poly_at_matrix(dom, _cyclotomic(d), M.sigma)
        ker_rank = integer_kernel_basis(_integer_matrix(dom, phi_d)).rows
        if ker_rank == 0:
            continue
        euler = sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)
        mult = ker_rank // euler
        if d == 1:
            multiplicities[Fraction(1)] = mult
        elif d == 2:
            multiplicities[Fraction(-1)] = mult
        else:
            raise EigenvaluesNotInField(
                f"eigenvalues of order {d} are not in the fraction field"
            )
        accounted += ker_rank
    if accounted != n:
        raise EigenvaluesNotInField("action has eigenvalues outside the field")
    return multiplicities


def graded_cohomology(G: MatrixGroup, ring: GradedRing, i: int, d: int) -> CohomologyGroup:
    """H^i of a cyclic group acting on the degree-d graded piece."""
    gen = cyclic_generator(G)
    sigma = action_matrix(ring, gen, d)
    M = CyclicModule(domain=ring.coeff, sigma=sigma, order=G.order)
    return cohomology(M, i)
