"""Cohomology of a cyclic group acting on a free module, via the periodic
complex that alternates the trace map Tr = I + s + ... + s^(n-1) with s - 1.

H^0 is the fixed lattice; for i >= 1 the groups are two-periodic:
odd i gives ker(Tr)/im(s - 1), even i gives ker(s - 1)/im(Tr).  Each is
read from one Smith diagonal, as the torsion of the cokernel of its image
map (see cohomology).  Over Z localized at p the reported torsion is the
p-part, which is the module structure over that ring; over Q every H^i
with i >= 1 is zero.

Each module keeps one integer form of its action, built at construction:
with delta the lcm of the denominators of s, the matrices N = delta*s and
T = delta^(n-1)*Tr.  Kernels do not change under this scaling; over Z
delta = 1, over Z_(p) it is a unit, which changes a quotient only at
primes other than p, and over Q only ranks are read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice

from .domains import (
    GF,
    CoefficientDomain,
    Matrix,
    integer_form,
    is_prime,
    mat_from_rows,
    mat_is_identity,
    multiplicity,
    record,
)
from .groups import MatrixGroup, cyclic_generator
from .linalg import IntegerMatrix, cokernel_invariant_factors
from .poly import GradedRing, action_matrix


def _shift(m: IntegerMatrix, c: int) -> IntegerMatrix:
    """m - c*I for a square m."""
    return IntegerMatrix(
        [[x - c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m.data)],
        cols=m.cols,
    )


def _sigma_minus_1(M: CyclicModule) -> IntegerMatrix:
    """N - delta*I, which is delta*(s - 1)."""
    return _shift(M._numerator, M._delta)


class PreconditionViolated(ValueError):
    """The module does not satisfy the hypothesis of the requested check."""


@record
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
        object.__setattr__(self, "sigma", mat_from_rows(self.domain, self.sigma))
        n = len(self.sigma)
        delta, ints = integer_form(chain.from_iterable(self.sigma))
        cells = iter(ints)  # back into the rows of sigma
        numerator = IntegerMatrix([list(islice(cells, len(row))) for row in self.sigma], cols=n)
        # Horner's rule: T_1 = I and T_(k+1) = T_k N + delta^k I
        trace = IntegerMatrix.identity(n)
        for k in range(1, self.order):
            trace = _shift(trace * numerator, -(delta**k))
        # (s - 1) Tr = s^n - 1, so this is s^n = I scaled by delta^n
        if any(map(any, (_shift(numerator, delta) * trace).data)):
            raise ValueError("sigma^order is not the identity")
        # not fields, so eq, hash and repr ignore them
        object.__setattr__(self, "_delta", delta)
        object.__setattr__(self, "_numerator", numerator)
        object.__setattr__(self, "_trace", trace)

    @property
    def rank(self) -> int:
        return len(self.sigma)


@record
class CohomologyGroup:
    free_rank: int
    torsion: tuple[int, ...]

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion


def trace_matrix(M: CyclicModule) -> Matrix:
    """I + s + s^2 + ... + s^(n-1); composes to zero with s - 1 on both sides.

    The module's own trace T = delta^(n-1) Tr, divided by its scale: the
    map that the cohomology groups are computed from, over the domain.
    """
    scale = M._delta ** (M.order - 1)
    return mat_from_rows(M.domain, ((Fraction(x, scale) for x in row) for row in M._trace.data))


def _localized_factors(dom: CoefficientDomain, torsion: tuple[int, ...]) -> tuple[int, ...]:
    """The integer torsion as a module over dom: p-parts over Z_(p)."""
    if dom.tag != "Zlocal":
        return torsion
    return tuple(dom.p**k for t in torsion if (k := multiplicity(t, dom.p)))


def cohomology(M: CyclicModule, i: int) -> CohomologyGroup:
    """H^i of the cyclic module; two-periodic in i for i >= 1.

    For i >= 1, H^i = ker A / im B with A B = 0: B = N - delta*I and A = T
    for odd i, the other way round for even i.  ker A is saturated, so
    every torsion class of Z^n / im B lies in ker A; and ker A / im B is
    torsion, since over Q it is H^i, which the order kills (s^n = 1 is
    checked at construction).  So H^i is the torsion of Z^n / im B, with
    free rank 0.  Over Q that is all: H^i is killed by the order n, which
    is invertible there, so H^i = 0 with no Smith diagonal.
    """
    if i < 0:
        raise ValueError("cohomology index must be nonnegative")
    if i == 0:
        _, free_rank = cokernel_invariant_factors(_sigma_minus_1(M))
        return CohomologyGroup(free_rank=free_rank, torsion=())
    if M.domain.tag == "Q":
        return CohomologyGroup(free_rank=0, torsion=())
    torsion, _ = cokernel_invariant_factors(_sigma_minus_1(M) if i % 2 else M._trace)
    return CohomologyGroup(free_rank=0, torsion=_localized_factors(M.domain, torsion))


def sigma_trivial_mod_p(M: CyclicModule, p: int) -> bool:
    """True when the action is the identity on the reduction mod p."""
    fp = GF(p)
    return mat_is_identity(fp, mat_from_rows(fp, M.sigma))


@record
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
    # the fixed lattice L is free, so L/pL is (Z/p)^rank L
    rhs = CohomologyGroup(free_rank=0, torsion=(p,) * cohomology(M, 0).free_rank)
    return H2ComparisonReport(holds=(lhs == rhs), lhs=lhs, rhs=rhs)


def verify_h1_degree0(G: MatrixGroup, ring: GradedRing) -> bool:
    """H^1 of the trivial rank-one module vanishes for cyclic prime order."""
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


def graded_cohomology(G: MatrixGroup, ring: GradedRing, i: int, d: int) -> CohomologyGroup:
    """H^i of a cyclic group acting on the degree-d graded piece.

    sigma is the dense matrix of the generator's action_matrix columns.
    """
    columns = action_matrix(ring, cyclic_generator(G), d)
    sigma = [[col.get(i, 0) for col in columns] for i in range(len(columns))]
    M = CyclicModule(domain=ring.coeff, sigma=sigma, order=G.order)
    return cohomology(M, i)
