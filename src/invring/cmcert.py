"""Degree-truncated Cohen-Macaulay certificates for invariant rings mod p.

The route: reduce a saturated truncated subalgebra mod p (rank-preserving),
search for a homogeneous system of parameters, and certify regularity degree
by degree through the Hilbert-series identity H_{M/tM}(t) = (1 - t^deg t)
H_M(t).  A certificate is evidence up to the truncation degree, never a
proof; failed searches are reported, not raised.

Parameters come from one of two candidate sources: find_sop_mod_p takes
degree-1 combinations of a standard graded algebra (capped by
_EXHAUSTIVE_CAP and _SAMPLED_COMBOS), find_sop_mixed takes mixed degrees
(capped by the _MIXED_* constants).  Both run one loop, _search, that ranks
each combination's quotient and returns the first one its acceptance test
passes; a failed search reports how many combinations it tried.

The Gorenstein check is the necessary symmetry condition on the h-numerator
of the Hilbert series; its report always carries the truncation caveat.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass, field

from .domains import GF, prime_divisors, scalar_mod_p_residue
from .groups import MatrixGroup
from .invariants import (
    TruncatedSubalgebra,
    hilbert_function,
    is_standard_graded_up_to,
    minimal_generators_up_to,
    truncated_invariant_ring,
    veronese,
)
from .linalg import _insert, _pack, _reduce, rref_mod_p
from .poly import GradedRing, Polynomial, graded_piece_basis


class NotStandardGraded(Exception):
    """The algebra is not generated in degree one, so degree-1 parameter
    search does not apply; take a Veronese first."""

    def __init__(self, degree: int):
        super().__init__(f"not standard graded: fails at degree {degree}")
        self.degree = degree


class NumeratorNotTerminated(Exception):
    """The h-numerator has not stabilized to zero inside the truncation."""


def _require_prime_field(Sbar: TruncatedSubalgebra) -> None:
    if Sbar.domain.tag != "Fp":
        raise ValueError("expects coefficients in a prime field; reduce mod p first")


def _require_standard_graded(S: TruncatedSubalgebra) -> None:
    report = is_standard_graded_up_to(S)
    if not report.standard:
        raise NotStandardGraded(report.first_failing_degree)


@dataclass(frozen=True)
class CMCertificate:
    """Outcome of a truncated regular-sequence check at one prime."""

    p: int
    parameter_degrees: tuple[int, ...]
    parameters: tuple[str, ...]
    verified_to: int
    status: str  # "certified" | "failed" | "no-sop-found" | "vacuous"
    failed_stage: int | None = None
    failed_degree: int | None = None
    quotient_hilbert: tuple[int, ...] = ()

    @property
    def certified(self) -> bool:
        return self.status in ("certified", "vacuous")


@dataclass(frozen=True)
class SopSearchResult:
    found: bool
    thetas: tuple[Polynomial, ...]
    tried: int


def reduce_mod_p(S: TruncatedSubalgebra, p: int) -> TruncatedSubalgebra:
    """Reduce the per-degree bases mod p.

    Saturation over Z guarantees the rank of every piece is preserved; that
    is asserted, since a rank drop would mean the input was not saturated.
    """
    if S.domain.tag not in ("Z", "Zlocal"):
        raise ValueError("reduction mod p expects integer coefficients")
    fp = GF(p)
    ring_p = GradedRing(S.ambient.nvars, fp)
    new_bases = []
    for d in range(S.D + 1):
        dim_d = S.piece_dim(d)
        reduced = [
            [scalar_mod_p_residue(x, p) for x in row] for row in S.bases[d]
        ]
        rows, _ = rref_mod_p(reduced, dim_d, p) if reduced else ((), ())
        if len(rows) != len(S.bases[d]):
            raise RuntimeError(
                f"rank dropped mod {p} in degree {d}: basis was not saturated"
            )
        new_bases.append(rows)
    return TruncatedSubalgebra(
        ambient=ring_p,
        group=S.group,
        D=S.D,
        regrade=S.regrade,
        bases=tuple(new_bases),
    )


def _regraded_degrees(Sbar: TruncatedSubalgebra, thetas) -> list[int]:
    degrees = []
    for theta in thetas:
        deg = theta.degree()
        if deg is None or not theta.is_homogeneous():
            raise ValueError("parameters must be nonzero and homogeneous")
        if deg % Sbar.regrade:
            raise ValueError("parameter degree must be a multiple of the regrading")
        degrees.append(deg // Sbar.regrade)
    return degrees


def _image_rows(Sbar: TruncatedSubalgebra, theta: Polynomial, k: int) -> list[list[int]]:
    """Packed F_p rows of theta * (basis of S_{d-k}) for every degree d
    through D; theta has regraded degree k."""
    row = theta.to_vector(graded_piece_basis(Sbar.ambient, Sbar.ambient_degree(k)))
    p = Sbar.domain.p
    return [
        [_pack(v, p) for v in Sbar.piece_products(k, [row], d - k, Sbar.bases[d - k])]
        if d >= k
        else []
        for d in range(Sbar.D + 1)
    ]


def _quotient(
    Sbar: TruncatedSubalgebra, images, spans: list[dict[int, int]] | None = None
) -> tuple[tuple[int, ...], list[dict[int, int]]]:
    """Quotient Hilbert values through D and, per degree, the echelon
    {lead column: packed row} of the ideal piece spanned by the stacked
    image rows.  Echelons passed in as spans are extended in place."""
    if spans is None:
        spans = [{} for _ in range(Sbar.D + 1)]
    for d, span in enumerate(spans):
        _insert(span, (row for image in images for row in image[d]), Sbar.domain.p)
    return tuple(len(Sbar.bases[d]) - len(spans[d]) for d in range(Sbar.D + 1)), spans


def truncated_quotient(Sbar: TruncatedSubalgebra, thetas) -> tuple[int, ...]:
    """Hilbert values of the algebra modulo the ideal generated by the
    parameters, through D; each lies between 0 and the base value."""
    _require_prime_field(Sbar)
    thetas = list(thetas)
    degrees = _regraded_degrees(Sbar, thetas)
    return _quotient(Sbar, [_image_rows(Sbar, t, k) for t, k in zip(thetas, degrees)])[0]


def regular_sequence_certificate(Sbar: TruncatedSubalgebra, thetas) -> CMCertificate:
    """Certify that thetas form a regular sequence degree by degree.

    At stage j and degree d the quotient Hilbert value must equal
    h_{j-1}(d) - h_{j-1}(d - deg theta_j); any strict excess reports the
    first failing (stage, degree).  Certification covers degrees <= D only.
    """
    _require_prime_field(Sbar)
    thetas = list(thetas)
    degrees = _regraded_degrees(Sbar, thetas)
    h_prev = list(hilbert_function(Sbar).values)
    failed_stage = failed_degree = None
    h_cur = h_prev
    spans = None
    for stage, (theta, k) in enumerate(zip(thetas, degrees), start=1):
        h_cur, spans = _quotient(Sbar, [_image_rows(Sbar, theta, k)], spans)
        for d in range(Sbar.D + 1):
            expected = h_prev[d] - (h_prev[d - k] if d >= k else 0)
            if h_cur[d] != expected:
                failed_stage, failed_degree = stage, d
                break
        if failed_stage is not None:
            break
        h_prev = h_cur
    status = "failed" if failed_stage is not None else "certified"
    return CMCertificate(
        p=Sbar.domain.p,
        parameter_degrees=tuple(degrees),
        parameters=tuple(str(t) for t in thetas),
        verified_to=Sbar.D,
        status=status,
        failed_stage=failed_stage,
        failed_degree=failed_degree,
        quotient_hilbert=tuple(h_cur),
    )


def _projective_patterns(p: int, r: int):
    """Coefficient tuples over F_p with first nonzero entry 1, in product order."""
    for coeffs in itertools.product(range(p), repeat=r):
        if next((c for c in coeffs if c), None) == 1:
            yield coeffs


def _combination(Sbar: TruncatedSubalgebra, coeffs, basis) -> Polynomial:
    theta = Sbar.ambient.zero_poly
    for c, b in zip(coeffs, basis):
        if c:
            theta = theta + b.scale(c)
    return theta


def _search(Sbar: TruncatedSubalgebra, combos, candidate, accept) -> SopSearchResult:
    """The first combination of candidate keys whose quotient passes accept.

    candidate(key) gives a parameter and its regraded degree; the
    multiplication images of a candidate are built once and reused by every
    combination that contains it.  accept sees _quotient's (Hilbert values,
    ideal spans) of the combination; tried counts the combinations evaluated.
    """
    thetas: dict = {}
    images: dict = {}
    tried = 0
    for tried, combo in enumerate(combos, start=1):
        for key in combo:
            if key not in images:
                thetas[key], k = candidate(key)
                images[key] = _image_rows(Sbar, thetas[key], k)
        if accept(_quotient(Sbar, [images[key] for key in combo])):
            return SopSearchResult(True, tuple(thetas[key] for key in combo), tried)
    return SopSearchResult(False, (), tried)


_EXHAUSTIVE_CAP = 20_000
_SAMPLED_COMBOS = 200


def find_sop_mod_p(Sbar: TruncatedSubalgebra, dim: int, seed: int = 0) -> SopSearchResult:
    """Search the projective degree-1 combinations over F_p for dim elements
    whose quotient eventually vanishes.

    For standard graded input a single zero Hilbert value forces all later
    values to vanish, so the success test is one zero at or below D.  When
    the ordered dim-tuples of candidates number at most _EXHAUSTIVE_CAP,
    every combination is tried in deterministic order; otherwise
    _SAMPLED_COMBOS seeded random combinations are drawn and each distinct
    one is tried once.
    """
    _require_prime_field(Sbar)
    _require_standard_graded(Sbar)
    basis = Sbar.piece_polynomials(1)
    candidates = [
        _combination(Sbar, coeffs, basis)
        for coeffs in _projective_patterns(Sbar.domain.p, len(basis))
    ]
    if math.perm(len(candidates), dim) <= _EXHAUSTIVE_CAP:
        combos = itertools.combinations(range(len(candidates)), dim)
    else:
        rng = random.Random(seed)
        combos = dict.fromkeys(
            tuple(sorted(rng.sample(range(len(candidates)), dim)))
            for _ in range(_SAMPLED_COMBOS)
        )
    return _search(
        Sbar, combos, lambda i: (candidates[i], 1), lambda quotient: 0 in quotient[0]
    )


def _candidates_of_degree(Sbar: TruncatedSubalgebra, k: int, cap: int) -> list[Polynomial]:
    """Degree-k projective candidates, sparsest of the first 4 * cap
    coefficient patterns first."""
    basis = Sbar.piece_polynomials(k)
    patterns = sorted(
        itertools.islice(_projective_patterns(Sbar.domain.p, len(basis)), 4 * cap),
        key=lambda cs: (sum(1 for c in cs if c), cs),
    )
    return [_combination(Sbar, coeffs, basis) for coeffs in patterns[:cap]]


def _generator_vectors(Sbar: TruncatedSubalgebra) -> list[tuple[int, int]]:
    """Minimal algebra generators of Sbar as (degree, packed F_p vector)."""
    out = []
    for d, gen in minimal_generators_up_to(Sbar):
        piece = graded_piece_basis(Sbar.ambient, Sbar.ambient_degree(d))
        out.append((d, _pack(gen.to_vector(piece), Sbar.domain.p)))
    return out


def _vanishing_window(generators, ideal_spans, p: int) -> int:
    """Zero-tail length needed before vanishing persists past the truncation.

    Once the quotient vanishes on w consecutive degrees, every higher piece
    is reached by multiplying a generator into the zero window or by a
    generator already inside the ideal; w is the largest degree of a minimal
    generator not contained in the ideal.  generators holds (degree, packed
    vector) pairs; ideal_spans[d] is the ideal's echelon from _quotient.
    """
    w = 1
    for d, vec in generators:
        if _reduce(ideal_spans[d], vec, p):
            w = max(w, d)
    return w


@functools.cache
def _binomials(n: int, k: int) -> tuple[int, ...]:
    """comb(a, k) for a in range(n), increasing in a."""
    return tuple(math.comb(a, k) for a in range(n))


def _nth_combination(n: int, r: int, i: int) -> tuple[int, ...]:
    """Entry i of itertools.combinations(range(n), r), without listing them.

    Mirroring each entry c to n - 1 - c reverses that order into colex
    order, where a_r > ... > a_1 has rank sum_k comb(a_k, k); so each a_k
    is the largest a whose comb(a, k) fits in the rank still left.
    """
    rank = math.comb(n, r) - 1 - i
    out = []
    for k in range(r, 0, -1):
        a = bisect.bisect_right(_binomials(n, k), rank) - 1
        rank -= math.comb(a, k)
        out.append(n - 1 - a)
    return tuple(out)


_MIXED_COMBO_CAP = 2_000
_MIXED_CANDIDATE_CAP = 150
_MIXED_EVAL_BUDGET = 6_000


def find_sop_mixed(Sbar: TruncatedSubalgebra, dim: int, seed: int = 0) -> SopSearchResult:
    """Parameter search allowing mixed homogeneous degrees.

    Needed when the algebra is not standard graded: pure powers of a
    high-degree generator are only reachable by a parameter of that degree.
    Success requires the quotient Hilbert values to vanish on a tail window
    long enough (per _vanishing_window) to persist beyond the truncation.

    Degree multisets are visited by total degree; within one, combinations
    of the sparsest candidates are tried exhaustively up to
    _MIXED_COMBO_CAP, else that many are sampled with a seeded generator,
    and the whole search stops after _MIXED_EVAL_BUDGET evaluations.  The
    minimal generators of Sbar that the window test needs are computed
    once, at the first combination whose quotient has a zero tail.
    """
    _require_prime_field(Sbar)
    D = Sbar.D
    max_deg = max(1, D - 1)
    per_degree = {
        k: _candidates_of_degree(Sbar, k, _MIXED_CANDIDATE_CAP)
        for k in range(1, max_deg + 1)
    }
    multisets = sorted(
        itertools.combinations_with_replacement(range(1, max_deg + 1), dim),
        key=lambda ms: (sum(ms), ms),
    )
    rng = random.Random(seed)

    def combos():
        for ms in multisets:
            if any(not per_degree[k] for k in ms):
                continue
            degrees = sorted(set(ms))
            shapes = [(len(per_degree[k]), ms.count(k)) for k in degrees]
            sizes = [math.comb(n, r) for n, r in shapes]
            if math.prod(sizes) <= _MIXED_COMBO_CAP:
                picks = itertools.product(
                    *(itertools.combinations(range(n), r) for n, r in shapes)
                )
            else:
                picks = (
                    tuple(
                        _nth_combination(n, r, rng.randrange(size))
                        for (n, r), size in zip(shapes, sizes)
                    )
                    for _ in range(_MIXED_COMBO_CAP)
                )
            for pick in picks:
                yield tuple((k, idx) for k, group in zip(degrees, pick) for idx in group)

    @functools.cache
    def generators():
        return _generator_vectors(Sbar)

    def accept(quotient) -> bool:
        h, spans = quotient
        d0 = next((d for d in range(D + 1) if all(v == 0 for v in h[d:])), None)
        if d0 is None:
            return False
        return D - d0 + 1 >= _vanishing_window(generators(), spans, Sbar.domain.p)

    return _search(
        Sbar,
        itertools.islice(combos(), _MIXED_EVAL_BUDGET),
        lambda key: (per_degree[key[0]][key[1]], key[0]),
        accept,
    )


def cm_certificate(
    S: TruncatedSubalgebra,
    primes,
    seed: int = 0,
    mixed: bool = False,
) -> dict[int, CMCertificate]:
    """Per-prime certificates for a standard graded truncated algebra over Z.

    Only primes dividing the group order are checked; any other prime is
    certified vacuously, since the group order is invertible there.  With
    mixed=True the standard-graded gate is dropped and parameters may carry
    mixed homogeneous degrees.
    """
    if not mixed:
        _require_standard_graded(S)
    dim = S.ambient.nvars
    out: dict[int, CMCertificate] = {}
    for p in primes:
        if S.group.order % p != 0:
            out[p] = CMCertificate(
                p=p,
                parameter_degrees=(),
                parameters=(),
                verified_to=S.D,
                status="vacuous",
            )
            continue
        Sbar = reduce_mod_p(S, p)
        if mixed:
            search = find_sop_mixed(Sbar, dim, seed=seed)
        else:
            search = find_sop_mod_p(Sbar, dim, seed=seed)
        if not search.found:
            out[p] = CMCertificate(
                p=p,
                parameter_degrees=(),
                parameters=(),
                verified_to=S.D,
                status="no-sop-found",
            )
            continue
        out[p] = regular_sequence_certificate(Sbar, search.thetas)
    return out


@dataclass(frozen=True)
class VeroneseAttempt:
    l: int
    standard_graded: bool
    first_failing_degree: int | None
    certificates: dict[int, CMCertificate] = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.standard_graded and bool(self.certificates) and all(
            c.certified for c in self.certificates.values()
        )


@dataclass(frozen=True)
class VeroneseSearchReport:
    group_order: int
    D: int
    l_max: int
    attempts: tuple[VeroneseAttempt, ...]
    first_certified: int | None


def veronese_cm_search(
    G: MatrixGroup,
    ring: GradedRing,
    l_max: int = 6,
    D: int = 12,
    seed: int = 0,
) -> VeroneseSearchReport:
    """Try Veronese indices 1..l_max and certify the first CM candidate.

    Certificates are evidence at truncation D//l; a failure is reported as
    unverified at that degree, never as a negative.
    """
    S = truncated_invariant_ring(G, ring, D)
    primes = prime_divisors(G.order) or [2]

    def attempt_for(l: int) -> VeroneseAttempt:
        try:
            certs = cm_certificate(veronese(S, l), primes, seed=seed)
        except NotStandardGraded as exc:
            return VeroneseAttempt(
                l=l, standard_graded=False, first_failing_degree=exc.degree
            )
        return VeroneseAttempt(
            l=l, standard_graded=True, first_failing_degree=None, certificates=certs
        )

    attempts = [attempt_for(l) for l in range(1, l_max + 1) if D // l >= 1]
    first_certified = next((a.l for a in attempts if a.certified), None)
    return VeroneseSearchReport(
        group_order=G.order,
        D=D,
        l_max=l_max,
        attempts=tuple(attempts),
        first_certified=first_certified,
    )


@dataclass(frozen=True)
class GorensteinReport:
    symmetric: bool
    numerator: tuple[int, ...]
    caveat: str


def h_numerator(hilbert_values, sop_degrees) -> list[int]:
    """Coefficients of H(t) * prod (1 - t^k) for k in sop_degrees, truncated."""
    coeffs = list(hilbert_values)
    for k in sop_degrees:
        coeffs = [
            coeffs[d] - (coeffs[d - k] if d >= k else 0) for d in range(len(coeffs))
        ]
    return coeffs


def gorenstein_symmetry_check(S, sop_degrees) -> GorensteinReport:
    """Necessary Gorenstein symptom: palindromic h-numerator.

    Accepts a truncated subalgebra or a plain Hilbert value sequence.  The
    numerator must stabilize to zero safely inside the truncation window or
    NumeratorNotTerminated is raised; a symmetric result is only ever
    "consistent with Gorenstein" because of the truncation.
    """
    if isinstance(S, TruncatedSubalgebra):
        values = list(hilbert_function(S).values)
    else:
        values = list(S)
    sop_degrees = list(sop_degrees)
    if not sop_degrees:
        raise ValueError("need at least one parameter degree")
    D = len(values) - 1
    coeffs = h_numerator(values, sop_degrees)
    window = max(sop_degrees)
    last_nonzero = max((d for d, c in enumerate(coeffs) if c), default=-1)
    if last_nonzero > D - window:
        raise NumeratorNotTerminated(
            f"numerator still nonzero at degree {last_nonzero} with truncation {D}"
        )
    numerator = coeffs[: last_nonzero + 1] if last_nonzero >= 0 else [0]
    symmetric = numerator == numerator[::-1]
    return GorensteinReport(
        symmetric=symmetric,
        numerator=tuple(numerator),
        caveat=f"verified only through truncation degree {D}",
    )
