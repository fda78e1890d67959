"""Degree-truncated Cohen-Macaulay certificates for invariant rings mod p.

The route: reduce a saturated truncated subalgebra mod p (rank-preserving),
search for a homogeneous system of parameters among degree-1 combinations,
and certify regularity degree by degree through the Hilbert-series identity
H_{M/tM}(t) = (1 - t^deg t) H_M(t).  A certificate is evidence up to the
truncation degree, never a proof; failed searches are reported, not raised.

The Gorenstein check is the necessary symmetry condition on the h-numerator
of the Hilbert series; its report always carries the truncation caveat.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .domains import GF, is_prime, scalar_mod_p_residue
from .groups import MatrixGroup
from .invariants import (
    TruncatedSubalgebra,
    canonical_span,
    hilbert_function,
    is_standard_graded_up_to,
    minimal_generators_up_to,
    truncated_invariant_ring,
    veronese,
)
from .linalg import echelon_mod_p, member_mod_p, rref_mod_p
from .poly import GradedRing, Polynomial, graded_piece_basis


class NotStandardGraded(Exception):
    """The algebra is not generated in degree one, so degree-1 parameter
    search does not apply; take a Veronese first."""


class NumeratorNotTerminated(Exception):
    """The h-numerator has not stabilized to zero inside the truncation."""


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
class TruncatedQuotientAlgebra:
    """A reduced algebra modulo a list of homogeneous parameters."""

    base: TruncatedSubalgebra
    parameters: tuple[Polynomial, ...]
    hilbert: tuple[int, ...]


@dataclass(frozen=True)
class SopSearchResult:
    found: bool
    thetas: tuple[Polynomial, ...]
    tried: int
    message: str


def reduce_mod_p(S: TruncatedSubalgebra, p: int) -> TruncatedSubalgebra:
    """Reduce the per-degree bases mod p.

    Saturation over Z guarantees the rank of every piece is preserved; that
    is asserted, since a rank drop would mean the input was not saturated.
    """
    if S.domain.tag not in ("Z", "Zlocal"):
        raise ValueError("reduction mod p expects integer coefficients")
    fp = GF(p)
    ring_p = GradedRing(
        S.ambient.nvars, fp, S.ambient.weights, S.ambient.var_names
    )
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


def _ideal_piece_spans(
    Sbar: TruncatedSubalgebra,
    thetas: list[Polynomial],
    theta_degrees: list[int],
) -> list[tuple]:
    """Per-degree spans of the ideal generated by the thetas inside Sbar."""
    domain = Sbar.domain
    spans = []
    for d in range(Sbar.D + 1):
        piece = graded_piece_basis(Sbar.ambient, Sbar.ambient_degree(d))
        vectors = []
        for theta, k in zip(thetas, theta_degrees):
            if d - k < 0:
                continue
            for s in Sbar.piece_polynomials(d - k):
                vectors.append((theta * s).to_vector(piece))
        spans.append(canonical_span(domain, vectors, piece.dim))
    return spans


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


def truncated_quotient(Sbar: TruncatedSubalgebra, thetas) -> TruncatedQuotientAlgebra:
    """The algebra modulo the ideal generated by the parameters, as far as
    its Hilbert values go; values stay between 0 and the base values."""
    thetas = list(thetas)
    spans = _ideal_piece_spans(Sbar, thetas, _regraded_degrees(Sbar, thetas))
    hilbert = tuple(len(Sbar.bases[d]) - len(spans[d]) for d in range(Sbar.D + 1))
    return TruncatedQuotientAlgebra(
        base=Sbar, parameters=tuple(thetas), hilbert=hilbert
    )


def regular_sequence_certificate(
    Sbar: TruncatedSubalgebra, thetas, p: int | None = None
) -> CMCertificate:
    """Certify that thetas form a regular sequence degree by degree.

    At stage j and degree d the quotient Hilbert value must equal
    h_{j-1}(d) - h_{j-1}(d - deg theta_j); any strict excess reports the
    first failing (stage, degree).  Certification covers degrees <= D only.
    """
    domain = Sbar.domain
    if p is None:
        if domain.tag != "Fp":
            raise ValueError("pass p explicitly for non-prime-field input")
        p = domain.p
    thetas = list(thetas)
    degrees = _regraded_degrees(Sbar, thetas)
    h_prev = list(hilbert_function(Sbar).values)
    failed_stage = failed_degree = None
    h_cur = h_prev
    for stage in range(1, len(thetas) + 1):
        spans = _ideal_piece_spans(Sbar, thetas[:stage], degrees[:stage])
        h_cur = [
            len(Sbar.bases[d]) - len(spans[d]) for d in range(Sbar.D + 1)
        ]
        for d in range(Sbar.D + 1):
            k = degrees[stage - 1]
            expected = h_prev[d] - (h_prev[d - k] if d >= k else 0)
            if h_cur[d] != expected:
                failed_stage, failed_degree = stage, d
                break
        if failed_stage is not None:
            break
        h_prev = h_cur
    status = "failed" if failed_stage is not None else "certified"
    return CMCertificate(
        p=p,
        parameter_degrees=tuple(degrees),
        parameters=tuple(str(t) for t in thetas),
        verified_to=Sbar.D,
        status=status,
        failed_stage=failed_stage,
        failed_degree=failed_degree,
        quotient_hilbert=tuple(h_cur),
    )


def _degree_one_candidates(Sbar: TruncatedSubalgebra) -> list[Polynomial]:
    """Projective representatives of nonzero degree-1 combinations over F_p."""
    p = Sbar.domain.p
    basis = Sbar.piece_polynomials(1)
    k = len(basis)
    candidates = []
    for coeffs in itertools.product(range(p), repeat=k):
        first = next((c for c in coeffs if c), None)
        if first != 1:
            continue
        theta = Sbar.ambient.zero_poly
        for c, b in zip(coeffs, basis):
            if c:
                theta = theta + b.scale(c)
        candidates.append(theta)
    return candidates


_EXHAUSTIVE_CAP = 20_000


def find_sop_mod_p(
    Sbar: TruncatedSubalgebra,
    dim: int,
    trials: int = 200,
    seed: int = 0,
) -> SopSearchResult:
    """Search for dim degree-1 elements whose quotient eventually vanishes.

    For standard graded input a single zero Hilbert value forces all later
    values to vanish, so the success test is one zero at or below D.  Small
    candidate sets are searched exhaustively in deterministic order;
    otherwise a seeded random sample of combinations is tried.
    """
    if Sbar.domain.tag != "Fp":
        raise ValueError("parameter search runs over a prime field")
    report = is_standard_graded_up_to(Sbar)
    if not report.standard:
        raise NotStandardGraded(
            f"not standard graded: fails at degree {report.first_failing_degree}"
        )
    candidates = _degree_one_candidates(Sbar)
    if len(candidates) < dim:
        return SopSearchResult(
            found=False,
            thetas=(),
            tried=0,
            message=f"only {len(candidates)} degree-1 candidates for dimension {dim}",
        )
    total = 1
    for i in range(dim):
        total *= len(candidates) - i
    tried = 0
    if total <= _EXHAUSTIVE_CAP:
        combos = itertools.combinations(range(len(candidates)), dim)
    else:
        rng = random.Random(seed)
        combos = (
            tuple(sorted(rng.sample(range(len(candidates)), dim)))
            for _ in range(trials)
        )
    seen = set()
    for combo in combos:
        if combo in seen:
            continue
        seen.add(combo)
        tried += 1
        thetas = [candidates[i] for i in combo]
        quotient = truncated_quotient(Sbar, thetas)
        if any(v == 0 for v in quotient.hilbert):
            return SopSearchResult(
                found=True,
                thetas=tuple(thetas),
                tried=tried,
                message="system of parameters found",
            )
        if tried >= max(trials, 1) and total > _EXHAUSTIVE_CAP:
            break
    return SopSearchResult(
        found=False,
        thetas=(),
        tried=tried,
        message=(
            "no parameter system found; the truncation may be too small to"
            " witness a finite-dimensional quotient"
        ),
    )


def _candidates_of_degree(Sbar: TruncatedSubalgebra, k: int, cap: int) -> list[Polynomial]:
    """Degree-k projective candidates, sparsest coefficient patterns first."""
    p = Sbar.domain.p
    basis = Sbar.piece_polynomials(k)
    r = len(basis)
    if r == 0:
        return []
    patterns = []
    for coeffs in itertools.product(range(p), repeat=r):
        first = next((c for c in coeffs if c), None)
        if first != 1:
            continue
        patterns.append(coeffs)
        if len(patterns) >= 4 * cap:
            break
    patterns.sort(key=lambda cs: (sum(1 for c in cs if c), cs))
    out = []
    for coeffs in patterns[:cap]:
        theta = Sbar.ambient.zero_poly
        for c, b in zip(coeffs, basis):
            if c:
                theta = theta + b.scale(c)
        out.append(theta)
    return out


def _generator_vectors(Sbar: TruncatedSubalgebra) -> list[tuple[int, list[int]]]:
    """Minimal algebra generators of Sbar as (degree, coefficient vector)."""
    out = []
    for d, gen in minimal_generators_up_to(Sbar):
        piece = graded_piece_basis(Sbar.ambient, Sbar.ambient_degree(d))
        out.append((d, [int(x) for x in gen.to_vector(piece)]))
    return out


def _vanishing_window(generators, ideal_spans, p: int) -> int:
    """Zero-tail length needed before vanishing persists past the truncation.

    Once the quotient vanishes on w consecutive degrees, every higher piece
    is reached by multiplying a generator into the zero window or by a
    generator already inside the ideal; w is the largest degree of a minimal
    generator not contained in the ideal.  generators holds (degree, vector)
    pairs; ideal_spans[d] is any echelon basis member_mod_p accepts.
    """
    w = 1
    for d, vec in generators:
        if not member_mod_p(ideal_spans[d], vec, p):
            w = max(w, d)
    return w


_MIXED_COMBO_CAP = 2_000
_MIXED_CANDIDATE_CAP = 150
_MIXED_EVAL_BUDGET = 6_000


def find_sop_mixed(
    Sbar: TruncatedSubalgebra,
    dim: int,
    trials: int = 200,
    seed: int = 0,
) -> SopSearchResult:
    """Parameter search allowing mixed homogeneous degrees.

    Needed when the algebra is not standard graded: pure powers of a
    high-degree generator are only reachable by a parameter of that degree.
    Success requires the quotient Hilbert values to vanish on a tail window
    long enough (per _vanishing_window) to persist beyond the truncation.

    Degree multisets are visited by total degree; within one, combinations
    of the sparsest candidates are tried exhaustively up to
    _MIXED_COMBO_CAP, else that many are sampled with a seeded generator,
    and the whole search stops after _MIXED_EVAL_BUDGET evaluations.  A
    combination's quotient Hilbert values are ranks of the stacked
    multiplication images, taken from a forward echelon over F_p; the
    minimal generators of Sbar that the window test needs are computed once,
    at the first combination whose quotient has a zero tail.
    """
    if Sbar.domain.tag != "Fp":
        raise ValueError("parameter search runs over a prime field")
    p = Sbar.domain.p
    D = Sbar.D
    max_deg = max(1, D - 1)
    per_degree = {
        k: _candidates_of_degree(Sbar, k, _MIXED_CANDIDATE_CAP)
        for k in range(1, max_deg + 1)
    }
    # multiplication images theta * (basis of each piece), built once per
    # candidate and stacked per degree for every combination that uses it
    image_rows: dict[tuple[int, int], list[list[list[int]]]] = {}

    def rows_for(k: int, idx: int) -> list[list[list[int]]]:
        key = (k, idx)
        if key not in image_rows:
            theta = per_degree[k][idx]
            per_d: list[list[list[int]]] = []
            for d in range(D + 1):
                if d < k:
                    per_d.append([])
                    continue
                piece = graded_piece_basis(Sbar.ambient, Sbar.ambient_degree(d))
                per_d.append(
                    [
                        [int(x) for x in (theta * s).to_vector(piece)]
                        for s in Sbar.piece_polynomials(d - k)
                    ]
                )
            image_rows[key] = per_d
        return image_rows[key]

    multisets = sorted(
        itertools.combinations_with_replacement(range(1, max_deg + 1), dim),
        key=lambda ms: (sum(ms), ms),
    )
    rng = random.Random(seed)
    generators = None
    tried = 0
    for ms in multisets:
        if tried >= _MIXED_EVAL_BUDGET:
            break
        if any(not per_degree[k] for k in ms):
            continue
        pools = []
        degs_by_pool = []
        for k, reps in itertools.groupby(ms):
            count = len(list(reps))
            pools.append(list(itertools.combinations(range(len(per_degree[k])), count)))
            degs_by_pool.append(k)
        total = 1
        for pool in pools:
            total *= len(pool)
        if total <= _MIXED_COMBO_CAP:
            combo_iter = itertools.product(*pools)
        else:

            def _sample():
                for _ in range(_MIXED_COMBO_CAP):
                    yield tuple(pool[rng.randrange(len(pool))] for pool in pools)

            combo_iter = _sample()
        for combo in combo_iter:
            if tried >= _MIXED_EVAL_BUDGET:
                break
            picks = [
                (k, idx)
                for k, pick in zip(degs_by_pool, combo)
                for idx in pick
            ]
            tried += 1
            spans = []
            for d in range(D + 1):
                stacked = [row for k, idx in picks for row in rows_for(k, idx)[d]]
                dim_d = Sbar.piece_dim(d)
                rows, _ = echelon_mod_p(stacked, dim_d, p)
                spans.append(rows)
            h = [len(Sbar.bases[d]) - len(spans[d]) for d in range(D + 1)]
            d0 = next((d for d in range(D + 1) if all(v == 0 for v in h[d:])), None)
            if d0 is None:
                continue
            if generators is None:
                generators = _generator_vectors(Sbar)
            w = _vanishing_window(generators, spans, p)
            if D - d0 + 1 >= w:
                thetas = tuple(per_degree[k][idx] for k, idx in picks)
                return SopSearchResult(
                    found=True,
                    thetas=thetas,
                    tried=tried,
                    message="system of parameters found (mixed degrees)",
                )
    return SopSearchResult(
        found=False,
        thetas=(),
        tried=tried,
        message="no mixed-degree parameter system found within the truncation",
    )


def cm_certificate(
    S: TruncatedSubalgebra,
    primes,
    trials: int = 200,
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
        report = is_standard_graded_up_to(S)
        if not report.standard:
            raise NotStandardGraded(
                f"not standard graded: fails at degree {report.first_failing_degree}"
            )
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
            search = find_sop_mixed(Sbar, dim, trials=trials, seed=seed)
        else:
            search = find_sop_mod_p(Sbar, dim, trials=trials, seed=seed)
        if not search.found:
            out[p] = CMCertificate(
                p=p,
                parameter_degrees=(),
                parameters=(),
                verified_to=S.D,
                status="no-sop-found",
            )
            continue
        out[p] = regular_sequence_certificate(Sbar, search.thetas, p)
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
    trials: int = 200,
    seed: int = 0,
    S: TruncatedSubalgebra | None = None,
    workers: int | None = None,
) -> VeroneseSearchReport:
    """Try Veronese indices 1..l_max and certify the first CM candidate.

    Certificates are evidence at truncation D//l; a failure is reported as
    unverified at that degree, never as a negative.  The per-index cells are
    independent and may be evaluated concurrently (workers > 1); attempts
    are always assembled in index order, so the report is deterministic.
    """
    if S is None:
        S = truncated_invariant_ring(G, ring, D)
    primes = sorted({p for p in range(2, G.order + 1) if G.order % p == 0 and is_prime(p)})

    def attempt_for(l: int) -> VeroneseAttempt:
        V = veronese(S, l)
        report = is_standard_graded_up_to(V)
        if not report.standard:
            return VeroneseAttempt(
                l=l,
                standard_graded=False,
                first_failing_degree=report.first_failing_degree,
            )
        certs = cm_certificate(V, primes or [2], trials=trials, seed=seed)
        return VeroneseAttempt(
            l=l, standard_graded=True, first_failing_degree=None, certificates=certs
        )

    indices = [l for l in range(1, l_max + 1) if D // l >= 1]
    if workers and workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            attempts = list(pool.map(attempt_for, indices))
    else:
        attempts = [attempt_for(l) for l in indices]
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
