"""Degree-truncated Cohen-Macaulay certificates for invariant rings mod p.

The route: reduce a saturated truncated subalgebra mod p (rank-preserving),
search for a homogeneous system of parameters, and certify regularity degree
by degree through the Hilbert-series identity H_{M/tM}(t) = (1 - t^deg t)
H_M(t).  A certificate is evidence up to the truncation degree, never a
proof; failed searches are reported, not raised.

Inside this module a parameter is a pair (row, k): its regraded degree k and
its coefficients over the monomials of ambient degree k * regrade.  Public
parameters must lie in the algebra at regraded degree 1..D; they become rows
in _parameter_rows, and polynomials are built only for the systems the
searches return, each as long as the Krull dimension, the number of variables.

Parameters come from one of two candidate sources: find_sop_mod_p takes
degree-1 combinations of a standard graded algebra (capped by
_EXHAUSTIVE_CAP and _SAMPLED_COMBOS), find_sop_mixed takes mixed degrees
(capped by the _MIXED_* constants).  Both run one loop, _search, that ranks
each combination's quotient, degree D first, and returns the first one its
acceptance test passes; a failed search reports how many combinations it
tried.  A combination is ranked in degree D from the echelon of its
members but the last, and in the degrees below D only when its quotient
vanishes in degree D.  A candidate is its coefficient pattern over the
basis of one degree: its zero mask and multiplication images are combined,
by linearity over F_p, from per-degree tables of the basis rows' values at
the points and products.  Every table the search reads is built on first
use and kept for the rest of the search.

Before ranking, _search sieves out every combination whose members share a
zero at one of the F_p-rational points it is given: such a combination is
no system of parameters at any truncation, since the quotient of the
ambient ring by it is infinite-dimensional and the ambient ring is finite
over the invariants.  A sieved combination still counts in tried and
against the search budget.  find_sop_mixed sieves at every projective point
of the ambient ring; find_sop_mod_p passes no points and does not sieve yet
(ROADMAP item 10a), since sieving there would change its answers.

The Gorenstein check is the necessary symmetry condition on the h-numerator
of the Hilbert series; its report always carries the truncation caveat.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import random

from .domains import GF, is_prime, prime_divisors, record
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
from .linalg import _field_layout, _insert, _pack, member_mod_p
from .poly import GradedRing, Polynomial, graded_piece_basis


class NotStandardGraded(ValueError):
    """The algebra is not generated in degree one, so degree-1 parameter
    search does not apply; take a Veronese first."""

    def __init__(self, degree: int):
        super().__init__(f"not standard graded: fails at degree {degree}")
        self.degree = degree


class NumeratorNotTerminated(ValueError):
    """The h-numerator has not stabilized to zero inside the truncation."""


def _require_prime_field(Sbar: TruncatedSubalgebra) -> None:
    if Sbar.domain.tag != "Fp":
        raise ValueError("expects coefficients in a prime field; reduce mod p first")


def _require_standard_graded(S: TruncatedSubalgebra) -> None:
    report = is_standard_graded_up_to(S)
    if not report.standard:
        raise NotStandardGraded(report.first_failing_degree)


@record
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


@record
class SopSearchResult:
    """tried counts the combinations the search went through, sieved or
    not; ranked counts those whose degree-D piece it ranked."""

    found: bool
    thetas: tuple[Polynomial, ...]
    tried: int
    ranked: int


def reduce_mod_p(S: TruncatedSubalgebra, p: int) -> TruncatedSubalgebra:
    """Reduce the per-degree bases mod p: each fibre basis is the
    canonical_span over GF(p) of the degree-d basis rows.

    Saturation over Z guarantees the rank of every piece is preserved; that
    is asserted, since a rank drop would mean the input was not saturated.
    Over Z_(q) only p = q is a fibre: any other prime is a unit, so S/pS = 0.
    """
    if S.domain.tag not in ("Z", "Zlocal"):
        raise ValueError("reduction mod p expects integer coefficients")
    fp = GF(p)
    if S.domain.is_unit(p):
        raise ValueError(f"{p} is a unit in {S.domain}, so S/{p}S = 0")
    ring_p = GradedRing(S.ambient.nvars, fp)
    new_bases = []
    for d in range(S.D + 1):
        rows = canonical_span(fp, S.bases[d], S.piece_dim(d))
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


def _parameter_rows(Sbar: TruncatedSubalgebra, thetas) -> list[tuple[tuple[int, ...], int]]:
    """Each public parameter as (row, k): k is its regraded degree and row
    its coefficients over the monomials of ambient degree k * regrade.

    Raises ValueError unless the parameter is a nonzero homogeneous element
    of Sbar of regraded degree 1..D.
    """
    out = []
    for theta in thetas:
        deg = theta.degree()
        if deg is None or not theta.is_homogeneous():
            raise ValueError("parameters must be nonzero and homogeneous")
        k, rest = divmod(deg, Sbar.regrade)
        if rest:
            raise ValueError("parameter degree must be a multiple of the regrading")
        if not 1 <= k <= Sbar.D:
            raise ValueError(f"parameter {theta} has regraded degree {k}, outside 1..{Sbar.D}")
        piece = graded_piece_basis(Sbar.ambient, Sbar.ambient_degree(k))
        row = tuple(map(Sbar.domain.coerce, theta.to_vector(piece)))
        if not member_mod_p(Sbar.bases[k], row, Sbar.domain.p):
            raise ValueError(f"parameter {theta} is not in the algebra")
        out.append((row, k))
    return out


def _image_rows(Sbar: TruncatedSubalgebra, rows, k: int) -> list[list[list[int]]]:
    """Per degree-k row theta, in order, the packed F_p rows of theta *
    (basis of S_{d-k}) for every degree d through D; each lower basis is
    multiplied out once per degree, for all the rows together."""
    p = Sbar.domain.p
    images = [[[] for _ in range(Sbar.D + 1)] for _ in rows]
    for d in range(k, Sbar.D + 1):
        lower = Sbar.bases[d - k]
        products = Sbar.piece_products(k, rows, d - k, lower)
        for i, image in enumerate(images):
            image[d] = [_pack(v, p) for v in products[i * len(lower) : (i + 1) * len(lower)]]
    return images


def _quotient(
    Sbar: TruncatedSubalgebra, images, spans: list[dict[int, int]] | None = None
) -> tuple[tuple[int, ...], list[dict[int, int]]]:
    """Quotient Hilbert values through D and, per degree, the echelon
    {lead column: packed row} of the ideal piece spanned by the stacked
    image rows.  Echelons passed in as spans are extended in place; a full
    one would absorb every row, so its degree is not ranked again."""
    if spans is None:
        spans = [{} for _ in range(Sbar.D + 1)]
    for d, span in enumerate(spans):
        if len(span) < len(Sbar.bases[d]):
            _insert(span, (row for image in images for row in image[d]), Sbar.domain.p)
    return tuple(len(Sbar.bases[d]) - len(spans[d]) for d in range(Sbar.D + 1)), spans


def truncated_quotient(Sbar: TruncatedSubalgebra, thetas) -> tuple[int, ...]:
    """Hilbert values of the algebra modulo the ideal generated by the
    parameters, through D; each lies between 0 and the base value.  Each
    parameter must lie in the algebra at regraded degree 1..D (ValueError)."""
    _require_prime_field(Sbar)
    params = _parameter_rows(Sbar, thetas)
    images = [image for row, k in params for image in _image_rows(Sbar, [row], k)]
    return _quotient(Sbar, images)[0]


def regular_sequence_certificate(Sbar: TruncatedSubalgebra, thetas) -> CMCertificate:
    """Certify that thetas form a regular sequence degree by degree.

    Each theta must be a nonzero homogeneous element of the algebra of
    regraded degree 1..D (ValueError otherwise).  At stage j and degree d
    the quotient Hilbert value must equal h_{j-1}(d) - h_{j-1}(d - deg
    theta_j); any strict excess reports the first failing (stage, degree).
    Certification covers degrees <= D only.
    """
    _require_prime_field(Sbar)
    thetas = list(thetas)
    params = _parameter_rows(Sbar, thetas)
    h_prev = list(hilbert_function(Sbar).values)
    failed_stage = failed_degree = None
    h_cur = h_prev
    spans = None
    for stage, (row, k) in enumerate(params, start=1):
        h_cur, spans = _quotient(Sbar, _image_rows(Sbar, [row], k), spans)
        expected = h_numerator(h_prev, [k])
        failed_degree = next((d for d, h in enumerate(h_cur) if h != expected[d]), None)
        if failed_degree is not None:
            failed_stage = stage
            break
        h_prev = h_cur
    status = "failed" if failed_stage is not None else "certified"
    return CMCertificate(
        p=Sbar.domain.p,
        parameter_degrees=tuple(k for _, k in params),
        parameters=tuple(str(t) for t in thetas),
        verified_to=Sbar.D,
        status=status,
        failed_stage=failed_stage,
        failed_degree=failed_degree,
        quotient_hilbert=tuple(h_cur),
    )


def _projective_patterns(p: int, r: int):
    """The length-r tuples over F_p with first nonzero entry 1, in
    itertools.product order: in blocks by the position of the leading 1,
    last position first, each block's tails in product order."""
    for t in range(r):
        lead = (0,) * (r - 1 - t) + (1,)
        for tail in itertools.product(range(p), repeat=t):
            yield lead + tail


def _projective_pattern(p: int, r: int, i: int) -> tuple[int, ...]:
    """Entry i of _projective_patterns(p, r), without listing them: the
    block with t entries after the leading 1 holds p^t tails, and tail j of
    a block is j written in base p."""
    t, size = 0, 1
    while i >= size:
        i -= size
        t, size = t + 1, size * p
    tail = [0] * t
    for j in reversed(range(t)):
        i, tail[j] = divmod(i, p)
    return (0,) * (r - 1 - t) + (1, *tail)


def _combination(Sbar: TruncatedSubalgebra, coeffs, k: int) -> Polynomial:
    """The polynomial sum c_i b_i over the degree-k basis rows b of Sbar."""
    p = Sbar.domain.p
    row = [sum(map(operator.mul, coeffs, column)) % p for column in zip(*Sbar.bases[k])]
    return Sbar.piece_polynomials(k, [row])[0]


def _point_values(rows, piece, points, p: int) -> list[tuple[int, ...]]:
    """Per point, the values over F_p there of the polynomials with the
    given coefficient rows over the monomials of piece."""
    out = []
    for point in points:
        monomials = [
            math.prod(pow(x, e, p) for x, e in zip(point, exps)) for exps in piece.monomials
        ]
        out.append(tuple(sum(map(operator.mul, row, monomials)) % p for row in rows))
    return out


def _pattern_mask(coeffs, values, p: int) -> int:
    """Bit t set when sum c_i b_i vanishes at point t, read off the
    per-point basis values of _point_values."""
    mask = 0
    for t, column in enumerate(values):
        if sum(map(operator.mul, coeffs, column)) % p == 0:
            mask |= 1 << t
    return mask


def _pattern_images(coeffs, table, p: int, degrees) -> list[list[int]]:
    """The images of sum c_i b_i in the given degrees, by linearity from
    table, the _image_rows of the basis rows b_i.

    Each field of acc + c * row is at most (p - 1) + (p - 1)^2 = p(p - 1),
    the bound fold, like _insert, relies on.
    """
    _, fold = _field_layout(p)
    images = [[0] * len(table[0][d]) for d in degrees]
    for c, image in zip(coeffs, table):
        if c:
            images = [
                [fold(a + c * row) for a, row in zip(acc, image[d])]
                for acc, d in zip(images, degrees)
            ]
    return images


def _search(
    Sbar: TruncatedSubalgebra, combos, candidate, accept, points
) -> SopSearchResult:
    """The first combination of candidate keys whose quotient passes accept.

    candidate(key) gives a parameter as its coefficient pattern over the
    basis of one regraded degree k, and k.  A combination whose members all
    vanish at one of the F_p-rational points is skipped unranked: it has a
    common zero, so it is no system of parameters.  Evaluation at a point
    and multiplication are linear, so a candidate's zero mask and its
    multiplication images are combined from per-degree tables of the basis.
    Every table the search reads is a function of its key, built on first
    use and kept for the rest of the search: a candidate's images below D
    are built only once a combination containing it passes the degree-D
    test.  Polynomials are built only for the system returned.

    Both acceptance tests need the quotient to vanish in degree D, so the
    degree-D piece of the ideal is ranked first, and only a combination
    whose quotient vanishes there is ranked in the lower degrees and shown
    to accept as _quotient's (Hilbert values, ideal spans).  A combination
    is ranked in degree D by copying the kept echelon of its members but
    the last and inserting its last member's degree-D rows, so the rows go
    in in the same order as into a fresh echelon.  tried counts every
    combination gone through, sieved ones included, and ranked those whose
    degree-D piece was ranked.
    """
    p, D = Sbar.domain.p, Sbar.D
    pattern = functools.cache(candidate)
    table = functools.cache(lambda k: _image_rows(Sbar, Sbar.bases[k], k))

    @functools.cache
    def values(k):
        piece = graded_piece_basis(Sbar.ambient, Sbar.ambient_degree(k))
        return _point_values(Sbar.bases[k], piece, points, p)

    @functools.cache
    def mask(key):
        coeffs, k = pattern(key)
        return _pattern_mask(coeffs, values(k), p)

    @functools.cache
    def top(key):
        coeffs, k = pattern(key)
        return _pattern_images(coeffs, table(k), p, [D])[0]

    @functools.cache
    def images(key):
        coeffs, k = pattern(key)
        return _pattern_images(coeffs, table(k), p, range(D)) + [top(key)]

    @functools.cache
    def prefix_echelon(prefix):
        span = {}
        _insert(span, (row for key in prefix for row in top(key)), p)
        return span

    tried = ranked = 0
    every_point = (1 << len(points)) - 1
    for tried, combo in enumerate(combos, start=1):
        if functools.reduce(operator.and_, map(mask, combo), every_point):
            continue
        ranked += 1
        span = dict(prefix_echelon(combo[:-1]))
        _insert(span, top(combo[-1]), p)
        if len(span) < len(Sbar.bases[D]):
            continue
        stacked = [images(key) for key in combo]
        if accept(_quotient(Sbar, stacked, [{} for _ in range(D)] + [span])):
            found = tuple(_combination(Sbar, *pattern(key)) for key in combo)
            return SopSearchResult(True, found, tried, ranked)
    return SopSearchResult(False, (), tried, ranked)


_EXHAUSTIVE_CAP = 20_000
_SAMPLED_COMBOS = 200


def find_sop_mod_p(Sbar: TruncatedSubalgebra, seed: int = 0) -> SopSearchResult:
    """Search the projective degree-1 combinations over F_p for as many
    elements as the ambient ring has variables whose quotient vanishes.

    For standard graded input a single zero Hilbert value forces all later
    values to vanish, so the success test is one zero at or below D.  When
    the ordered tuples of candidates number at most _EXHAUSTIVE_CAP, every
    combination is tried in deterministic order; otherwise _SAMPLED_COMBOS
    seeded random combinations of candidate indices are drawn, each distinct
    one tried once and its candidates decoded by _projective_pattern.  No
    combination is sieved for a common zero yet (ROADMAP item 10a).
    """
    _require_prime_field(Sbar)
    _require_standard_graded(Sbar)
    p, r, dim = Sbar.domain.p, len(Sbar.bases[1]), Sbar.ambient.nvars
    count = (p**r - 1) // (p - 1)  # patterns of _projective_patterns(p, r)
    if math.perm(count, dim) <= _EXHAUSTIVE_CAP:
        combos = itertools.combinations(range(count), dim)
    else:
        rng = random.Random(seed)
        combos = dict.fromkeys(
            tuple(sorted(rng.sample(range(count), dim))) for _ in range(_SAMPLED_COMBOS)
        )
    return _search(
        Sbar,
        combos,
        lambda i: (_projective_pattern(p, r, i), 1),
        lambda quotient: 0 in quotient[0],
        (),
    )


_MIXED_COMBO_CAP = 2_000
_MIXED_CANDIDATE_CAP = 150
_MIXED_EVAL_BUDGET = 6_000


def _candidates_of_degree(Sbar: TruncatedSubalgebra, k: int) -> list[tuple[int, ...]]:
    """Coefficient patterns of the degree-k projective candidates over the
    basis of Sbar, sparsest of the first 4 * _MIXED_CANDIDATE_CAP first."""
    cap = _MIXED_CANDIDATE_CAP
    patterns = sorted(
        itertools.islice(_projective_patterns(Sbar.domain.p, len(Sbar.bases[k])), 4 * cap),
        key=lambda cs: (sum(1 for c in cs if c), cs),
    )
    return patterns[:cap]


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
        if _insert(dict(ideal_spans[d]), [vec], p):
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
        table = _binomials(n, k)
        a = bisect.bisect_right(table, rank) - 1
        rank -= table[a]
        out.append(n - 1 - a)
    return tuple(out)


def find_sop_mixed(Sbar: TruncatedSubalgebra, seed: int = 0) -> SopSearchResult:
    """Parameter search allowing mixed homogeneous degrees; a system has as
    many elements as the ambient ring has variables.

    Needed when the algebra is not standard graded: pure powers of a
    high-degree generator are only reachable by a parameter of that degree.
    Success requires the quotient Hilbert values to vanish on a tail window
    long enough (per _vanishing_window) to persist beyond the truncation.

    Degree multisets are visited by total degree; within one, combinations
    of the sparsest candidates are tried exhaustively up to
    _MIXED_COMBO_CAP, else that many are sampled with a seeded generator,
    and the whole search stops after _MIXED_EVAL_BUDGET combinations.  A
    combination whose members share a zero at a projective F_p-rational
    point is not ranked, but counts in tried and against that budget.  The
    minimal generators of Sbar that the window test needs are computed
    once, at the first combination whose quotient has a zero tail.
    """
    _require_prime_field(Sbar)
    D = Sbar.D
    max_deg = max(1, D - 1)
    per_degree = {k: _candidates_of_degree(Sbar, k) for k in range(1, max_deg + 1)}
    multisets = sorted(
        itertools.combinations_with_replacement(range(1, max_deg + 1), Sbar.ambient.nvars),
        key=lambda ms: (sum(ms), ms),
    )
    rng = random.Random(seed)

    def combos():
        for ms in multisets:
            degrees = sorted(set(ms))
            shapes = [(len(per_degree[k]), ms.count(k)) for k in degrees]
            sizes = [math.comb(n, r) for n, r in shapes]
            if math.prod(sizes) <= _MIXED_COMBO_CAP:
                for pick in itertools.product(
                    *(itertools.combinations(range(n), r) for n, r in shapes)
                ):
                    yield tuple((k, idx) for k, group in zip(degrees, pick) for idx in group)
            else:
                for _ in range(_MIXED_COMBO_CAP):
                    keys = []
                    for k, (n, r), size in zip(degrees, shapes, sizes):
                        for idx in _nth_combination(n, r, rng.randrange(size)):
                            keys.append((k, idx))
                    yield tuple(keys)

    @functools.cache
    def generators():
        return _generator_vectors(Sbar)

    def accept(quotient) -> bool:
        h, spans = quotient
        d0 = next(d for d in range(D + 1) if all(v == 0 for v in h[d:]))
        return D - d0 + 1 >= _vanishing_window(generators(), spans, Sbar.domain.p)

    return _search(
        Sbar,
        itertools.islice(combos(), _MIXED_EVAL_BUDGET),
        lambda key: (per_degree[key[0]][key[1]], key[0]),
        accept,
        tuple(_projective_patterns(Sbar.domain.p, Sbar.ambient.nvars)),
    )


def cm_certificate(
    S: TruncatedSubalgebra,
    primes,
    seed: int = 0,
    mixed: bool = False,
) -> dict[int, CMCertificate]:
    """Per-prime certificates for a truncated algebra over Z or Z_(q).

    Without mixed the algebra must be standard graded through D
    (NotStandardGraded otherwise) and the parameters have degree 1; with
    mixed=True that gate is dropped and the parameters may carry mixed
    homogeneous degrees.  Only primes dividing the group order are checked,
    and over Z_(q) only q: any other prime is certified vacuously, since the
    group order is invertible there, or since p is a unit of Z_(q) and S/pS
    is 0.
    """
    primes = list(primes)
    if not all(is_prime(p) for p in primes):
        raise ValueError(f"expects primes, got {primes}")
    if not mixed:
        _require_standard_graded(S)
    out: dict[int, CMCertificate] = {}
    for p in primes:
        status = "vacuous"
        if S.group.order % p == 0 and (S.domain.tag != "Zlocal" or p == S.domain.p):
            Sbar = reduce_mod_p(S, p)
            if mixed:
                search = find_sop_mixed(Sbar, seed=seed)
            else:
                search = find_sop_mod_p(Sbar, seed=seed)
            if search.found:
                out[p] = regular_sequence_certificate(Sbar, search.thetas)
                continue
            status = "no-sop-found"
        out[p] = CMCertificate(
            p=p, parameter_degrees=(), parameters=(), verified_to=S.D, status=status
        )
    return out


@record
class VeroneseAttempt:
    l: int
    standard_graded: bool
    first_failing_degree: int | None
    certificates: dict[int, CMCertificate]

    @property
    def certified(self) -> bool:
        return self.standard_graded and bool(self.certificates) and all(
            c.certified for c in self.certificates.values()
        )


@record
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
    unverified at that degree, never as a negative.  l_max must be at least
    1 (ValueError), so that no search is vacuous.
    """
    if l_max < 1:
        raise ValueError(f"l_max must be at least 1, not {l_max}")
    S = truncated_invariant_ring(G, ring, D)
    primes = prime_divisors(G.order) or [2]

    def attempt_for(l: int) -> VeroneseAttempt:
        try:
            certs = cm_certificate(veronese(S, l), primes, seed=seed)
        except NotStandardGraded as exc:
            return VeroneseAttempt(
                l=l, standard_graded=False, first_failing_degree=exc.degree, certificates={}
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


@record
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

    Accepts a truncated subalgebra or a plain Hilbert value sequence, which
    must not be empty (ValueError).  The numerator must stabilize to zero
    safely inside the truncation window or NumeratorNotTerminated is raised;
    a symmetric result is only ever "consistent with Gorenstein" because of
    the truncation.
    """
    if isinstance(S, TruncatedSubalgebra):
        values = list(hilbert_function(S).values)
    else:
        values = list(S)
    if not values:
        raise ValueError("need at least one Hilbert value")
    sop_degrees = list(sop_degrees)
    if not sop_degrees:
        raise ValueError("need at least one parameter degree")
    if min(sop_degrees) < 1:
        raise ValueError(f"parameter degrees must be at least 1, got {sop_degrees}")
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
