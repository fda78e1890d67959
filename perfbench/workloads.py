"""The four workloads: inputs, item lists and answer checks.

A workload is a ``setup(seed)`` that builds its inputs and returns a
``run(ctx)`` closure.  ``run`` calls ``ctx.item(name, thunk, check)`` once
per item; the context times the thunk, records its answer and checks it
after the timed loop.  A check returns ``None`` when the answer is right
and a short reason otherwise; without a check the answer's digest is
compared with the one recorded in ``expected.json``.

Items call the library through the package (``ir.name``) at call time,
so the tracer's wrappers, installed after set-up, are the ones called.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import invring as ir

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

S4_GENERATORS = [
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
]
# B3: signed permutations of three letters, order 48
B3_GENERATORS = [
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
    [[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
]

# Class groups known from the literature (tabulated class numbers).
CLASS_GROUP_LITERATURE = {-5: [2], -105: [2, 2, 2], 2: [], 3: [], 5: [], 13: []}
CLASS_NUMBER_LITERATURE = {-101: 14, -191: 13, -197: 10}
CLASS_GROUP_EXTRA = (-101, -105, -191, -197, 2, 3, 5, 13)
ARITHMETIC_RINGS = (-1, -3, -5, 2)
CANDIDATES = 32


def canon(x):
    """JSON-ready canonical form of an answer."""
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    return str(x)


def digest(x) -> str:
    text = json.dumps(canon(x), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def recorded(name):
    def check(answer):
        want = EXPECTED["digests"].get(name)
        if want is None:
            return "no recorded digest"
        return None if digest(answer) == want else "digest differs from the record"

    return check


def equals(want, view=lambda answer: answer):
    def check(answer):
        got = view(answer)
        return None if got == want else f"expected {want!r}, got {got!r}"

    return check


def all_of(*checks):
    def check(answer):
        return next((r for r in (c(answer) for c in checks) if r is not None), None)

    return check


def molien_coefficients(degrees, D):
    """Coefficients of prod_k 1/(1 - t^k) through t^D."""
    coeffs = [1] + [0] * D
    for k in degrees:
        for d in range(k, D + 1):
            coeffs[d] += coeffs[d - k]
    return tuple(coeffs)


def cert_answer(cert):
    """What a CM certificate pins: the full certificate when certified,
    only the fact otherwise (the status text of a failed search may change)."""
    if not cert.certified:
        return {"certified": False}
    return {
        "certified": True,
        "status": cert.status,
        "degrees": cert.parameter_degrees,
        "parameters": cert.parameters,
        "quotient_hilbert": cert.quotient_hilbert,
    }


# ---------------------------------------------------------------------------
# invariant-rings


def invariant_rings(seed: int):
    from invring import GF, QQ, ZZ, GradedRing, Z_local, enumerate_group

    cases = []
    for label, gens, dom, D, degrees in (
        ("S4/Z", S4_GENERATORS, ZZ, 11, (1, 2, 3, 4)),
        ("S4/F3", S4_GENERATORS, GF(3), 11, (1, 2, 3, 4)),
        ("S4/Z_(3)", S4_GENERATORS, Z_local(3), 9, (1, 2, 3, 4)),
        ("S4/Q", S4_GENERATORS, QQ, 9, (1, 2, 3, 4)),
        ("B3/Z", B3_GENERATORS, ZZ, 16, (2, 4, 6)),
    ):
        G = enumerate_group(gens, dom)
        cases.append((label, G, GradedRing(G.n, dom), D, degrees))

    def run(ctx):
        # one item per case, as one `invring invariants` request
        for label, G, ring, D, degrees in cases:

            def case():
                S = ir.truncated_invariant_ring(G, ring, D)
                return {
                    "bases": S.bases,
                    "hilbert": ir.hilbert_function(S).values,
                    "generators": ir.minimal_generators_up_to(S),
                    "standard_graded": ir.is_standard_graded_up_to(S),
                }

            ctx.item(
                label,
                case,
                check=all_of(
                    equals(molien_coefficients(degrees, D), view=lambda a: a["hilbert"]),
                    equals(list(degrees), view=lambda a: [d for d, _ in a["generators"]]),
                    recorded(label),
                ),
            )

    return run


# ---------------------------------------------------------------------------
# cm-certify


def cm_certify(seed: int):
    from invring import ZZ, GradedRing, sylow_subgroup
    from invring.fixtures import fixture_group

    ring = GradedRing(3, ZZ)
    G = fixture_group("s3")
    sylow = {p: sylow_subgroup(G, p) for p in (2, 3)}
    searches = [(name, fixture_group(name)) for name in ("minus-identity", "rot3", "rot4")]
    plane = GradedRing(2, ZZ)

    def run(ctx):
        # the Sylow-to-group transfer pipeline of acceptance criterion 07
        SG = ctx.item("s3/ring", lambda: ir.truncated_invariant_ring(G, ring, 8), answer=lambda S: S.bases)
        for p in (2, 3):
            SH = ctx.item(
                f"s3/sylow{p}/ring",
                lambda: ir.truncated_invariant_ring(sylow[p], ring, 8),
                answer=lambda S: S.bases,
            )
            for l in range(1, 5):

                def cell():
                    ch = ir.cm_certificate(ir.veronese(SH, l), [p], mixed=True)[p]
                    if ch.status != "certified":
                        return {"H": cert_answer(ch)}
                    cg = ir.cm_certificate(ir.veronese(SG, l), [p], mixed=True)[p]
                    return {"H": cert_answer(ch), "G": cert_answer(cg)}

                ctx.item(f"s3/p{p}/l{l}", cell)
        # standard-graded Veronese search (find_sop_mod_p path)
        for name, H in searches:

            def search():
                rep = ir.veronese_cm_search(H, plane, l_max=6, D=12)
                return {
                    "first_certified": rep.first_certified,
                    "attempts": [
                        [a.l, a.standard_graded, a.first_failing_degree,
                         {p: cert_answer(c) for p, c in a.certificates.items()}]
                        for a in rep.attempts
                    ],
                }

            ctx.item(f"veronese/{name}", search)

    return run


# ---------------------------------------------------------------------------
# arithmetic


def _squarefree(n: int) -> bool:
    return all(n % (f * f) for f in range(2, int(abs(n) ** 0.5) + 1))


def scan_cost(n: int) -> int:
    """Sum of the distinct primes dividing n.  Factoring in a quadratic
    ring scans every residue modulo each of them, so this is the cost of
    an input, and it varies by orders of magnitude between inputs."""
    n, total, f = abs(n), 0, 2
    while f * f <= n:
        if n % f == 0:
            total += f
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    return total + (n if n > 1 else 0)


def cost_quantiles(rng, draw, cost, count):
    """count random inputs at evenly spaced cost quantiles.

    Of CANDIDATES * count draws, ranked by cost, every CANDIDATES-th is
    kept.  Every seed then gets the same cost profile, heavy tail
    included, so a run's work hardly moves with the seed.
    """
    ranked = sorted((draw() for _ in range(CANDIDATES * count)), key=cost)
    return ranked[CANDIDATES // 2 :: CANDIDATES]


def class_group_check(d):
    if d in CLASS_GROUP_LITERATURE:
        return equals(CLASS_GROUP_LITERATURE[d])
    if d in CLASS_NUMBER_LITERATURE:
        h = CLASS_NUMBER_LITERATURE[d]

        def check(answer):
            got = 1
            for f in answer:
                got *= f
            return None if got == h else f"class number {got}, expected {h}"

        return check
    return equals(EXPECTED["class_groups"][str(d)])


def arithmetic(seed: int):
    from invring import NumberRing
    from invring.fixtures import random_order_p_module, random_trivial_mod_p_module

    rng = random.Random(seed)
    class_ds = [d for d in range(-100, 0) if _squarefree(-d)] + list(CLASS_GROUP_EXTRA)
    rings = {d: NumberRing(d) for d in set(class_ds) | set(ARITHMETIC_RINGS)}

    def nonzero_element():
        while True:
            el = (rng.randint(-500, 500), rng.randint(-500, 500))
            if el != (0, 0):
                return el

    elements, integers = [], []
    for d in ARITHMETIC_RINGS:
        elements += cost_quantiles(
            rng, lambda: (d, nonzero_element()), lambda c: scan_cost(rings[d].norm(c[1])), 50
        )
        integers += cost_quantiles(
            rng, lambda: (d, rng.randint(1, 10_000) * rng.choice((1, -1))), lambda c: scan_cost(c[1]), 100
        )
    rng.shuffle(elements)
    rng.shuffle(integers)
    periodic = [random_order_p_module(rng, (2, 3)[i % 2]) for i in range(200)]
    trivial = [random_trivial_mod_p_module(rng, (2, 3, 5)[i % 3]) for i in range(300)]

    def factor_check(d, el):
        def check(divisor):
            norm = 1
            for P, c in divisor.items():
                norm *= P.norm**c
            want = abs(rings[d].norm(el))
            return None if norm == want else f"norm {norm}, expected {want}"

        return check

    def periodic_check(groups):
        return None if groups[0] == groups[2] and groups[1] == groups[3] else "not 2-periodic"

    def run(ctx):
        for d in class_ds:
            ctx.item(f"class-group/{d}", lambda: ir.class_group(rings[d]), check=class_group_check(d))
        for i, (d, el) in enumerate(elements):
            ctx.item(f"factor/{i}", lambda: ir.factor_element(rings[d], el), check=factor_check(d, el))
        for i, (d, a) in enumerate(integers):
            ctx.item(f"div-check/{i}", lambda: ir.verify_div_compatibility(rings[d], a), check=equals(True))
        for i, M in enumerate(periodic):
            ctx.item(
                f"periodicity/{i}",
                lambda: [ir.cohomology(M, k) for k in (1, 2, 3, 4)],
                check=periodic_check,
            )
        for i, M in enumerate(trivial):
            ctx.item(f"h2/{i}", lambda: ir.verify_h2_trivial_mod_pi(M).holds, check=equals(True))

    return run


# ---------------------------------------------------------------------------
# cli

ARRAY_GROUP = "perfbench/inputs/array-group.json"
MISSING_GROUP = "perfbench/inputs/missing-group.json"

# (name, argv, expected exit code); paths are relative to the checkout root.
CLI_COMMANDS = (
    ("invariants-swap", ["invariants", "--group", "fixtures/groups/swap.json", "--max-degree", "10"], 0),
    ("veronese", ["veronese", "--group", "fixtures/groups/minus-identity.json", "--m", "2", "--max-degree", "12"], 0),
    ("transfer-check", ["transfer-check", "--group", "fixtures/groups/s3.json", "--subgroup", "fixtures/groups/a3.json", "--p", "3", "--max-degree", "6"], 0),
    ("lemma-g2", ["cohomology", "verify-lemma-g2", "--p", "2", "--rank", "3", "--trials", "100", "--seed", "0"], 0),
    ("cm-search", ["cm-search", "--group", "fixtures/groups/rot3.json", "--l-max", "6", "--max-degree", "12"], 0),
    ("gorenstein", ["gorenstein", "--group", "fixtures/groups/minus-identity.json", "--l", "2", "--max-degree", "12"], 0),
    ("factor", ["dedekind", "factor", "--d", "-1", "--element", "5"], 0),
    ("class-group", ["dedekind", "class-group", "--d", "-5"], 0),
    ("lemma-suite", ["lemma-suite"], 0),
    ("invariants-s3", ["invariants", "--group", "fixtures/groups/s3.json", "--max-degree", "10"], 0),
    ("div-check", ["dedekind", "div-check", "--d", "-5"], 0),
    ("periodicity-p3", ["cohomology", "periodicity", "--p", "3"], 0),
    # bad input must exit 2 (README: 0 ok, 1 claim refuted, 2 bad input)
    ("bad-real-d", ["dedekind", "class-group", "--d", "7"], 2),
    ("bad-no-element", ["dedekind", "factor", "--d", "-1"], 2),
    ("bad-array-group", ["invariants", "--group", ARRAY_GROUP], 2),
    ("bad-missing-group", ["invariants", "--group", MISSING_GROUP], 2),
    ("bad-not-subgroup", ["transfer-check", "--group", "fixtures/groups/a3.json", "--subgroup", "fixtures/groups/s3.json"], 2),
)
CLI_ROUNDS = 3


def cli_schedule(seed: int):
    """Every command CLI_ROUNDS times; the seed shuffles each round."""
    rng = random.Random(seed)
    schedule = []
    for r in range(CLI_ROUNDS):
        order = list(CLI_COMMANDS)
        rng.shuffle(order)
        schedule.extend((f"{name}/{r}", name, argv, code) for name, argv, code in order)
    return schedule


EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()


def cli_check(name, want_code):
    """Check a command's (exit code, stdout digest); a command that ended
    in a traceback never gets here, it counts as a failed item."""

    def check(outcome):
        code, stdout_sha = outcome
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        want_sha = EXPECTED["cli"][name] if want_code == 0 else EMPTY_SHA256
        return None if stdout_sha == want_sha else "stdout differs from the recorded report"

    return check


WORKLOADS = {
    "invariant-rings": invariant_rings,
    "cm-certify": cm_certify,
    "arithmetic": arithmetic,
}
