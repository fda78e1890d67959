"""Command-line interface.

Exit codes separate concerns for CI: 0 success, 1 a mathematical claim was
refuted by computation, 2 bad input or usage, 3 an internal error.  Reports
are deterministic for fixed inputs and seed and always embed the seed,
truncation bound, tool version, and a hash of the group file.

run() holds that contract and is the only code that emits a report or picks
an exit code.  Each handler returns its report and whether the claims it
checked hold; run() adds the provenance, emits the report, and exits 0 or 1
by that verdict.  Every exception the library raises on bad input is a
ValueError, so run() sends ValueError and OSError to 2 and anything else
to 3.

Each subcommand imports the invring modules it runs at the top of its
handler, so a process loads only what its command uses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys

from . import __version__

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _load_group(path: str, coeff=None):
    """Group and file digest; coeff, when given, replaces the file's domain."""
    from .groups import group_from_json_dict

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"group file is not valid JSON: {exc}") from None
    if coeff is not None and isinstance(payload, dict):
        payload["coefficients"] = str(coeff)
    group = group_from_json_dict(payload)
    digest = hashlib.sha256(raw).hexdigest()[:16]
    return group, digest


def _provenance(args) -> dict:
    out = {"version": __version__, "seed": args.seed}
    if hasattr(args, "max_degree"):
        out["max_degree"] = args.max_degree
    return out


def _emit(args, payload: dict) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    elif args.format == "tsv":
        lines = []
        for key, value in sorted(payload.items()):
            if isinstance(value, (list, tuple)):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key}\t{value}")
        text = "\n".join(lines)
    else:
        lines = [f"{key}: {value}" for key, value in sorted(payload.items())]
        text = "\n".join(lines)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cert_payload(cert) -> dict:
    out = {
        "status": cert.status,
        "D": cert.verified_to,
        "sop_degrees": list(cert.parameter_degrees),
        "parameters": list(cert.parameters),
    }
    if cert.failed_stage is not None:
        out["failed_stage"] = cert.failed_stage
        out["failed_degree"] = cert.failed_degree
    return out


# ---------------------------------------------------------------------------
# verifiers, shared by their own commands and lemma-suite


def _transfer_failures(G, H, ring, max_degree: int) -> tuple[int, list[dict]]:
    """How many G-invariants there are through max_degree, and those that
    the transfer from H does not fix."""
    from .invariants import invariant_basis, transfer
    from .poly import graded_piece_basis, polynomial_from_vector

    checked = 0
    failures = []
    for d in range(max_degree + 1):
        piece = graded_piece_basis(ring, d)
        for row in invariant_basis(G, ring, d):
            f = polynomial_from_vector(ring, piece, row)
            if transfer(f, G, H) != f:
                failures.append({"degree": d, "poly": str(f)})
            checked += 1
    return checked, failures


def _h2_counterexamples(modules) -> list[dict]:
    """The trials whose module has H^2 other than (fixed lattice)/p(fixed lattice)."""
    from .cohomology import verify_h2_trivial_mod_pi

    return [
        {"trial": t, "sigma": [list(r) for r in M.sigma]}
        for t, M in enumerate(modules)
        if not verify_h2_trivial_mod_pi(M).holds
    ]


def _periodicity_holds(rng, p: int, trials: int) -> bool:
    """H^i = H^(i+2) for i = 1, 2 on random order-p modules over Z.  Every
    module is drawn before any is checked, so a failure leaves the seeded
    stream where success would."""
    from .cohomology import cohomology
    from .fixtures import random_order_p_module

    modules = [random_order_p_module(rng, p) for _ in range(trials)]
    return all(cohomology(M, i) == cohomology(M, i + 2) for M in modules for i in (1, 2))


def _random_integers(rng, count: int) -> list[int]:
    return [rng.randint(1, 10_000) * rng.choice([1, -1]) for _ in range(count)]


def _div_counterexamples(ring, values) -> list[int]:
    from .quadratic import verify_div_compatibility

    return [a for a in values if not verify_div_compatibility(ring, a)]


def _h1_degree_zero_holds() -> bool:
    """H^1 vanishes in degree 0 for the minus-identity, a3 and rot3 fixtures."""
    from .cohomology import verify_h1_degree0
    from .domains import ZZ
    from .fixtures import fixture_group
    from .poly import GradedRing

    return all(
        verify_h1_degree0(G, GradedRing(G.n, ZZ))
        for G in map(fixture_group, ("minus-identity", "a3", "rot3"))
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_veronese(args):
    """Also serves the invariants command, which is the case m = 1."""
    from .invariants import (
        hilbert_function,
        minimal_generators_up_to,
        truncated_invariant_ring,
        veronese,
    )
    from .poly import GradedRing

    group, digest = _load_group(args.group)
    S = truncated_invariant_ring(group, GradedRing(group.n, group.coeff), args.max_degree)
    V = veronese(S, args.m)
    gens = minimal_generators_up_to(V)
    # V is generated in degree 1 through V.D unless some generator lies above
    first_failing = next((d for d, _ in gens if d > 1), None)
    payload = {
        "group_file_sha256": digest,
        "hilbert": list(hilbert_function(V).values),
        "generators": [{"degree": d, "poly": str(p)} for d, p in gens],
        "standard_graded": {
            "m": args.m,
            "upto": V.D,
            "standard": first_failing is None,
            "first_failing_degree": first_failing,
        },
    }
    return payload, True


def _cmd_transfer_check(args):
    from .domains import QQ, Z_local
    from .poly import GradedRing

    coeff = Z_local(args.p) if args.p is not None else QQ
    G, _ = _load_group(args.group, coeff)
    H, _ = _load_group(args.subgroup, coeff)
    checked, failures = _transfer_failures(G, H, GradedRing(G.n, coeff), args.max_degree)
    payload = {"checked": checked, "splitting_identity": not failures, "failures": failures}
    return payload, not failures


def _cmd_cm_search(args):
    from .cmcert import veronese_cm_search
    from .poly import GradedRing

    group, digest = _load_group(args.group)
    report = veronese_cm_search(
        group,
        GradedRing(group.n, group.coeff),
        l_max=args.l_max,
        D=args.max_degree,
        seed=args.seed,
    )
    attempts = []
    for a in report.attempts:
        entry = {
            "l": a.l,
            "standard_graded": a.standard_graded,
        }
        if not a.standard_graded:
            entry["first_failing_degree"] = a.first_failing_degree
        else:
            entry["primes"] = {str(p): _cert_payload(c) for p, c in a.certificates.items()}
        attempts.append(entry)
    payload = {
        "group_file_sha256": digest,
        "group_order": report.group_order,
        "l_max": report.l_max,
        "first_certified_l": report.first_certified,
        "attempts": attempts,
    }
    return payload, True


def _cmd_gorenstein(args):
    from .cmcert import cm_certificate, gorenstein_symmetry_check
    from .domains import prime_divisors
    from .invariants import hilbert_function, truncated_invariant_ring, veronese
    from .poly import GradedRing

    group, digest = _load_group(args.group)
    S = truncated_invariant_ring(group, GradedRing(group.n, group.coeff), args.max_degree)
    V = veronese(S, args.l)
    certs = cm_certificate(V, prime_divisors(group.order), seed=args.seed)
    sop_degrees = next(
        (list(c.parameter_degrees) for c in certs.values() if c.status == "certified"),
        [1] * group.n,
    )
    gor = gorenstein_symmetry_check(list(hilbert_function(V).values), sop_degrees)
    payload = {
        "group_file_sha256": digest,
        "l": args.l,
        "primes": {str(p): _cert_payload(c) for p, c in certs.items()},
        "gorenstein_numerator": list(gor.numerator),
        "symmetric": gor.symmetric,
        "caveat": gor.caveat,
    }
    return payload, True


def _cmd_cohomology(args):
    from .cohomology import graded_cohomology
    from .fixtures import random_trivial_mod_p_module
    from .poly import GradedRing

    if args.verb == "compute":
        if args.group is None:
            raise ValueError("--group is required for 'cohomology compute'")
        group, digest = _load_group(args.group)
        ring = GradedRing(group.n, group.coeff)
        rows = []
        for d in range(args.max_degree + 1):
            h = graded_cohomology(group, ring, args.i, d)
            rows.append(
                {"degree": d, "i": args.i, "free_rank": h.free_rank, "torsion": list(h.torsion)}
            )
        return {"group_file_sha256": digest, "pieces": rows}, True
    if args.verb == "verify-h1-zero":
        ok = _h1_degree_zero_holds()
        return {"holds": ok}, ok
    rng = random.Random(args.seed)
    if args.verb == "verify-lemma-g2":
        modules = [
            random_trivial_mod_p_module(rng, args.p, max_rank=args.rank)
            for _ in range(args.trials)
        ]
        bad = _h2_counterexamples(modules)
        payload = {"p": args.p, "trials": args.trials, "holds": not bad, "counterexamples": bad}
        return payload, not bad
    ok = _periodicity_holds(rng, args.p, args.trials)
    return {"p": args.p, "trials": args.trials, "holds": ok}, ok


def _cmd_dedekind(args):
    from .quadratic import NumberRing, class_group, factor_element, parse_element

    ring = NumberRing(args.d)
    if args.verb == "factor":
        if args.element is None:
            raise ValueError("--element is required for 'dedekind factor'")
        el = parse_element(args.element)
        payload = {
            "d": args.d,
            "element": ring.element_str(el),
            "divisor": [
                {"prime": str(P), "coeff": c, "norm": P.norm}
                for P, c in factor_element(ring, el).items()
            ],
        }
        return payload, True
    if args.verb == "class-group":
        return {"d": args.d, "invariant_factors": class_group(ring)}, True
    if args.element is not None:
        try:
            values = [int(args.element)]
        except ValueError:
            raise ValueError(
                f"'dedekind div-check' takes a rational integer, not {args.element!r}"
            ) from None
    else:
        values = _random_integers(random.Random(args.seed), args.count)
    bad = _div_counterexamples(ring, values)
    payload = {"d": args.d, "checked": len(values), "holds": not bad, "counterexamples": bad}
    return payload, not bad


def _cmd_lemma_suite(args):
    """Every verifier on the fixtures.  The seeded stream is drawn in a fixed
    order (H^2 modules, periodicity modules, integers), whatever fails."""
    from .cohomology import verify_pi_annihilates_h1
    from .domains import Z_local
    from .fixtures import DEDEKIND_FIXTURES, fixture_group, random_trivial_mod_p_module
    from .groups import sylow_subgroup
    from .poly import GradedRing
    from .quadratic import NumberRing, class_group

    rng = random.Random(args.seed)
    h2_holds = True
    for p in (2, 3, 5):
        modules = [random_trivial_mod_p_module(rng, p) for _ in range(args.trials)]
        h2_holds = h2_holds and not _h2_counterexamples(modules)
        if p == 2:
            h2_holds = h2_holds and all(map(verify_pi_annihilates_h1, modules))
    periodic = [_periodicity_holds(rng, p, args.trials) for p in (2, 3)]
    divisible = [
        not _div_counterexamples(NumberRing(d), _random_integers(rng, args.trials))
        for d in DEDEKIND_FIXTURES.values()
        if d < 0
    ]
    G = fixture_group("s3", Z_local(3))
    _, transfer_failures = _transfer_failures(
        G, sylow_subgroup(G, 3), GradedRing(G.n, G.coeff), 4
    )
    results = {
        "h1-degree-zero": _h1_degree_zero_holds(),
        "h2-equals-fixed-mod-p": h2_holds,
        "periodicity": all(periodic),
        "transfer-splitting": not transfer_failures,
        "divisor-compatibility": all(divisible),
        "class-group-gauss-trivial": class_group(NumberRing(-1)) == [],
        "class-group-sqrt-minus-5": class_group(NumberRing(-5)) == [2],
    }
    return {"trials": args.trials, "results": results}, all(results.values())


# ---------------------------------------------------------------------------
# parser


def _at_least_one(text: str) -> int:
    """argparse type for counts that must be positive, so that no run is
    vacuous."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--format", choices=("json", "tsv", "text"), default="json")
    sub.add_argument("--output", default=None)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invring",
        description="exact computations with invariant rings of finite matrix groups",
    )
    parser.add_argument("--version", action="version", version=f"invring {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = _add_common(subs.add_parser("invariants", help="Hilbert function and generators"))
    p.add_argument("--group", required=True)
    p.add_argument("--max-degree", type=_at_least_one, default=12)
    p.set_defaults(func=_cmd_veronese, m=1)

    p = _add_common(subs.add_parser("veronese", help="Veronese subring report"))
    p.add_argument("--group", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-degree", type=_at_least_one, default=12)
    p.set_defaults(func=_cmd_veronese)

    p = _add_common(subs.add_parser("transfer-check", help="transfer splitting identity"))
    p.add_argument("--group", required=True)
    p.add_argument("--subgroup", required=True)
    p.add_argument("--p", type=int, default=None, help="localize at this prime")
    p.add_argument("--max-degree", type=_at_least_one, default=6)
    p.set_defaults(func=_cmd_transfer_check)

    p = _add_common(subs.add_parser("cohomology", help="cyclic group cohomology"))
    p.add_argument("verb", choices=("compute", "verify-lemma-g2", "verify-h1-zero", "periodicity"))
    p.add_argument("--group", default=None)
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--max-degree", type=_at_least_one, default=6)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--rank", type=_at_least_one, default=4)
    p.add_argument("--trials", type=_at_least_one, default=100)
    p.set_defaults(func=_cmd_cohomology)

    p = _add_common(subs.add_parser("cm-search", help="Veronese Cohen-Macaulay search"))
    p.add_argument("--group", required=True)
    p.add_argument("--l-max", type=_at_least_one, default=6)
    p.add_argument("--max-degree", type=_at_least_one, default=12)
    p.set_defaults(func=_cmd_cm_search)

    p = _add_common(subs.add_parser("gorenstein", help="h-numerator symmetry report"))
    p.add_argument("--group", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--max-degree", type=_at_least_one, default=12)
    p.set_defaults(func=_cmd_gorenstein)

    p = _add_common(subs.add_parser("dedekind", help="quadratic ring computations"))
    p.add_argument("verb", choices=("factor", "class-group", "div-check"))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--element", default=None, help="factor: a + b*w; div-check: an integer")
    p.add_argument("--count", type=_at_least_one, default=100)
    p.set_defaults(func=_cmd_dedekind)

    p = _add_common(subs.add_parser("lemma-suite", help="run every verifier on the fixtures"))
    p.add_argument("--trials", type=_at_least_one, default=25)
    p.set_defaults(func=_cmd_lemma_suite)

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage, help or the version
        return exc.code
    try:
        payload, holds = args.func(args)
        _emit(args, {**_provenance(args), **payload})
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback  # only on this path; it costs start-up time otherwise

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK if holds else EXIT_CLAIM_FAILED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
