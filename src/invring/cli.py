"""Command-line interface.

Exit codes separate concerns for CI: 0 success, 1 a mathematical claim was
refuted by computation, 2 bad input or usage, 3 an internal error.  Reports
are deterministic for fixed inputs and seed and always embed the seed,
truncation bound, tool version, and a hash of the group file.

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

    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read group file: {exc}") from None
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"group file is not valid JSON: {exc}") from None
    if coeff is not None and isinstance(payload, dict):
        payload["coefficients"] = str(coeff)
    group = group_from_json_dict(payload)
    digest = hashlib.sha256(raw).hexdigest()[:16]
    return group, digest


def _provenance(args, group_hash: str | None = None) -> dict:
    out = {
        "version": __version__,
        "seed": getattr(args, "seed", 0),
    }
    if hasattr(args, "max_degree"):
        out["max_degree"] = args.max_degree
    if group_hash is not None:
        out["group_file_sha256"] = group_hash
    return out


def _emit(args, payload: dict) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    elif fmt == "tsv":
        lines = []
        for key, value in sorted(payload.items()):
            if isinstance(value, (list, tuple)):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key}\t{value}")
        text = "\n".join(lines)
    else:
        lines = [f"{key}: {value}" for key, value in sorted(payload.items())]
        text = "\n".join(lines)
    out_path = getattr(args, "output", None)
    if out_path:
        with open(out_path, "w") as fh:
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
# subcommands


def _cmd_veronese(args) -> int:
    """Also serves the invariants command, which is the case m = 1."""
    from .invariants import (
        hilbert_function,
        is_standard_graded_up_to,
        minimal_generators_up_to,
        truncated_invariant_ring,
        veronese,
    )
    from .poly import GradedRing

    group, digest = _load_group(args.group)
    ring = GradedRing(group.n, group.coeff)
    S = truncated_invariant_ring(group, ring, args.max_degree)
    V = veronese(S, args.m)
    report = is_standard_graded_up_to(V)
    gens = minimal_generators_up_to(V)
    payload = {
        **_provenance(args, digest),
        "hilbert": list(hilbert_function(V).values),
        "generators": [{"degree": d, "poly": str(p)} for d, p in gens],
        "standard_graded": {
            "m": args.m,
            "upto": V.D,
            "standard": report.standard,
            "first_failing_degree": report.first_failing_degree,
        },
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_transfer_check(args) -> int:
    from .domains import QQ, Z_local
    from .invariants import invariant_basis, transfer
    from .poly import GradedRing, graded_piece_basis, polynomial_from_vector

    coeff = Z_local(args.p) if args.p is not None else QQ
    G, _ = _load_group(args.group, coeff)
    H, _ = _load_group(args.subgroup, coeff)
    ring = GradedRing(G.n, coeff)
    checked = 0
    failures = []
    for d in range(args.max_degree + 1):
        piece = graded_piece_basis(ring, d)
        for row in invariant_basis(G, ring, d):
            f = polynomial_from_vector(ring, piece, row)
            if transfer(f, G, H) != f:
                failures.append({"degree": d, "poly": str(f)})
            checked += 1
    payload = {
        **_provenance(args),
        "checked": checked,
        "splitting_identity": not failures,
        "failures": failures,
    }
    _emit(args, payload)
    return EXIT_OK if not failures else EXIT_CLAIM_FAILED


def _cmd_cm_search(args) -> int:
    from .cmcert import veronese_cm_search
    from .poly import GradedRing

    group, digest = _load_group(args.group)
    ring = GradedRing(group.n, group.coeff)
    report = veronese_cm_search(
        group,
        ring,
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
        **_provenance(args, digest),
        "group_order": report.group_order,
        "l_max": report.l_max,
        "first_certified_l": report.first_certified,
        "attempts": attempts,
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_gorenstein(args) -> int:
    from .cmcert import cm_certificate, gorenstein_symmetry_check
    from .domains import prime_divisors
    from .invariants import hilbert_function, truncated_invariant_ring, veronese
    from .poly import GradedRing

    group, digest = _load_group(args.group)
    ring = GradedRing(group.n, group.coeff)
    S = truncated_invariant_ring(group, ring, args.max_degree)
    V = veronese(S, args.l)
    certs = cm_certificate(V, prime_divisors(group.order), seed=args.seed)
    sop_degrees = None
    for cert in certs.values():
        if cert.status == "certified":
            sop_degrees = list(cert.parameter_degrees)
            break
    if sop_degrees is None:
        sop_degrees = [1] * group.n
    gor = gorenstein_symmetry_check(list(hilbert_function(V).values), sop_degrees)
    payload = {
        **_provenance(args, digest),
        "l": args.l,
        "primes": {str(p): _cert_payload(c) for p, c in certs.items()},
        "gorenstein_numerator": list(gor.numerator),
        "symmetric": gor.symmetric,
        "caveat": gor.caveat,
    }
    _emit(args, payload)
    return EXIT_OK


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


def _cmd_cohomology(args) -> int:
    from .cohomology import cohomology, graded_cohomology, verify_h2_trivial_mod_pi
    from .fixtures import random_order_p_module, random_trivial_mod_p_module
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
        _emit(args, {**_provenance(args, digest), "pieces": rows})
        return EXIT_OK
    rng = random.Random(args.seed)
    if args.verb == "verify-lemma-g2":
        bad = []
        for t in range(args.trials):
            M = random_trivial_mod_p_module(rng, args.p, max_rank=args.rank)
            rep = verify_h2_trivial_mod_pi(M)
            if not rep.holds:
                bad.append({"trial": t, "sigma": [list(r) for r in M.sigma]})
        payload = {
            **_provenance(args),
            "p": args.p,
            "trials": args.trials,
            "holds": not bad,
            "counterexamples": bad,
        }
        _emit(args, payload)
        return EXIT_OK if not bad else EXIT_CLAIM_FAILED
    if args.verb == "verify-h1-zero":
        ok = _h1_degree_zero_holds()
        _emit(args, {**_provenance(args), "holds": ok})
        return EXIT_OK if ok else EXIT_CLAIM_FAILED
    if args.verb == "periodicity":
        bad = 0
        for t in range(args.trials):
            M = random_order_p_module(rng, args.p)
            for i in (1, 2):
                if cohomology(M, i) != cohomology(M, i + 2):
                    bad += 1
        payload = {**_provenance(args), "p": args.p, "trials": args.trials, "holds": bad == 0}
        _emit(args, payload)
        return EXIT_OK if bad == 0 else EXIT_CLAIM_FAILED
    raise ValueError(f"unknown cohomology verb {args.verb!r}")


def _cmd_dedekind(args) -> int:
    from .quadratic import (
        NumberRing,
        class_group,
        factor_element,
        parse_element,
        verify_div_compatibility,
    )

    ring = NumberRing(args.d)
    if args.verb == "factor":
        if args.element is None:
            raise ValueError("--element is required for 'dedekind factor'")
        el = parse_element(args.element)
        div = factor_element(ring, el)
        payload = {
            **_provenance(args),
            "d": args.d,
            "element": ring.element_str(el),
            "divisor": [
                {"prime": str(P), "coeff": c, "norm": P.norm} for P, c in div.items()
            ],
        }
        _emit(args, payload)
        return EXIT_OK
    if args.verb == "class-group":
        cg = class_group(ring)
        payload = {**_provenance(args), "d": args.d, "invariant_factors": cg}
        _emit(args, payload)
        return EXIT_OK
    if args.verb == "div-check":
        rng = random.Random(args.seed)
        if args.element is not None:
            try:
                values = [int(args.element)]
            except ValueError:
                raise ValueError(
                    f"'dedekind div-check' takes a rational integer, not {args.element!r}"
                ) from None
        else:
            values = [rng.randint(1, 10_000) * rng.choice([1, -1]) for _ in range(args.count)]
        bad = [a for a in values if not verify_div_compatibility(ring, a)]
        payload = {
            **_provenance(args),
            "d": args.d,
            "checked": len(values),
            "holds": not bad,
            "counterexamples": bad,
        }
        _emit(args, payload)
        return EXIT_OK if not bad else EXIT_CLAIM_FAILED
    raise ValueError(f"unknown dedekind verb {args.verb!r}")


def _cmd_lemma_suite(args) -> int:
    from .cohomology import cohomology, verify_h2_trivial_mod_pi, verify_pi_annihilates_h1
    from .domains import Z_local
    from .fixtures import (
        DEDEKIND_FIXTURES,
        fixture_group,
        random_order_p_module,
        random_trivial_mod_p_module,
    )
    from .groups import sylow_subgroup
    from .invariants import invariant_basis, transfer
    from .poly import GradedRing, graded_piece_basis, polynomial_from_vector
    from .quadratic import NumberRing, class_group, verify_div_compatibility

    rng = random.Random(args.seed)
    results: dict[str, bool] = {}

    results["h1-degree-zero"] = _h1_degree_zero_holds()

    ok = True
    for p in (2, 3, 5):
        for _ in range(args.trials):
            M = random_trivial_mod_p_module(rng, p)
            rep = verify_h2_trivial_mod_pi(M)
            ok = ok and rep.holds
            if p == 2:
                ok = ok and verify_pi_annihilates_h1(M)
    results["h2-equals-fixed-mod-p"] = ok

    ok = True
    for p in (2, 3):
        for _ in range(args.trials):
            M = random_order_p_module(rng, p)
            for i in (1, 2):
                ok = ok and cohomology(M, i) == cohomology(M, i + 2)
    results["periodicity"] = ok

    G = fixture_group("s3", Z_local(3))
    H = sylow_subgroup(G, 3)
    ring = GradedRing(3, Z_local(3))
    ok = True
    for d in range(0, 5):
        piece = graded_piece_basis(ring, d)
        for row in invariant_basis(G, ring, d):
            f = polynomial_from_vector(ring, piece, row)
            ok = ok and transfer(f, G, H) == f
    results["transfer-splitting"] = ok

    ok = True
    for name, d in DEDEKIND_FIXTURES.items():
        if d >= 0:
            continue
        ring_d = NumberRing(d)
        for _ in range(args.trials):
            a = rng.randint(1, 10_000) * rng.choice([1, -1])
            ok = ok and verify_div_compatibility(ring_d, a)
    results["divisor-compatibility"] = ok

    results["class-group-gauss-trivial"] = class_group(NumberRing(-1)) == []
    results["class-group-sqrt-minus-5"] = class_group(NumberRing(-5)) == [2]

    payload = {**_provenance(args), "trials": args.trials, "results": results}
    _emit(args, payload)
    return EXIT_OK if all(results.values()) else EXIT_CLAIM_FAILED


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


# Exceptions that mean bad input, besides ValueError, KeyError and OSError,
# by the module that raises them.
_USAGE_ERRORS = {
    "cmcert": ("NotStandardGraded", "NumeratorNotTerminated"),
    "groups": ("BoundExceeded", "NotSubgroup"),
    "invariants": ("IndexNotInvertible",),
    "quadratic": ("BoundTooLarge", "ZeroElement"),
}


def _usage_errors() -> tuple:
    """The exit-2 exception classes.  A module this process never imported
    cannot have raised its exceptions, so none is imported here."""
    found = [ValueError, KeyError, OSError]
    for module, names in _USAGE_ERRORS.items():
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None:
            found += [getattr(loaded, name) for name in names]
    return tuple(found)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except _usage_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback  # only on this path; it costs start-up time otherwise

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
