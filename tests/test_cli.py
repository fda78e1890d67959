"""CLI dispatch, exit codes, and report determinism."""

import argparse
import importlib
import json
import pathlib
import pkgutil

import pytest

import invring
from invring.cli import (
    EXIT_CLAIM_FAILED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    run,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "groups"


def _capture(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_invariants_report(capsys):
    code = run(
        ["invariants", "--group", str(FIXTURES / "swap.json"), "--max-degree", "10"]
    )
    assert code == EXIT_OK
    payload = _capture(capsys)
    assert payload["hilbert"] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]
    assert payload["generators"] == [
        {"degree": 1, "poly": "X + Y"},
        {"degree": 2, "poly": "X*Y"},
    ]
    assert payload["standard_graded"]["standard"] is False
    assert payload["standard_graded"]["first_failing_degree"] == 2
    assert payload["version"]
    assert payload["seed"] == 0
    assert payload["group_file_sha256"]


def test_report_determinism(capsys, tmp_path):
    args = [
        "cm-search",
        "--group",
        str(FIXTURES / "minus-identity.json"),
        "--l-max",
        "4",
        "--max-degree",
        "12",
    ]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(args + ["--output", str(out1)]) == EXIT_OK
    assert run(args + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["first_certified_l"] == 2


def test_veronese_report(capsys):
    code = run(
        [
            "veronese",
            "--group",
            str(FIXTURES / "minus-identity.json"),
            "--m",
            "2",
            "--max-degree",
            "12",
        ]
    )
    assert code == EXIT_OK
    payload = _capture(capsys)
    assert payload["hilbert"][:4] == [1, 3, 5, 7]
    assert payload["standard_graded"]["standard"] is True


def test_transfer_check(capsys):
    code = run(
        [
            "transfer-check",
            "--group",
            str(FIXTURES / "s3.json"),
            "--subgroup",
            str(FIXTURES / "a3.json"),
            "--p",
            "3",
            "--max-degree",
            "4",
        ]
    )
    assert code == EXIT_OK
    payload = _capture(capsys)
    assert payload["splitting_identity"] is True
    assert payload["checked"] > 0



def test_failed_transfer_is_a_refuted_claim(monkeypatch, capsys):
    # a transfer that doubles every invariant fixes none of them
    monkeypatch.setattr("invring.invariants.transfer", lambda f, G, H: f + f)
    argv = ["transfer-check", "--group", str(FIXTURES / "s3.json"),
            "--subgroup", str(FIXTURES / "a3.json"), "--max-degree", "2"]
    assert run(argv) == EXIT_CLAIM_FAILED
    payload = _capture(capsys)
    assert payload["splitting_identity"] is False
    assert payload["checked"] == len(payload["failures"]) == 4
    assert payload["failures"] == [
        {"degree": 0, "poly": "1"},
        {"degree": 1, "poly": "X + Y + Z"},
        {"degree": 2, "poly": "X^2 + Y^2 + Z^2"},
        {"degree": 2, "poly": "X*Y + X*Z + Y*Z"},
    ]

def test_cohomology_lemma_fuzz(capsys):
    code = run(
        [
            "cohomology",
            "verify-lemma-g2",
            "--p",
            "2",
            "--rank",
            "3",
            "--trials",
            "50",
            "--seed",
            "0",
        ]
    )
    assert code == EXIT_OK
    assert _capture(capsys)["holds"] is True


def test_cohomology_verify_h1_zero(capsys):
    assert run(["cohomology", "verify-h1-zero"]) == EXIT_OK
    assert _capture(capsys)["holds"] is True


def test_cohomology_compute(capsys):
    code = run(
        [
            "cohomology",
            "compute",
            "--group",
            str(FIXTURES / "minus-identity.json"),
            "--i",
            "2",
            "--max-degree",
            "4",
        ]
    )
    assert code == EXIT_OK
    payload = _capture(capsys)
    assert payload["pieces"][2] == {
        "degree": 2,
        "i": 2,
        "free_rank": 0,
        "torsion": [2, 2, 2],
    }


def test_dedekind_factor(capsys):
    code = run(["dedekind", "factor", "--d", "-1", "--element", "5"])
    assert code == EXIT_OK
    payload = _capture(capsys)
    assert [e["coeff"] for e in payload["divisor"]] == [1, 1]


def test_dedekind_class_group(capsys):
    code = run(["dedekind", "class-group", "--d", "-5"])
    assert code == EXIT_OK
    assert _capture(capsys)["invariant_factors"] == [2]


def test_dedekind_div_check(capsys):
    code = run(["dedekind", "div-check", "--d", "-5", "--count", "25", "--seed", "1"])
    assert code == EXIT_OK
    assert _capture(capsys)["holds"] is True


def test_lemma_suite(capsys):
    code = run(["lemma-suite", "--trials", "5"])
    assert code == EXIT_OK
    payload = _capture(capsys)
    assert all(payload["results"].values())


def test_unknown_subcommand_exits_2(capsys):
    assert run(["not-a-command"]) == EXIT_USAGE


def test_missing_group_file_exits_2(capsys):
    assert run(["invariants", "--group", "/nonexistent.json"]) == EXIT_USAGE


def test_malformed_group_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "coefficients": "Z"}')
    assert run(["invariants", "--group", str(bad)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "generators" in err


def test_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["invariants", "--group", str(bad)]) == EXIT_USAGE


ARRAY_GROUP = "<array-group>"
# group files that are not a list of n x n integer or string matrices, and
# one over Q, which has no fibre mod p to certify
MALFORMED_GROUPS = {
    "<fractional-entry>": '{"n": 2, "coefficients": "Z", "generators": [[[0, 1], [1.9, 0]]]}',
    "<bool-entry>": '{"n": 2, "coefficients": "Z", "generators": [[[0, true], [1, 0]]]}',
    "<scalar-generators>": '{"n": 2, "coefficients": "Z", "generators": 5}',
    "<flat-generators>": '{"n": 2, "coefficients": "Z", "generators": [[0, 1], [1, 0]]}',
    "<null-n>": '{"n": null, "coefficients": "Z", "generators": []}',
    "<zero-denominator>": '{"n": 2, "coefficients": "Q", "generators": [[["1/0", 1], [1, 0]]]}',
    "<rot3-over-Q>": '{"n": 2, "coefficients": "Q", "generators": [[[0, -1], [1, -1]]]}',
}
GROUP_FILES = {ARRAY_GROUP: "[[[0, 1], [1, 0]]]", **MALFORMED_GROUPS}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dedekind", "class-group", "--d", "7"], "no fundamental-unit fixture"),
        (["dedekind", "factor", "--d", "-1"], "--element is required"),
        (["invariants", "--group", ARRAY_GROUP], "JSON object"),
        (
            ["transfer-check", "--group", ARRAY_GROUP, "--subgroup", str(FIXTURES / "a3.json")],
            "JSON object",
        ),
        (
            [
                "transfer-check",
                "--group",
                str(FIXTURES / "a3.json"),
                "--subgroup",
                str(FIXTURES / "s3.json"),
            ],
            "not a subgroup",
        ),
        (
            [
                "transfer-check",
                "--group",
                str(FIXTURES / "s3.json"),
                "--subgroup",
                str(FIXTURES / "a3.json"),
                "--p",
                "2",
            ],
            "not a unit",
        ),
        (["cohomology", "periodicity", "--p", "5"], "p = 2 and 3"),
        (["invariants", "--group", "<fractional-entry>"], "entry 1.9 is neither"),
        (["invariants", "--group", "<bool-entry>"], "entry true is neither"),
        (["invariants", "--group", "<scalar-generators>"], "'generators' must be a list"),
        (["invariants", "--group", "<flat-generators>"], "generator [0, 1] is not a list"),
        (["invariants", "--group", "<null-n>"], "field 'n' must be an integer, not null"),
        (["invariants", "--group", "<zero-denominator>"], "zero denominator in '1/0'"),
        (["cohomology", "periodicity", "--trials", "-1"], "--trials: must be at least 1"),
        (["lemma-suite", "--trials", "-3"], "--trials: must be at least 1"),
        (["dedekind", "div-check", "--d", "-5", "--count", "-2"], "--count: must be at least 1"),
        (
            ["cm-search", "--group", str(FIXTURES / "rot3.json"), "--l-max", "0"],
            "--l-max: must be at least 1",
        ),
        (["cohomology", "verify-lemma-g2", "--rank", "0"], "--rank: must be at least 1"),
        (
            [
                "transfer-check",
                "--group",
                str(FIXTURES / "s3.json"),
                "--subgroup",
                str(FIXTURES / "a3.json"),
                "--p",
                "3",
                "--max-degree",
                "-1",
            ],
            "--max-degree: must be at least 1",
        ),
        (["cohomology", "verify-h1-zero", "--max-degree", "-1"], "--max-degree: must be at least 1"),
        (
            ["dedekind", "factor", "--d", "-5", "--element", "w*w"],
            "cannot parse element 'w*w'",
        ),
        (
            [
                "transfer-check",
                "--group",
                str(FIXTURES / "s3.json"),
                "--subgroup",
                str(FIXTURES / "a3.json"),
                "--p",
                "0",
            ],
            "Zlocal needs a prime p, got 0",
        ),
        (
            [
                "gorenstein",
                "--group",
                str(FIXTURES / "swap.json"),
                "--l",
                "1",
                "--max-degree",
                "1",
            ],
            "numerator still nonzero",
        ),
        (
            ["dedekind", "div-check", "--d", "-5", "--element", "1+w"],
            "takes a rational integer, not '1+w'",
        ),
        (
            ["dedekind", "div-check", "--d", "-5", "--element", ""],
            "'dedekind div-check' takes a rational integer, not ''",
        ),
        (["cohomology", "compute"], "--group is required for 'cohomology compute'"),
        (
            ["cm-search", "--group", "<rot3-over-Q>", "--l-max", "3", "--max-degree", "6"],
            "reduction mod p expects integer coefficients",
        ),
    ],
    ids=[
        "real-d-class-group",
        "factor-without-element",
        "array-group-file",
        "array-group-file-transfer-check",
        "subgroup-not-contained",
        "transfer-index-not-invertible",
        "periodicity-unsupported-prime",
        "fractional-entry",
        "bool-entry",
        "scalar-generators",
        "flat-generators",
        "null-n",
        "zero-denominator-entry",
        "periodicity-negative-trials",
        "lemma-suite-negative-trials",
        "div-check-negative-count",
        "cm-search-zero-l-max",
        "lemma-g2-zero-rank",
        "transfer-check-negative-max-degree",
        "h1-zero-negative-max-degree",
        "factor-element-w-times-w",
        "transfer-check-zero-p",
        "gorenstein-truncation-too-short",
        "div-check-element-not-integer",
        "div-check-empty-element",
        "compute-without-group",
        "cm-search-over-q",
    ],
)
def test_bad_input_exits_2_without_output(argv, message, tmp_path, capsys):
    for i, (placeholder, text) in enumerate(GROUP_FILES.items()):
        path = tmp_path / f"group{i}.json"
        path.write_text(text)
        argv = [str(path) if a == placeholder else a for a in argv]
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("placeholder", list(GROUP_FILES), ids=lambda name: name.strip("<>"))
def test_gorenstein_bad_group_exits_2_without_output(placeholder, tmp_path, capsys):
    # every group file the other commands refuse is bad input to gorenstein
    # too: exit 2, never a refuted claim (1) or an internal error (3)
    path = tmp_path / "group.json"
    path.write_text(GROUP_FILES[placeholder])
    argv = ["gorenstein", "--group", str(path), "--l", "2", "--max-degree", "8"]
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(ring):
        raise RuntimeError("bookkeeping failed")

    monkeypatch.setattr("invring.quadratic.class_group", broken)
    assert run(["dedekind", "class-group", "--d", "-5"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: RuntimeError: bookkeeping failed" in captured.err


@pytest.mark.parametrize("error", [KeyError, RuntimeError])
def test_handler_error_exits_3(error, monkeypatch, capsys):
    """Only ValueError and OSError mean bad input; a KeyError is a bug."""

    def broken(args):
        raise error(args.d)

    monkeypatch.setattr("invring.cli._cmd_dedekind", broken)
    assert run(["dedekind", "class-group", "--d", "-5"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"internal error: {error.__name__}: -5" in captured.err


def test_library_exceptions_are_value_errors():
    """run() sends ValueError to exit 2, and library callers catch input
    errors with except ValueError, so every exception class that an invring
    module defines must be one."""
    defined = [
        cls
        for info in pkgutil.iter_modules(invring.__path__)
        for cls in vars(importlib.import_module(f"invring.{info.name}")).values()
        if isinstance(cls, type)
        and issubclass(cls, Exception)
        and cls.__module__ == f"invring.{info.name}"
    ]
    assert {"BoundExceeded", "ZeroElement", "PreconditionViolated"} <= {
        cls.__name__ for cls in defined
    }
    assert [cls.__name__ for cls in defined if not issubclass(cls, ValueError)] == []


def test_text_and_tsv_formats(capsys):
    assert (
        run(
            [
                "dedekind",
                "class-group",
                "--d",
                "-1",
                "--format",
                "text",
            ]
        )
        == EXIT_OK
    )
    out = capsys.readouterr().out
    assert "invariant_factors" in out
    assert (
        run(["dedekind", "class-group", "--d", "-1", "--format", "tsv"]) == EXIT_OK
    )
    out = capsys.readouterr().out
    assert "\t" in out


def test_gorenstein_command(capsys):
    code = run(
        [
            "gorenstein",
            "--group",
            str(FIXTURES / "minus-identity.json"),
            "--l",
            "2",
            "--max-degree",
            "12",
        ]
    )
    assert code == EXIT_OK
    payload = _capture(capsys)
    assert payload["symmetric"] is True


def test_cm_search_over_zlocal_calls_unit_primes_vacuous(tmp_path, capsys):
    # over Z_(5) the prime 3 dividing |rot3| is a unit, so S/3S = 0
    group = tmp_path / "rot3-z5.json"
    group.write_text('{"n": 2, "coefficients": "Z_(5)", "generators": [[[0, -1], [1, -1]]]}')
    argv = ["cm-search", "--group", str(group), "--l-max", "3", "--max-degree", "6"]
    assert run(argv) == EXIT_OK
    attempts = _capture(capsys)["attempts"]
    assert attempts[2]["l"] == 3
    assert attempts[2]["primes"] == {
        "3": {"status": "vacuous", "D": 2, "sop_degrees": [], "parameters": []}
    }



def test_cm_search_reports_a_failed_certificate_and_exits_0(monkeypatch, capsys):
    # a failed regularity check on a searched system refutes nothing
    from dataclasses import replace

    from invring import cmcert

    real = cmcert.regular_sequence_certificate

    def failing(Sbar, thetas):
        return replace(real(Sbar, thetas), status="failed", failed_stage=1, failed_degree=2)

    monkeypatch.setattr("invring.cmcert.regular_sequence_certificate", failing)
    argv = ["cm-search", "--group", str(FIXTURES / "minus-identity.json"),
            "--l-max", "2", "--max-degree", "4"]
    assert run(argv) == EXIT_OK
    payload = _capture(capsys)
    assert payload["first_certified_l"] is None
    cell = payload["attempts"][1]["primes"]["2"]
    assert (cell["status"], cell["failed_stage"], cell["failed_degree"]) == ("failed", 1, 2)
    assert cell["sop_degrees"] == [1, 1]


@pytest.mark.parametrize(
    "text, el",
    [("w", (0, 1)), ("-w", (0, -1)), ("2*w", (0, 2)), ("5 + w", (5, 1)),
     ("3 - 2*w", (3, -2)), ("-4 - 3*w", (-4, -3))],
)
def test_dedekind_factor_prints_elements_parse_element_reads(text, el, capsys):
    from invring.quadratic import parse_element

    assert parse_element(text) == el
    # "=" keeps argparse from reading "-w" as an option
    assert run(["dedekind", "factor", "--d", "-1", f"--element={text}"]) == EXIT_OK
    printed = _capture(capsys)["element"]
    assert printed == text and parse_element(printed) == el


def test_empty_element_is_bad_input(capsys):
    from invring.quadratic import parse_element

    with pytest.raises(ValueError, match="empty element"):
        parse_element("")
    assert run(["dedekind", "factor", "--d", "-1", "--element", ""]) == EXIT_USAGE
    assert "empty element" in capsys.readouterr().err

# small arguments for every subcommand and verb of the parser
SMALL_RUNS = {
    ("invariants",): ["--group", str(FIXTURES / "swap.json"), "--max-degree", "4"],
    ("veronese",): [
        "--group", str(FIXTURES / "minus-identity.json"), "--m", "2", "--max-degree", "4"
    ],
    ("transfer-check",): [
        "--group", str(FIXTURES / "s3.json"), "--subgroup", str(FIXTURES / "a3.json"),
        "--p", "3", "--max-degree", "2",
    ],
    ("cohomology", "compute"): ["--group", str(FIXTURES / "rot3.json"), "--max-degree", "2"],
    ("cohomology", "verify-lemma-g2"): ["--rank", "2", "--trials", "3"],
    ("cohomology", "verify-h1-zero"): [],
    ("cohomology", "periodicity"): ["--p", "3", "--trials", "3"],
    ("cm-search",): [
        "--group", str(FIXTURES / "minus-identity.json"), "--l-max", "2", "--max-degree", "4"
    ],
    ("gorenstein",): [
        "--group", str(FIXTURES / "minus-identity.json"), "--l", "2", "--max-degree", "8"
    ],
    ("dedekind", "factor"): ["--d", "-1", "--element", "5"],
    ("dedekind", "class-group"): ["--d", "-5"],
    ("dedekind", "div-check"): ["--d", "-5", "--count", "3"],
    ("lemma-suite",): ["--trials", "2"],
}


def _parser_commands():
    """(subcommand,) or (subcommand, verb) for everything build_parser offers."""
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in subs.choices.items():
        verbs = next((a.choices for a in sub._actions if a.dest == "verb"), None)
        yield from ((name, verb) for verb in verbs) if verbs else [(name,)]


@pytest.mark.parametrize("command", list(_parser_commands()), ids="-".join)
def test_every_command_runs(command, capsys):
    # a subcommand or verb the parser offers must run, so none goes unexercised
    if command not in SMALL_RUNS:
        pytest.fail(f"no small run for {' '.join(command)}: add one to SMALL_RUNS")
    assert run([*command, *SMALL_RUNS[command]]) == EXIT_OK
    assert _capture(capsys)["seed"] == 0


def test_small_runs_name_only_parser_commands():
    assert set(SMALL_RUNS) == set(_parser_commands())
