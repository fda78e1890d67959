"""CLI dispatch, exit codes, and report determinism."""

import json
import pathlib

import pytest

from invring.cli import EXIT_CLAIM_FAILED, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, run

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
# group files that are not a list of n x n integer or string matrices
MALFORMED_GROUPS = {
    "<fractional-entry>": '{"n": 2, "coefficients": "Z", "generators": [[[0, 1], [1.9, 0]]]}',
    "<bool-entry>": '{"n": 2, "coefficients": "Z", "generators": [[[0, true], [1, 0]]]}',
    "<scalar-generators>": '{"n": 2, "coefficients": "Z", "generators": 5}',
    "<flat-generators>": '{"n": 2, "coefficients": "Z", "generators": [[0, 1], [1, 0]]}',
    "<null-n>": '{"n": null, "coefficients": "Z", "generators": []}',
}


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
    ],
)
def test_bad_input_exits_2_without_output(argv, message, tmp_path, capsys):
    files = {ARRAY_GROUP: "[[[0, 1], [1, 0]]]", **MALFORMED_GROUPS}
    for i, (placeholder, text) in enumerate(files.items()):
        path = tmp_path / f"group{i}.json"
        path.write_text(text)
        argv = [str(path) if a == placeholder else a for a in argv]
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(ring):
        raise RuntimeError("bookkeeping failed")

    monkeypatch.setattr("invring.cli.class_group", broken)
    assert run(["dedekind", "class-group", "--d", "-5"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: RuntimeError: bookkeeping failed" in captured.err


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
