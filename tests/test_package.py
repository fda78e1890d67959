"""The package loads its submodules on first use.

Each check runs in a fresh interpreter, because the pytest process has
already imported every module.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SWAP = ROOT / "fixtures" / "groups" / "swap.json"


def _fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules_after(argv) -> tuple[int, set[str]]:
    """Exit code of invring.cli.run(argv) and the modules the process holds."""
    out = _fresh(
        "import contextlib, io, json, sys\n"
        "from invring.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = run({argv!r})\n"
        "print(json.dumps([code, list(sys.modules)]))\n"
    )
    code, modules = json.loads(out)
    return code, set(modules)


def _invring_modules_after(argv) -> tuple[int, set[str]]:
    code, modules = _modules_after(argv)
    return code, {m for m in modules if m.startswith("invring")}


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (
            ["dedekind", "class-group", "--d", "-5"],
            {"groups", "poly", "invariants", "cmcert", "cohomology", "fixtures"},
        ),
        (
            ["invariants", "--group", str(SWAP), "--max-degree", "4"],
            {"cmcert", "quadratic", "cohomology", "fixtures"},
        ),
    ],
    ids=["dedekind-class-group", "invariants"],
)
def test_command_imports_only_what_it_runs(argv, unloaded):
    code, modules = _invring_modules_after(argv)
    assert code == 0
    assert not modules & {f"invring.{m}" for m in unloaded}


def test_version_imports_no_submodule_but_cli():
    assert _invring_modules_after(["--version"]) == (0, {"invring", "invring.cli"})


@pytest.mark.parametrize(
    "argv, reads_group",
    [
        (["--version"], False),
        (["dedekind", "class-group", "--d", "-5"], False),
        (["invariants", "--group", str(SWAP), "--max-degree", "4"], True),
    ],
    ids=["version", "dedekind-class-group", "invariants"],
)
def test_command_skips_dataclasses_inspect_and_unread_hashlib(argv, reads_group):
    # against a bare interpreter, so that what site packages load at start-up
    # does not count
    bare = set(_fresh("import sys; print(*sys.modules)").split())
    code, modules = _modules_after(argv)
    assert code == 0
    added = modules - bare
    assert not added & {"dataclasses", "inspect"}
    assert reads_group or "hashlib" not in added


def test_public_names_resolve_lazily():
    _fresh(
        """
import importlib, sys
import invring

def loaded():
    return {m for m in sys.modules if m.startswith("invring")}

assert loaded() == {"invring"}, loaded()

# loading the submodule cohomology must not hide the function cohomology
import invring.fixtures
assert invring.cohomology is sys.modules["invring.cohomology"].cohomology
import invring.cohomology
assert callable(invring.cohomology)
assert invring.cohomology is sys.modules["invring.cohomology"].cohomology

for name in invring.__all__:
    home = invring if name == "__version__" else importlib.import_module(
        f"invring.{invring._HOME[name]}"
    )
    assert getattr(invring, name) is getattr(home, name), name

assert not hasattr(invring, "no_such_name")
assert set(invring.__all__) <= set(dir(invring))

namespace = {}
exec("from invring import *", namespace)
assert all(namespace[name] is getattr(invring, name) for name in invring.__all__)
"""
    )
