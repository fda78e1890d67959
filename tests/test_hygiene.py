"""Dead-code guards over the package sources.

Dead names: a function, class or constant defined at the top level of a
module under src/invring must be referenced somewhere in src/ or tests/
besides its own definition, unless it is exported through invring.__all__.

Dead parameters: every parameter of every function or lambda under
src/invring, other than self and cls, must be read in its body.

Unset options: every parameter with a default, in every def under
src/invring, must be passed by some call in src/ or tests/, by keyword or
by position.  Calls are matched by name; a class name stands for its
__init__.

Unread exports: every name in invring.__all__ is read somewhere in src/,
perfbench/ or the README, other than in its own definition and the export
table.

Exact arithmetic: no float literal, float() call or floating math
function or constant under src/invring, except in fixtures.py, whose
float thresholds only steer seeded draws.

Fixture drift: the built-in group table equals fixtures/groups/*.json.

Version drift: invring.__version__, which --version and every report print,
equals the [project] version in pyproject.toml, which the wheel carries.
"""

import ast
import json
import math
import pathlib
import re

import invring
from invring.fixtures import GROUP_GENERATORS

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "invring"


def _defined_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def _referenced_names(tree: ast.AST) -> set[str]:
    """Names read, attributes accessed, and names imported."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_no_dead_module_level_names():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    referenced = set().union(*(_referenced_names(tree) for tree in trees.values()))
    dead = [
        f"{path.name}:{name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name in _defined_names(tree)
        if name not in referenced and name not in invring.__all__
    ]
    assert not dead, f"module-level names used nowhere: {dead}"


def test_every_export_is_read():
    # the export table lists names as strings, which _referenced_names skips
    read = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            own = set(_defined_names(ast.Module(body=[node], type_ignores=[])))
            read |= _referenced_names(node) - own
    unread = [name for name in invring.__all__ if name not in read]
    assert not unread, f"exported names nothing reads: {unread}"


def _unread_parameters(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        unread += [
            f"{path.name}:{name}({arg.arg})"
            for arg in params
            if arg is not None and arg.arg not in ("self", "cls") and arg.arg not in read
        ]
    return unread


def test_no_unread_parameters():
    unread = [u for path in sorted(PACKAGE.glob("*.py")) for u in _unread_parameters(path)]
    assert not unread, f"parameters never read: {unread}"


def _options(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, positional slot or None) for each parameter
    with a default; slots of a method do not count self or cls."""
    init_owner = {
        id(item): node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "__init__"
    }
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        name = init_owner.get(id(node), node.name)
        positional = [*a.posonlyargs, *a.args]
        skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
        first = len(positional) - len(a.defaults)
        out += [(name, arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
        out += [
            (name, arg.arg, None)
            for arg, default in zip(a.kwonlyargs, a.kw_defaults)
            if default is not None
        ]
    return out


def _passed(trees) -> tuple[dict[str, float], dict[str, set[str | None]]]:
    """Per callee name: the most positional arguments any call passes
    (infinite with *args) and the keywords passed (None for **kwargs)."""
    positional: dict[str, float] = {}
    keywords: dict[str, set[str | None]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            count = math.inf if starred else len(node.args)
            positional[name] = max(positional.get(name, 0), count)
            keywords.setdefault(name, set()).update(kw.arg for kw in node.keywords)
    return positional, keywords


def _unset_options(package: pathlib.Path, callers) -> list[str]:
    positional, keywords = _passed(ast.parse(path.read_text()) for path in callers)
    unset = []
    for path in sorted(package.glob("*.py")):
        for name, param, slot in _options(ast.parse(path.read_text())):
            kws = keywords.get(name, set())
            if param in kws or None in kws:
                continue
            if slot is not None and positional.get(name, 0) > slot:
                continue
            unset.append(f"{path.name}:{name}({param})")
    return unset


def test_no_unset_options():
    callers = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unset = _unset_options(PACKAGE, callers)
    assert not unset, f"options no call passes: {unset}"


FLOAT_MATH = {"sqrt", "log", "exp", "pi", "e"}


def _float_uses(path: pathlib.Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        uses = []
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            uses = [f"literal {node.value!r}"]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            uses = ["float()"]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in FLOAT_MATH
        ):
            uses = [f"math.{node.attr}"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            uses = [f"math.{a.name}" for a in node.names if a.name in FLOAT_MATH]
        found += [f"{path.name}:{node.lineno}: {use}" for use in uses]
    return found


def test_no_floats_in_the_arithmetic():
    uses = [
        use
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "fixtures.py"
        for use in _float_uses(path)
    ]
    assert not uses, f"floating-point arithmetic in src/invring: {uses}"


def test_group_fixture_files_match_generators():
    files = {
        path.stem: json.loads(path.read_text())
        for path in (ROOT / "fixtures" / "groups").glob("*.json")
    }
    assert files == GROUP_GENERATORS


def test_version_matches_the_project_table():
    # by pattern, since tomllib is missing on Python 3.10
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    (version,) = re.findall(r'^version\s*=\s*"([^"]*)"', project, re.M)
    assert invring.__version__ == version
