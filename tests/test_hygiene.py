"""Dead-code guards over the package sources.

Dead names: a function, class or constant defined at the top level of a
module under src/invring must be referenced somewhere in src/ or tests/
besides its own definition, unless it is exported through invring.__all__.

Dead parameters: every parameter of every function or lambda under
src/invring, other than self and cls, must be read in its body.
"""

import ast
import pathlib

import invring

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
