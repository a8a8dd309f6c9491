"""Every name a module of ``kj`` imports is used in it or listed in its
``__all__``, every private module-level function and class is named
somewhere in ``kj``, every method is named somewhere in the project, and no
module but ``rings`` uses true division. The standard library has no
linter, so this walks the syntax trees."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kj"


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = _used(tree)
        unused.extend(
            f"{path.name}:{line}: {name}"
            for name, line in _imported(tree)
            if name not in used
        )
    assert unused == []


def test_private_definitions_are_referenced():
    # a private module-level function or class that nothing else in kj names
    # is dead code a refactor left behind
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    named: dict[str, set[str]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.setdefault(node.id, set()).add(module)
            elif isinstance(node, ast.Attribute):
                named.setdefault(node.attr, set()).add(module)
            elif isinstance(node, ast.alias):
                named.setdefault(node.name, set()).add(module)
    orphans = [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not named.get(node.name)
    ]
    assert orphans == []


def _references(node) -> Counter:
    """Each name under ``node`` as an attribute, a name, or a word inside a
    string, with its count."""
    out: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.update(re.findall(r"\w+", n.value))
    return out


def test_methods_are_referenced():
    # a method that nothing in kj, the tests, the tools or the benchmark
    # names, outside its own def, is dead code a refactor left behind
    trees = {
        path: ast.parse(path.read_text())
        for folder in (SRC, ROOT / "tests", ROOT / "tools", ROOT / "perfbench")
        for path in sorted(folder.glob("*.py"))
    }
    named: Counter = Counter()
    for tree in trees.values():
        named.update(_references(tree))
    orphans = [
        f"{path.name}: {cls.name}.{node.name}"
        for path, tree in trees.items()
        if path.parent == SRC
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and named[node.name] == _references(node)[node.name]
    ]
    assert orphans == []


def test_only_rings_divides():
    # int / int is a float, so a field element may be divided only through
    # Ring.div, which keeps Q elements ints until a quotient leaves Z
    divisions = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "rings.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert divisions == []
