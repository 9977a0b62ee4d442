"""Every function and method defined in the library has a caller.

The `.py` files under src/, tests/, demos/ and bench/ are parsed with
`ast`; a function or method of `src/fiberfull` counts as used when its name
occurs as an `ast.Name`, an `ast.Attribute` or an import anywhere outside its
own `def`.  Dunders are called by the interpreter, and a method overriding a
base class method is called through the base class, so both are exempt.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "demos", "bench")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _references(node):
    """Count of the names a subtree references."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rsplit(".", 1)[-1]] += 1
    return names


def _definitions(path, tree):
    """(name, def node) for every top-level function and every method that
    neither is a dunder nor overrides a method of a base class."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            module = importlib.import_module("fiberfull." + path.stem)
            bases = getattr(module, node.name).__mro__[1:]
            for item in node.body:
                if not isinstance(item, FUNCTIONS):
                    continue
                if item.name.startswith("__") and item.name.endswith("__"):
                    continue
                if any(item.name in vars(base) for base in bases):
                    continue
                yield item.name, item


def dead_names(root=ROOT):
    """``path:line name`` of every library function nothing refers to."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for top in TREES for path in sorted((root / top).rglob("*.py"))}
    total = Counter()
    for tree in trees.values():
        total.update(_references(tree))
    dead = []
    for path in sorted((root / "src" / "fiberfull").glob("*.py")):
        for name, node in _definitions(path, trees[path]):
            if total[name] - _references(node)[name] <= 0:
                dead.append("%s:%d %s" % (path.relative_to(root), node.lineno, name))
    return dead


def test_every_library_function_has_a_caller():
    assert dead_names() == []
