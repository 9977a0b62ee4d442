"""The term-vector format of the Groebner engine stays inside groebner.py:
no other library module names an engine function that takes or returns
term vectors, nor the ``marked`` term vectors of a basis.  A module's own
top-level function of the same name (such as the polynomial ``_monic`` of
rings.py) is not the engine's."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fiberfull"
ENGINE_NAMES = {"gb_engine", "_schreyer_level", "_lead_index", "_index_add", "_monic", "_spoly",
                "_interreduce", "_lead_degrees"}


def _is_engine_name(name):
    return name in ENGINE_NAMES or name.startswith("_tv_")


def _format_uses(tree):
    own = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and _is_engine_name(node.id) and node.id not in own:
            yield node.lineno, node.id
        elif isinstance(node, ast.alias) and _is_engine_name(node.name.split(".")[-1]):
            yield node.lineno, node.name
        elif isinstance(node, ast.Attribute) and (
                node.attr == "marked" or _is_engine_name(node.attr)):
            yield node.lineno, "." + node.attr


def test_only_groebner_names_the_term_vector_format():
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "groebner.py")
    assert sources
    outside = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        outside += ["%s:%d names %s" % (path.name, lineno, name)
                    for lineno, name in _format_uses(tree)]
    assert not outside, outside
