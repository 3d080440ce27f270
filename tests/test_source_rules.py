"""Rules the package's source keeps, checked on the syntax tree of each module."""

import ast
from pathlib import Path

import twinbeam

MODULES = sorted(Path(twinbeam.__file__).parent.glob("*.py"))


def _spelled(node: ast.AST):
    """The identifier or string a node spells: a name, attribute, keyword, import or constant."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.keyword, ast.arg)):
        return node.arg
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _modules_spelling(word: str) -> list[str]:
    return [path.name for path in MODULES
            if any(_spelled(node) == word for node in ast.walk(ast.parse(path.read_text())))]


def test_finfo_is_read_only_in_trace():
    # trace owns the float64 capacity rule (holds_mean); no other module restates it
    assert _modules_spelling("finfo") == ["trace.py"]


def test_bit_depth_is_gone():
    # every record is 8-bit: no config key, field or header entry names a bit depth
    assert _modules_spelling("bit_depth") == []
