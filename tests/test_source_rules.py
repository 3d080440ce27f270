"""Rules the package's source keeps, checked on the syntax tree of each module."""

import ast
import importlib
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


def _numpy_fft_lines(tree: ast.AST) -> list[int]:
    """Lines that import ``numpy.fft`` or read it as ``np.fft`` or ``numpy.fft``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{'numpy' if node.value.id == 'np' else node.value.id}.{node.attr}"]
        else:
            continue
        if any(name == "numpy.fft" or name.startswith("numpy.fft.") for name in names):
            lines.append(node.lineno)
    return lines


def test_numpy_fft_is_read_only_in_source():
    # every other transform is scipy.fft's; source keeps numpy's irfft for its full-length
    # records, where scipy's holds one more record-sized buffer (30 MB at 4e6 samples)
    uses = {path.name: _numpy_fft_lines(ast.parse(path.read_text())) for path in MODULES}
    assert [name for name, lines in uses.items() if lines] == ["source.py"]


def test_every_export_resolves():
    # a deleted function leaves no name behind in an __all__
    modules = [importlib.import_module("twinbeam" if path.stem == "__init__" else
                                       f"twinbeam.{path.stem}") for path in MODULES]
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert stale == []
