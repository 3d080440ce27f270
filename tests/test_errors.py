import ast
import builtins
from pathlib import Path

import pytest

import twinbeam
import twinbeam.cli as cli
from twinbeam.cli import main
from twinbeam.errors import (
    ConfigError,
    DataError,
    FitError,
    InvalidParams,
    RecordTooShort,
    TwinbeamError,
)

PACKAGE = Path(twinbeam.__file__).parent
KEPT = {"TwinbeamError", "ConfigError", "InvalidParams", "RecordTooShort", "DataError",
        "FitError"}


def _exception_classes(path: Path, known: set) -> set:
    """Names of the classes ``path`` defines that derive from a name in ``known``."""
    classes = [node for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)]
    found: set = set()
    grew = True
    while grew:   # a class may derive from one defined below it
        grew = False
        for node in classes:
            bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                     for b in node.bases}
            if node.name not in found and bases & (known | found):
                found.add(node.name)
                grew = True
    return found


class TestErrorClasses:
    def test_one_class_per_exit_code_all_in_errors_module(self):
        builtin = {name for name, obj in vars(builtins).items()
                   if isinstance(obj, type) and issubclass(obj, BaseException)}
        assert _exception_classes(PACKAGE / "errors.py", builtin) == KEPT
        for path in sorted(PACKAGE.glob("*.py")):
            if path.name != "errors.py":
                assert _exception_classes(path, builtin | KEPT) == set(), path.name


class TestExitCodes:
    @pytest.mark.parametrize("exc, code, err", [
        (ConfigError("bad"), 2, "config error: bad"),
        (InvalidParams("bad"), 2, "config error: bad"),
        (RecordTooShort("bad", 10), 2, "config error: bad"),
        (DataError("bad"), 3, "data error: bad"),
        (FitError("bad"), 4, "fit error: bad"),
        (TwinbeamError("bad"), 3, "error: bad"),
        (OSError("bad"), 3, "io error: bad"),
    ])
    def test_each_kept_class_maps_to_its_code(self, exc, code, err, monkeypatch, capsys):
        def command(args):
            raise exc
        monkeypatch.setattr(cli, "_cmd_oracle_check", command)
        assert main(["oracle-check"]) == code
        assert capsys.readouterr().err == err + "\n"
