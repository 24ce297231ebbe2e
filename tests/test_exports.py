import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qupel

MODULES = ["qupel"] + [f"qupel.{m.name}" for m in pkgutil.iter_modules(qupel.__path__)]
SRC = Path(qupel.__file__).resolve().parent
TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _used_names() -> set[str]:
    """Every name loaded in ``src/qupel`` (a bare name or an attribute), every name that
    ``qupel/__init__.py`` imports, and every name in the benchmark's span table."""
    used = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                used.update(alias.asname or alias.name for alias in node.names)
    for node in ast.parse(TRACED.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]:
            for _, attr in ast.literal_eval(node.value).values():
                used.update(attr.split("."))
    return used


def test_every_exported_name_has_a_user():
    # a public function that no qupel code runs, the package does not export and the
    # benchmark does not time is a dead twin of code that runs
    used = _used_names()
    unused = [f"{name}.{attr}" for name in MODULES
              for attr in getattr(importlib.import_module(name), "__all__", ())
              if attr not in used]
    assert unused == []
