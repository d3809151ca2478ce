"""The public surface: every module's ``__all__`` resolves, no module
imports one of a later stage, and the demos and the README import only
names that ``fdjam`` exports."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import fdjam

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["fdjam"] + [f"fdjam.{m.name}" for m in pkgutil.iter_modules(fdjam.__path__)]


# The fdjam modules each stage imports: params is the base, and no module
# imports one of a later stage.  cli and the package itself sit on top.
STAGES = {
    "params": set(),
    "analytics": {"params"},
    "optimizer": {"analytics", "params"},
    "online": {"params"},
    "sim": {"online", "params"},
    "config": {"params"},
}


def test_no_module_imports_a_later_stage():
    imports = {}
    for path in sorted((ROOT / "src" / "fdjam").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # every relative import, under ``if TYPE_CHECKING:`` and in functions too
        imports[path.stem] = {node.module or "__init__" for node in ast.walk(tree)
                              if isinstance(node, ast.ImportFrom) and node.level}
    assert {m: imports[m] for m in STAGES} == STAGES
    assert set(imports) == set(STAGES) | {"__init__", "cli"}


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []


def _imported_from_fdjam(source):
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "fdjam"
            for alias in node.names]


def test_demos_and_readme_import_only_exported_names():
    names = []
    for demo in sorted((ROOT / "demos").glob("*.py")):
        names += _imported_from_fdjam(demo.read_text(encoding="utf-8"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", readme, flags=re.S):
        names += _imported_from_fdjam(block)
    assert "optimize" in names and "decide" in names
    assert sorted(set(names) - set(fdjam.__all__)) == []
