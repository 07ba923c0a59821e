"""Every module of the package, the tests and the scripts uses each name it
imports at module level, and every name the benchmark tracer wraps exists."""
import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# package modules go by file name, the others by their path from the root
MODULES = [pytest.param(p, id=p.name) for p in sorted(ROOT.glob("src/bcst/*.py"))
           if p.name != "__init__.py"]
MODULES += [pytest.param(p, id=p.relative_to(ROOT).as_posix())
            for p in sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("scripts/*.py"))]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a.b import c, d as e\n"
                          "print(sys, e)\n") == ["os", "c"]


@pytest.mark.parametrize("path", MODULES)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_traced_name_resolves_in_the_package():
    # perfbench/tracer.py wraps each (module, name) of TRACED under --trace 1;
    # a cut that deletes or renames one fails here rather than only there
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "TRACED")
    missing = [f"{module}.{name}" for module, name in traced
               if not hasattr(importlib.import_module(f"bcst.{module}"), name)]
    assert len(traced) > 30 and missing == []
