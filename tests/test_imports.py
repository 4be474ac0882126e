"""Every name a module of the package imports is used in it.

No linter runs on the package, so this stands in for the unused-import
rule: a name counts as used when the module reads it anywhere (a load,
an attribute base or an annotation) or lists it in ``__all__``.
``__init__.py`` only re-exports, so it is exempt.  The package binds no
function under a submodule's name, so ``import hopca.<module> as m``
binds the module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hopca"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_detects_an_unused_import():
    source = "import os\nfrom math import pi, tau\n__all__ = ['tau']\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_import_as_binds_the_submodule():
    import hopca.simulate as hs
    import hopca.tensor3 as t3

    assert hs.SimScenarioSpec.__module__ == "hopca.simulate"
    assert t3.check_tensor3.__module__ == "hopca.tensor3"
