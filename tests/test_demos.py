"""Every name a demo imports from rectiflow exists.

The demos are parsed, not run, so this stays fast; it catches a demo left
behind by a renamed or removed public name.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _rectiflow_imports(path: Path):
    """(module, name) for each `from rectiflow... import name`, and
    (module, None) for each `import rectiflow...`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "rectiflow":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "rectiflow":
                    yield alias.name, None


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    imports = list(_rectiflow_imports(path))
    assert imports, f"{path.name} imports nothing from rectiflow"
    missing = []
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and name != "*" and not hasattr(mod, name):
            missing.append(f"{module}.{name}")
    assert not missing, f"{path.name} imports names that do not exist: {missing}"
