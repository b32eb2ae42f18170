"""Every name a demo imports from rectiflow exists, and every demo runs.

The import check catches a demo left behind by a renamed or removed public
name. Each demo also runs end to end in its own temporary working
directory: 01-04 take about a second each, and demo 05 (about 5 s) builds
its face masks through the same function as `rectiflow synth`.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


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


def test_video_adaptation_demo_runs(tmp_path):
    src = str(REPO / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(REPO / "demos" / "05_video_adaptation.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "demo_out" / "adaptation" / "loss_history.csv").is_file()


QUICK_DEMOS = [p for p in DEMOS if not p.name.startswith("05_")]


@pytest.mark.parametrize("path", QUICK_DEMOS, ids=[p.name for p in QUICK_DEMOS])
def test_demo_runs(tmp_path, path):
    src = str(REPO / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
