"""Source hygiene that no linter checks here: every module of the package
and of the tests reads each name it imports, the package imports only what
``pyproject.toml`` declares, and the public dataclasses' annotations
resolve."""

from __future__ import annotations

import ast
import dataclasses
import os
import pathlib
import re
import subprocess
import sys
import typing

import pytest

import genboot

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "genboot").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import but never read, nor listed in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_the_scan_finds_unused_imports():
    source = "import os\nimport sys\nfrom a import b, c\n__all__ = ['c']\nprint(sys)\n"
    assert unused_imports(source) == ["os (line 1)", "b (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a source imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_dependencies() -> set[str]:
    """Import names of the ``[project] dependencies`` in ``pyproject.toml``."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    return {re.match(r"[\w.-]+", req).group().lower().replace("-", "_") for req in requirements}


def test_the_scan_finds_imported_modules():
    source = (
        "import os.path\nimport numpy as np\nfrom scipy import sparse\n"
        "from . import core\nfrom .core import Trace\n"
        "def f():\n    import json\n"
    )
    assert imported_modules(source) == {"os", "numpy", "scipy", "json"}


def test_numpy_is_the_only_declared_dependency():
    assert declared_dependencies() == {"numpy"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_every_import_is_declared(path):
    allowed = set(sys.stdlib_module_names) | {"genboot"} | declared_dependencies()
    assert sorted(imported_modules(path.read_text(encoding="utf-8")) - allowed) == []


def test_an_estimate_loads_no_scipy():
    # the scan sees only the package's own imports; a run also sees what
    # those import in turn
    paths = [str(ROOT / "src")] + list(filter(None, [os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    script = (
        "import sys\n"
        "from genboot import bundled_path\n"
        "from genboot.cli import main\n"
        "code = main(['estimate', '--model', str(bundled_path('model.dfg')),\n"
        "             '--log', str(bundled_path('observed.log')), '--lsm', 'breeding',\n"
        "             '-n', '50', '-g', '5', '-k', '2', '-m', '2', '--seed', '1'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize(
    "name",
    [
        name
        for name in genboot.__all__
        if isinstance(getattr(genboot, name), type)
        and dataclasses.is_dataclass(getattr(genboot, name))
    ],
)
def test_public_dataclass_annotations_resolve(name):
    assert typing.get_type_hints(getattr(genboot, name))
