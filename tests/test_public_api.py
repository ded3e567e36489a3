"""Public-API consistency: __all__ names exist, modules import cleanly,
and every model, hardware and workload module has a caller."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if name != "repro.__main__"  # importing it runs the CLI
]


class TestImports:
    @pytest.mark.parametrize("module_name", MODULES)
    def test_every_module_imports(self, module_name):
        importlib.import_module(module_name)

    @pytest.mark.parametrize("module_name", MODULES)
    def test_all_names_resolve(self, module_name):
        mod = importlib.import_module(module_name)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module_name}.__all__ lists missing {name!r}"

    def test_top_level_all(self):
        for name in repro.__all__:
            assert hasattr(repro, name)

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)


def _imported_names(path: Path) -> set:
    """Dotted names ``path`` imports: ``import a.b`` gives ``a.b``, and
    ``from a.b import c`` gives both ``a.b`` and ``a.b.c`` (``c`` may be a
    submodule).  The package uses absolute imports only."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_every_model_hardware_and_workload_module_has_an_importer():
    """A module of ``repro.core``, ``repro.hardware`` or ``repro.workloads``
    that only its own package ``__init__`` imports is code nothing reaches:
    some other ``src/`` or ``examples/`` module must import it by name."""
    importers: dict = {}
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "examples").rglob("*.py")]:
        for name in _imported_names(path):
            importers.setdefault(name, set()).add(path)
    unreached = []
    for pkg in ("repro.core", "repro.hardware", "repro.workloads"):
        own_init = ROOT / "src" / pkg.replace(".", "/") / "__init__.py"
        for info in pkgutil.iter_modules(importlib.import_module(pkg).__path__):
            name = f"{pkg}.{info.name}"
            if not importers.get(name, set()) - {own_init}:
                unreached.append(name)
    assert not unreached, f"modules only their package __init__ imports: {unreached}"


class TestRegistryConsistency:
    def test_every_experiment_callable_and_documented(self):
        from repro.experiments.registry import EXPERIMENTS

        for eid, fn in EXPERIMENTS.items():
            assert callable(fn), eid
            assert fn.__doc__, f"experiment {eid} driver lacks a docstring"

    def test_make_experiments_md_covers_registry(self):
        """Every registered experiment (except the roll-up aliases) is
        tracked by the EXPERIMENTS.md generator."""
        import re
        from pathlib import Path

        from repro.experiments.registry import EXPERIMENTS

        script = Path(__file__).resolve().parent.parent / "scripts" / "make_experiments_md.py"
        tracked = set(re.findall(r'\("([a-z0-9-]+)",\s*"', script.read_text()))
        rollups = {"ablations"}  # aggregates the ablation-* ids
        missing = set(EXPERIMENTS) - tracked - rollups
        assert not missing, f"experiments not tracked by make_experiments_md: {missing}"
