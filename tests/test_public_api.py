"""Public-API consistency: __all__ names exist, modules import cleanly,
every model, hardware and workload module has a caller, and every public
function, class and method of the library packages is named somewhere."""

import ast
import importlib
import pkgutil
import re
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


#: packages whose public functions, classes and methods must be reached
REACHED_PACKAGES = ("core", "engine", "experiments", "hardware", "noc", "obs",
                    "pipeline", "serve", "simx", "util", "viz", "workloads")

#: the trees whose files may name them, as code or as a string
NAMING_TREES = ("src", "examples", "scripts", "benchmarks", ".github/workflows")
NAMING_SUFFIXES = {".py", ".yml", ".yaml", ".sh"}

#: public names nothing reaches yet, on purpose: dotted name → reason
UNREACHED_ON_PURPOSE = {
    "repro.noc.routing.hop_matrix": (
        "kept for the ROADMAP item that counts mesh coherence messages per "
        "link with repro.noc.routing"
    ),
}


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _blank(text: str, nodes) -> str:
    """``text`` with the source lines of ``nodes`` blanked out."""
    lines = text.splitlines()
    for node in nodes:
        lines[node.lineno - 1:node.end_lineno] = [""] * (
            node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def _naming_text(path: Path) -> str:
    """The text of ``path`` that counts as naming something.  A package
    ``__init__``'s imports and ``__all__`` are re-exports, not uses."""
    text = path.read_text()
    if path.name != "__init__.py":
        return text
    return _blank(text, [
        node for node in ast.parse(text, str(path)).body
        if isinstance(node, (ast.Import, ast.ImportFrom)) or _is_all(node)
    ])


def _public_defs(tree: ast.Module):
    """``(dotted suffix, node)`` for each public top-level function and
    class, and each public method of a public class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def _unreached_public_names() -> list:
    texts = {
        path: _naming_text(path)
        for tree in NAMING_TREES
        for path in sorted((ROOT / tree).rglob("*"))
        if path.suffix in NAMING_SUFFIXES and path.is_file()
    }
    unreached = []
    for pkg in REACHED_PACKAGES:
        for path in sorted((ROOT / "src" / "repro" / pkg).rglob("*.py")):
            module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
            source = path.read_text()
            tree = ast.parse(source, str(path))
            all_nodes = [node for node in tree.body if _is_all(node)]
            others = [text for other, text in texts.items() if other != path]
            for dotted, node in _public_defs(tree):
                word = re.compile(rf"\b{re.escape(node.name)}\b")
                if any(word.search(text) for text in others):
                    continue
                if word.search(_blank(source, [node, *all_nodes])):
                    continue
                unreached.append(f"{module}.{dotted}")
    return unreached


def test_every_public_function_class_and_method_is_named():
    """A public function, class or method of a library package is dead
    when no other file under ``src/``, ``examples/``, ``scripts/``,
    ``benchmarks/`` or ``.github/workflows/`` names it (package
    ``__init__`` re-exports do not count) and its own module never uses
    it outside its definition and ``__all__``.  A word search, so a name
    reached through a string (CLI, registry, serve dispatch) counts.
    Test-only helpers belong in the tests that use them."""
    unreached = set(_unreached_public_names())
    exempt = set(UNREACHED_ON_PURPOSE)
    assert not unreached - exempt, (
        f"public names nothing reaches: {sorted(unreached - exempt)}"
    )
    assert not exempt - unreached, (
        f"exempt names that something now reaches, drop them: "
        f"{sorted(exempt - unreached)}"
    )


class TestRegistryConsistency:
    def test_every_experiment_callable_and_documented(self):
        from repro.experiments.registry import EXPERIMENTS, SPECS

        for eid, fn in EXPERIMENTS.items():
            assert callable(fn), eid
            assert SPECS[eid].assemble.__doc__, f"experiment {eid} driver lacks a docstring"

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
