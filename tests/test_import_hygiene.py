"""No module under ``src/repro`` imports scipy or ``multiprocessing``;
importing the CLI and the server, and a cold ``runall``, load no scipy;
importing the CLI loads no ``multiprocessing``.

HOP's neighbour search is numpy (``workloads.neighbors``), and the only
scipy user left is the k-NN oracle in ``tests/workloads/test_neighbors.py``.
The engine's local workers are plain subprocesses and every work unit is
deterministic, so nothing in the package needs ``multiprocessing``.
A static scan of the source guards the package, lazy imports included;
the runtime probes guard what a run actually loads.  Each runtime check
runs in a fresh interpreter, where no other test can have loaded either
already.

A second static scan fails on any module-level import in ``src/repro``
that its module never references (string annotations and ``__all__``
count as references; package ``__init__`` re-exports are exempt).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

LIST_SCIPY = (
    "print('scipy modules:', *sorted(m for m in sys.modules "
    "if m == 'scipy' or m.startswith('scipy.')))"
)

PROBE = "import repro.cli, repro.serve.server, sys; " + LIST_SCIPY

COLD_RUNALL = (
    "import sys; from repro.cli import main; "
    "code = main(['runall', '--parallel', '1', '--json', sys.argv[1]]); "
    + LIST_SCIPY + "; sys.exit(code)"
)


def _loaded_scipy(code: str, args=(), env=None, cwd=None, timeout=120):
    """The scipy modules loaded once ``code`` has run in a fresh interpreter."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[:2] == ["scipy", "modules:"], proc.stdout[-2000:]
    return last[2:]


def _src_imports_of(package: str) -> "list[str]":
    """Every ``import package...`` / ``from package... import``, at module
    level or inside a function, anywhere in ``src/repro``."""
    found = []
    for path in sorted((REPO_SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] == package:
                    found.append(f"{path.relative_to(REPO_SRC)}:{node.lineno} {name}")
    return found


def test_src_never_imports_scipy():
    found = _src_imports_of("scipy")
    assert not found, f"src/repro imports scipy: {found}"


def test_src_never_imports_multiprocessing():
    found = _src_imports_of("multiprocessing")
    assert not found, f"src/repro imports multiprocessing: {found}"


def test_cli_and_server_import_without_scipy():
    loaded = _loaded_scipy(PROBE)
    assert not loaded, f"importing repro.cli loaded scipy modules: {loaded}"


def test_cold_runall_loads_no_scipy(tmp_path):
    (tmp_path / "tmp").mkdir()
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "REPRO_SWEEP_CACHE_DIR": str(tmp_path / "sweeps"),
        "REPRO_RUNS_DIR": str(tmp_path / "runs"),
        "TMPDIR": str(tmp_path / "tmp"),
    })
    loaded = _loaded_scipy(COLD_RUNALL, [str(tmp_path / "reports")], env,
                           cwd=tmp_path, timeout=600)
    assert not loaded, f"a cold runall loaded {len(loaded)} scipy modules: {loaded[:5]}"


def test_cli_import_loads_no_multiprocessing():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import repro.cli, sys; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'multiprocessing'))"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", (
        f"importing repro.cli loaded {proc.stdout.strip()}")


def _module_level_imports(tree: ast.Module):
    """``(bound name, lineno)`` of every import outside a function or class
    body (``if``/``try`` blocks at module level included)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse)
            stack.extend(getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _referenced_names(tree: ast.Module) -> "set[str]":
    """Every name the module's code reads, string annotations and
    ``__all__`` included."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            names.update(elt.value for elt in node.value.elts
                         if isinstance(elt, ast.Constant))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _referenced_names(ast.parse(node.value, mode="eval"))
    return names


def _unused_imports() -> "list[str]":
    """``file:line name`` of each module-level import in ``src/repro`` that
    its module never references (package ``__init__`` re-exports aside)."""
    unused = []
    for path in sorted((REPO_SRC / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = _referenced_names(tree)
        for name, lineno in _module_level_imports(tree):
            if name not in used:
                unused.append(f"{path.relative_to(REPO_SRC)}:{lineno} {name}")
    return sorted(unused)


def test_src_has_no_unused_imports():
    unused = _unused_imports()
    assert not unused, f"unused imports in src/repro: {unused}"
