"""No package reaches into another package's private names.

A ``from repro.<pkg>.<mod> import _name`` across package boundaries
couples two layers through a helper neither side owns; a helper that
other packages need is a public name of its home package.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def cross_package_private_imports(root: Path) -> list[str]:
    """``file:line module.name`` for every offending import under ``root``
    (the ``repro`` package directory)."""
    found = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        home = parts[0] if len(parts) > 1 else None
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom) or not node.module:
                continue
            mod = node.module.split(".")
            if mod[0] != "repro" or len(mod) < 2 or mod[1] == home:
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    rel = path.relative_to(root.parent)
                    found.append(f"{rel}:{node.lineno} {node.module}.{alias.name}")
    return found


def test_no_cross_package_private_imports():
    assert cross_package_private_imports(SRC) == []


def test_scanner_flags_nested_and_function_level_imports(tmp_path):
    root = tmp_path / "repro"
    (root / "dist").mkdir(parents=True)
    (root / "core").mkdir()
    (root / "dist" / "coordinator.py").write_text(
        "def f():\n    from repro.parallel.campaign import _run_task, PoolBackend\n"
    )
    # same-package private imports and dunders are fine
    (root / "core" / "a.py").write_text(
        "from repro.core.experiment import _error_record\n"
        "from repro.util import __version__\n"
    )
    (root / "cli.py").write_text("from repro.core.experiment import _effective_jobs\n")
    assert cross_package_private_imports(root) == [
        "repro/cli.py:1 repro.core.experiment._effective_jobs",
        "repro/dist/coordinator.py:2 repro.parallel.campaign._run_task",
    ]
