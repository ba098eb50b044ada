"""``src/repro`` builds its systems from decks, not from test scaffolding.

:mod:`repro.testing` holds helpers for tests, benchmarks and examples.
Library code that imports it grows a second path from a problem to a
linear system beside :func:`repro.physics.deck_system`; this scan keeps
such imports to an explicit, reasoned allow-list.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: module (relative to ``src/repro``) -> why it may import repro.testing
ALLOWED = {
    "harness/stability_sweep.py":
        "distributed_solve runs each battery cell over the SPMD world",
}


def _imports_testing(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}"
                                     for a in node.names]
        else:
            continue
        if any(n == "repro.testing" or n.startswith("repro.testing.")
               for n in names):
            return True
    return False


def test_only_allow_listed_modules_import_repro_testing():
    importers = sorted(
        path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
        if _imports_testing(ast.parse(path.read_text(encoding="utf-8"))))
    assert importers == sorted(ALLOWED)
