"""The replay and its run grouping import nothing from the kernel.

The replay validator re-implements the paper's §2 semantics from the raw
JSON so that a kernel bug cannot hide by also corrupting the checker,
and :mod:`repro.obs` must stay importable by the kernel.  Both claims
rest on these modules' imports, checked here from their source.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

OBS = Path(__file__).resolve().parents[2] / "src" / "repro" / "obs"
KERNEL_FREE = [
    "runs.py",
    "analyze/runs.py",
    "analyze/validate.py",
    "analyze/causal.py",
]
FORBIDDEN = ("repro.core", "repro.sim", "repro.heuristics")


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path.name}: relative import"
            yield node.module or ""


@pytest.mark.parametrize("module", KERNEL_FREE)
def test_imports_nothing_from_the_kernel(module):
    imported = list(_imported_modules(OBS / module))
    assert imported
    bad = [
        name
        for name in imported
        if any(name == root or name.startswith(root + ".") for root in FORBIDDEN)
    ]
    assert bad == []
