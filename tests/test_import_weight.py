"""Importing the package does not import the exact solvers' scipy.

scipy is only needed to solve an ILP or LP (:mod:`repro.exact.ilp`,
:mod:`repro.exact.relaxation`), which import it where they solve.  Loaded
with the package it took most of ``import repro.experiments``' time and
memory, which every sweep worker and CLI call pays.  The check runs in a
fresh interpreter, since this one has imported scipy through other tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: The entry points a sweep, a trace analysis and a LOCD run import.
MODULES = ("repro.experiments", "repro.obs.analyze", "repro.locd")


def test_package_import_leaves_scipy_unloaded() -> None:
    code = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in MODULES)
        + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
