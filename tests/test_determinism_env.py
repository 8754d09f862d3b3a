"""Determinism across processes: outputs are a function of (instance, seed).

``tests/determinism_probe.py`` runs every experiment driver at the TINY
scale of ``tests/experiments/test_sweep.py``, one traced run per
heuristic on each kernel and one traced run per LOCD algorithm, and
prints a digest of each.  Two concurrent processes run it with different
``PYTHONHASHSEED`` values, in different working directories, one of them
with shifted clocks and reversed directory listings.  Every digest must
agree: a schedule that iterates a set of strings, draws from the global
RNG, or reads the clock, the process id or a listing's order diverges
here, wherever in the call graph the read hides.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PROBE = Path(__file__).resolve().with_name("determinism_probe.py")

#: (PYTHONHASHSEED, extra probe arguments) for the two processes.
SETUPS = (("0", ()), ("12345", ("--perturb",)))


def _launch(cwd: Path, hash_seed: str, args) -> subprocess.Popen:
    cwd.mkdir()
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.Popen(
        [sys.executable, str(PROBE), *args],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_outputs_identical_across_processes(tmp_path):
    procs = [
        _launch(tmp_path / f"run{i}", hash_seed, args)
        for i, (hash_seed, args) in enumerate(SETUPS)
    ]
    reports = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        reports.append(json.loads(out))
    first, second = reports

    # The comparison proves nothing unless the two processes really saw
    # different hash salts, directories, clocks and listing orders.
    for reading in ("hash", "cwd", "time", "listdir"):
        assert first["env"][reading] != second["env"][reading], reading

    assert sorted(first["digests"]) == sorted(second["digests"])
    diverged = sorted(
        key
        for key, digest in first["digests"].items()
        if second["digests"][key] != digest
    )
    assert diverged == [], f"outputs differ between processes: {diverged}"
