"""Tier-1 gate: the real tree is ocdlint-clean, and the CLI enforces it.

This is the test that makes ocdlint part of the repo's contract — any PR
that introduces a model-invariant violation in ``src/`` or ``examples/``
fails here, with the same diagnostics the CLI prints.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checks import run_paths
from repro.checks.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
LINT_SCOPE = ["src", "examples"]


def _in_repo() -> bool:
    return all((REPO_ROOT / p).is_dir() for p in LINT_SCOPE)


pytestmark = pytest.mark.skipif(
    not _in_repo(), reason="requires the repo checkout layout"
)


class TestTreeIsClean:
    def test_src_and_examples_have_no_diagnostics(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        diags = run_paths(LINT_SCOPE)
        assert diags == [], "\n" + "\n".join(d.render() for d in diags)

    def test_cli_exits_zero_on_tree(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(LINT_SCOPE) == 0

    def test_module_invocation(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.checks", *LINT_SCOPE],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestCliContract:
    def test_violation_exits_nonzero_with_location(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "heuristics" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        rc = main([str(bad)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "OCD001" in out
        assert "bad.py:2:" in out

    def test_missing_path_exits_two(self, capsys):
        assert main([str(REPO_ROOT / "no_such_dir_xyz")]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines() if line.startswith("OCD")]
        assert listed == [
            "OCD001", "OCD002", "OCD003", "OCD004", "OCD005",
            "OCD010", "OCD011", "OCD013", "OCD014", "OCD016",
        ]

    def test_select_narrows(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "heuristics" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        assert main(["--select", "OCD003", str(bad)]) == 0
        assert main(["--select", "OCD001", str(bad)]) == 1

    def test_json_format(self, tmp_path, capsys):
        import json

        bad = tmp_path / "src" / "repro" / "heuristics" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        rc = main(["--format", "json", "--no-cache", str(bad)])
        out = capsys.readouterr().out
        assert rc == 1
        payload = json.loads(out)
        assert payload["findings"][0]["code"] == "OCD001"
        assert payload["findings"][0]["line"] == 2
        assert payload["summary"]["count"] == 1


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
class TestStrictTypingGate:
    def test_kernel_passes_mypy_strict(self):
        proc = subprocess.run(
            [
                "mypy",
                "--strict",
                "src/repro/core",
                "src/repro/sim",
                "src/repro/heuristics",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
