"""Tier-1 gate: the real tree is ocdlint-clean, and the CLI enforces it.

This is the test that makes ocdlint part of the repo's contract — any PR
that introduces a model-invariant violation in ``src/`` or ``examples/``
fails here, with the same diagnostics the CLI prints.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.checks import Diagnostic, run_paths
from repro.checks.cli import main
from repro.checks.output import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parents[2]
LINT_SCOPE = ["src", "examples"]


def _in_repo() -> bool:
    return all((REPO_ROOT / p).is_dir() for p in LINT_SCOPE)


pytestmark = pytest.mark.skipif(
    not _in_repo(), reason="requires the repo checkout layout"
)

#: One OCD001 finding in ``_draw``; ``pick`` reaches it through a call,
#: which no rule follows (cross-process determinism is tested instead).
DIRTY = textwrap.dedent(
    """
    import random


    def _draw():
        return random.random()


    def pick(xs):
        return xs[int(_draw() * len(xs))]
    """
)


def _dirty_tree(root: Path) -> str:
    pkg = root / "src" / "repro" / "heuristics"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(DIRTY, encoding="utf-8")
    return str(root / "src")


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
        assert listed == ["OCD001", "OCD002", "OCD004", "OCD005", "OCD016"]

    def test_select_narrows(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "heuristics" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        assert main(["--select", "OCD004", str(bad)]) == 0
        assert main(["--select", "OCD001", str(bad)]) == 1

    def test_retired_codes_are_unknown(self, tmp_path, capsys):
        root = _dirty_tree(tmp_path)
        for code in ("OCD003", "OCD010", "OCD011"):
            assert main(["--select", code, root]) == 2
            assert f"unknown rule code(s): {code}" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "heuristics" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        rc = main(["--format", "json", str(bad)])
        out = capsys.readouterr().out
        assert rc == 1
        payload = json.loads(out)
        assert payload["findings"][0]["code"] == "OCD001"
        assert payload["findings"][0]["line"] == 2
        assert payload["summary"]["count"] == 1

    def test_empty_select_exits_two(self, tmp_path, capsys):
        # A selection naming no code would run zero rules and report a
        # dirty tree as clean; it is a usage error instead.
        root = _dirty_tree(tmp_path)
        for select in (",", ""):
            assert main(["--select", select, root]) == 2
            assert "names no code" in capsys.readouterr().err

    def test_dirty_fixture_reports_only_ocd001(self, tmp_path, capsys):
        root = _dirty_tree(tmp_path)
        assert main([root, "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [(f["code"], f["line"]) for f in doc["findings"]] == [("OCD001", 6)]

    def test_no_program_flag_is_rejected(self, tmp_path, capsys):
        root = _dirty_tree(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["--no-program", root])
        assert info.value.code == 2
        assert "--no-program" in capsys.readouterr().err

    def test_lint_writes_nothing(self, tmp_path, tmp_path_factory, monkeypatch, capsys):
        root = _dirty_tree(tmp_path_factory.mktemp("tree"))
        monkeypatch.chdir(tmp_path)
        assert main([root]) == 1
        assert main([root, "--format", "json"]) == 1
        assert list(tmp_path.iterdir()) == []


_SAMPLE = [
    Diagnostic(
        path="src/repro/sim/engine.py",
        line=10,
        col=4,
        code="OCD004",
        message="[wall-clock-timestep] time.time() is wall-clock time",
    ),
    Diagnostic(
        path="src/repro/heuristics/base.py",
        line=3,
        col=0,
        code="OCD001",
        message="[unseeded-rng] random.random() uses the shared global RNG",
    ),
]


class TestOutputs:
    def test_text_is_sorted_path_line_col(self):
        text = render_text(sorted(_SAMPLE))
        first, second = text.splitlines()
        assert first.startswith("src/repro/heuristics/base.py:3:0: OCD001")
        assert second.startswith("src/repro/sim/engine.py:10:4: OCD004")

    def test_json_shape(self):
        doc = json.loads(render_json(_SAMPLE, files_checked=7))
        assert doc["summary"] == {"count": 2, "files_checked": 7}
        assert [f["code"] for f in doc["findings"]] == ["OCD001", "OCD004"]

    def test_deterministic(self):
        assert render_json(_SAMPLE) == render_json(list(reversed(_SAMPLE)))


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
