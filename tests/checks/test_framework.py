"""Framework-level behaviour: scoping, suppressions, registry, CLI plumbing."""

from __future__ import annotations

import pytest

from repro.checks import all_rules, package_of, run_source
from repro.checks.framework import INTERNAL_CODE


# ----------------------------------------------------------------------
# Package scoping
# ----------------------------------------------------------------------
class TestPackageOf:
    def test_subpackage_module(self):
        assert package_of("src/repro/heuristics/base.py") == "heuristics"

    def test_top_level_module(self):
        assert package_of("src/repro/cli.py") == "cli"

    def test_examples(self):
        assert package_of("examples/quickstart.py") == "examples"

    def test_unknown(self):
        assert package_of("somewhere/else.py") == ""

    def test_absolute_paths(self):
        assert package_of("/root/repo/src/repro/core/problem.py") == "core"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registry_holds_the_five_rules(self):
        codes = [r.code for r in all_rules()]
        assert codes == ["OCD001", "OCD002", "OCD004", "OCD005", "OCD016"]

    def test_codes_unique_and_well_formed(self):
        codes = [r.code for r in all_rules()]
        assert len(codes) == len(set(codes))
        assert all(c.startswith("OCD") and len(c) == 6 for c in codes)

    def test_every_rule_documents_its_invariant(self):
        for rule in all_rules():
            assert rule.name, rule.code
            assert rule.summary, rule.code
            assert rule.invariant, rule.code

    def test_select_filters(self):
        rules = all_rules(select=["OCD001"])
        assert [r.code for r in rules] == ["OCD001"]

    def test_select_unknown_code_raises(self):
        with pytest.raises(ValueError, match="OCD999"):
            all_rules(select=["OCD999"])


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
VIOLATION = "import random\nrandom.random()\n"
HEUR_PATH = "src/repro/heuristics/fake.py"


class TestSuppressions:
    def test_unsuppressed_fires(self):
        diags = run_source(VIOLATION, path=HEUR_PATH)
        assert [d.code for d in diags] == ["OCD001"]

    def test_line_suppression(self):
        src = "import random\nrandom.random()  # ocd: ignore[OCD001]\n"
        assert run_source(src, path=HEUR_PATH) == []

    def test_line_suppression_with_justification(self):
        src = (
            "import random\n"
            "random.random()  # ocd: ignore[OCD001] -- fixture needs raw entropy\n"
        )
        assert run_source(src, path=HEUR_PATH) == []

    def test_bare_disable_suppresses_all_codes_on_line(self):
        src = "import random\nrandom.random()  # ocd: ignore\n"
        assert run_source(src, path=HEUR_PATH) == []

    def test_suppression_of_other_code_does_not_apply(self):
        src = "import random\nrandom.random()  # ocd: ignore[OCD002]\n"
        diags = run_source(src, path=HEUR_PATH)
        assert [d.code for d in diags] == ["OCD001"]

    def test_suppression_on_other_line_does_not_apply(self):
        src = (
            "import random\n"
            "x = 1  # ocd: ignore[OCD001]\n"
            "random.random()\n"
        )
        diags = run_source(src, path=HEUR_PATH)
        assert [d.code for d in diags] == ["OCD001"]

    def test_file_level_suppression(self):
        src = (
            "# ocd: ignore-file[OCD001] -- stress fixture\n"
            "import random\n"
            "random.random()\n"
            "random.choice([1])\n"
        )
        assert run_source(src, path=HEUR_PATH) == []


# ----------------------------------------------------------------------
# Runner behaviour
# ----------------------------------------------------------------------
class TestRunner:
    def test_syntax_error_reports_internal_code(self):
        diags = run_source("def broken(:\n", path=HEUR_PATH)
        assert len(diags) == 1
        assert diags[0].code == INTERNAL_CODE

    def test_diagnostics_sorted_and_rendered_with_location(self):
        src = "import random\nrandom.random()\nrandom.choice([1])\n"
        diags = run_source(src, path=HEUR_PATH)
        assert [d.line for d in diags] == sorted(d.line for d in diags)
        rendered = diags[0].render()
        assert rendered.startswith(f"{HEUR_PATH}:2:")
        assert "OCD001" in rendered

    def test_clean_source_is_clean(self):
        src = "def fine() -> int:\n    return 1\n"
        assert run_source(src, path=HEUR_PATH) == []

    def test_package_scope_gates_rules(self):
        # The same RNG violation is out of scope for e.g. experiments code.
        diags = run_source(VIOLATION, path="src/repro/experiments/fake.py")
        assert diags == []
