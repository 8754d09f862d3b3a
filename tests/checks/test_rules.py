"""Positive and negative fixtures for the ocdlint rules.

Each fixture is a small source string linted under an impersonated path so
the rule's package scoping applies exactly as it does on the real tree.
"""

from __future__ import annotations

import textwrap
from typing import List

from repro.checks import Diagnostic, run_source

HEUR = "src/repro/heuristics/fake.py"
SIM = "src/repro/sim/fake.py"
CORE = "src/repro/core/fake.py"
TOPO = "src/repro/topology/fake.py"
EXPERIMENTS = "src/repro/experiments/fake.py"
OBS = "src/repro/obs/fake.py"


def lint(code: str, path: str = HEUR, select: str | None = None) -> List[Diagnostic]:
    diags = run_source(textwrap.dedent(code), path=path)
    if select is not None:
        diags = [d for d in diags if d.code == select]
    return diags


def codes(code: str, path: str = HEUR) -> List[str]:
    return [d.code for d in lint(code, path)]


# ======================================================================
# OCD001 — unseeded-rng
# ======================================================================
class TestUnseededRandom:
    def test_module_level_function_flagged(self):
        diags = lint("import random\nx = random.random()\n", select="OCD001")
        assert [d.line for d in diags] == [2]

    def test_from_import_flagged(self):
        assert codes("from random import choice\n") == ["OCD001"]

    def test_unseeded_random_instance_flagged(self):
        assert codes("import random\nrng = random.Random()\n") == ["OCD001"]

    def test_bare_unseeded_random_flagged(self):
        assert codes("from random import Random\nrng = Random()\n") == ["OCD001"]

    def test_system_random_flagged(self):
        assert codes("import random\nrng = random.SystemRandom()\n") == ["OCD001"]

    def test_seeded_random_ok(self):
        assert codes("import random\nrng = random.Random(17)\n") == []

    def test_injected_rng_ok(self):
        src = """
        def propose(ctx):
            return ctx.rng.choice([1, 2, 3])
        """
        assert codes(src) == []

    def test_out_of_scope_package_ignored(self):
        assert codes("import random\nx = random.random()\n", path=EXPERIMENTS) == []

    def test_topology_in_scope(self):
        assert codes("import random\nx = random.random()\n", path=TOPO) == ["OCD001"]


# ======================================================================
# OCD002 — model-mutation
# ======================================================================
class TestModelMutation:
    def test_attribute_assignment_on_annotated_param(self):
        src = """
        def tweak(problem: Problem) -> None:
            problem.num_vertices = 7
        """
        assert codes(src) == ["OCD002"]

    def test_self_problem_assignment(self):
        src = """
        class H:
            def on_reset(self) -> None:
                self.problem.weights = {}
        """
        assert codes(src) == ["OCD002"]

    def test_augassign_flagged(self):
        src = """
        def tweak(arc: Arc) -> None:
            arc.capacity += 1
        """
        assert codes(src) == ["OCD002"]

    def test_bare_mutator_call_flagged(self):
        src = """
        def tweak(tokens: TokenSet) -> None:
            tokens.add(3)
        """
        assert codes(src) == ["OCD002"]

    def test_constructor_bound_name_tracked(self):
        src = """
        def build() -> None:
            p = Problem(num_vertices=3, arcs=[], tokens=2)
            p.tokens = 5
        """
        assert codes(src) == ["OCD002"]

    def test_optional_annotation_tracked(self):
        src = """
        def tweak(ctx: "StepContext | None") -> None:
            ctx.step = 2
        """
        assert codes(src) == ["OCD002"]

    def test_reading_attributes_ok(self):
        src = """
        def read(problem: Problem) -> int:
            return problem.num_vertices
        """
        assert codes(src) == []

    def test_container_of_model_values_ok(self):
        src = """
        def collect(arcs: "List[Arc]") -> None:
            arcs.append(None)
        """
        assert codes(src) == []

    def test_core_package_exempt(self):
        src = """
        def _internal(problem: Problem) -> None:
            problem.cache = {}
        """
        assert codes(src, path=CORE) == []


# ======================================================================
# OCD004 — wall-clock-timestep
# ======================================================================
class TestWallClockTimestep:
    def test_time_call_flagged(self):
        src = """
        import time

        def run():
            start = time.perf_counter()
        """
        assert codes(src, path=SIM) == ["OCD004"]

    def test_time_from_import_flagged(self):
        assert codes("from time import monotonic\n", path=SIM) == ["OCD004"]

    def test_datetime_now_flagged(self):
        src = """
        from datetime import datetime

        def run():
            stamp = datetime.now()
        """
        assert codes(src, path=SIM) == ["OCD004"]

    def test_float_step_annotation_flagged(self):
        src = """
        def advance(step: float) -> None:
            pass
        """
        assert codes(src, path=SIM) == ["OCD004"]

    def test_float_valued_step_assignment_flagged(self):
        src = """
        def run(total, n):
            makespan = total / n
            return makespan
        """
        assert codes(src, path=SIM) == ["OCD004"]

    def test_integer_steps_ok(self):
        src = """
        def run(total: int, n: int) -> int:
            makespan = total // n
            step: int = 0
            return makespan + step
        """
        assert codes(src, path=SIM) == []

    def test_outside_model_packages_ok(self):
        src = """
        import time

        def run():
            start = time.perf_counter()
        """
        assert codes(src, path="src/repro/cli.py") == []


# ======================================================================
# OCD005 — engine-encapsulation
# ======================================================================
class TestEngineEncapsulation:
    def test_import_engine_module_flagged(self):
        assert codes("import repro.sim.engine\n") == ["OCD005"]

    def test_from_engine_module_flagged(self):
        assert codes("from repro.sim.engine import StepContext\n") == ["OCD005"]

    def test_driver_names_flagged(self):
        assert codes("from repro.sim import Engine\n") == ["OCD005"]
        assert codes("from repro.sim import run_heuristic\n") == ["OCD005"]

    def test_private_name_flagged(self):
        assert codes("from repro.sim import _validate\n") == ["OCD005"]

    def test_public_surface_ok(self):
        assert codes("from repro.sim import Proposal, StepContext\n") == []

    def test_only_applies_to_heuristics(self):
        assert codes("from repro.sim.engine import Engine\n", path=EXPERIMENTS) == []


# ======================================================================
# OCD016 — trace lines parsed outside the canonical schema readers
# ======================================================================
class TestTraceRawRead:
    def test_direct_json_loads_in_obs_fires(self):
        src = """
        import json

        def read_raw(path):
            with open(path) as fh:
                return [json.loads(line) for line in fh]
        """
        diags = lint(src, path=OBS, select="OCD016")
        assert len(diags) == 1
        assert "read_raw() parses JSON lines" in diags[0].message
        assert "repro.obs.events" in diags[0].message

    def test_from_import_and_alias_spellings_fire(self):
        src = """
        import json as j
        from json import loads

        def read_one(line):
            return loads(line)

        def read_other(line):
            return j.loads(line)
        """
        assert codes(src, path=OBS) == ["OCD016", "OCD016"]

    def test_events_module_itself_is_exempt(self):
        src = """
        import json

        def iter_events(path):
            with open(path) as fh:
                for line in fh:
                    yield json.loads(line)
        """
        assert codes(src, path="src/repro/obs/events.py") == []

    def test_whole_file_json_load_is_not_flagged(self):
        # Bench snapshots and problem files are whole-document JSON,
        # not trace lines; only line-oriented json.loads is the hazard.
        src = """
        import json

        def load_snapshot(path):
            with open(path) as fh:
                return json.load(fh)
        """
        assert codes(src, path=OBS) == []

    def test_outside_obs_is_out_of_scope(self):
        src = """
        import json

        def read_cache_row(line):
            return json.loads(line)
        """
        assert codes(src, path=EXPERIMENTS) == []

    def test_suppression_comment_silences(self):
        src = """
        import json

        def upgrade(line):
            return json.loads(line)  # ocd: ignore[OCD016] -- legacy
        """
        assert codes(src, path=OBS) == []
