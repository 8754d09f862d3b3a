"""Fixture packages for the whole-program rules (OCD003, OCD010, OCD011).

Each fixture is a tiny multi-module "package": sources linted together
under impersonated paths, so cross-module resolution, re-export chasing,
and package scoping behave exactly as on the real tree.  Every rule gets
seeded true positives AND known false positives — the false-positive
cases are the contract that keeps the analyzer conservative.
"""

from __future__ import annotations

import textwrap
from typing import Dict, List, Optional, Sequence

from repro.checks.framework import (
    Diagnostic,
    run_program_pass,
    suppressions_for,
)
from repro.checks.program import ProgramIndex, summarize_source

ENGINE = "src/repro/sim/fake_engine.py"
HEUR = "src/repro/heuristics/fake.py"
HELPER = "src/repro/heuristics/helper.py"
DEEP = "src/repro/heuristics/deep.py"


def program_lint(
    modules: Dict[str, str],
    select: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """Lint a fixture package: path -> source, program rules only."""
    summaries = []
    suppressions = {}
    for path, code in modules.items():
        src = textwrap.dedent(code)
        summary = summarize_source(src, path)
        assert summary is not None, f"fixture {path} does not parse"
        summaries.append(summary)
        suppressions[path] = suppressions_for(src.splitlines())
    return run_program_pass(summaries, suppressions, select=select)


def build_index(modules: Dict[str, str]) -> ProgramIndex:
    summaries = [
        summarize_source(textwrap.dedent(code), path)
        for path, code in modules.items()
    ]
    return ProgramIndex([s for s in summaries if s is not None])


# ======================================================================
# OCD010 — unseeded randomness through call chains
# ======================================================================
class TestRngCallChain:
    def test_detects_source_two_call_levels_below_engine_entry(self):
        # The acceptance-criterion fixture: run() -> _pick() -> _draw(),
        # with the global-RNG draw two levels below the entry point.
        diags = program_lint(
            {
                DEEP: """
                    import random

                    def _draw():
                        return random.random()
                    """,
                HELPER: """
                    from repro.heuristics.deep import _draw

                    def _pick(xs):
                        return xs[int(_draw() * len(xs))]
                    """,
                ENGINE: """
                    from repro.heuristics.helper import _pick

                    def run(xs):
                        return _pick(xs)
                    """,
            },
            select=["OCD010"],
        )
        by_path = {d.path for d in diags}
        assert ENGINE in by_path  # the entry point is flagged...
        assert HELPER in by_path  # ...and so is the intermediate hop
        entry = next(d for d in diags if d.path == ENGINE)
        # The witness chain names every hop down to the concrete source.
        assert "run -> _pick -> _draw" in entry.message
        assert "random.random()" in entry.message
        assert f"{DEEP}:5" in entry.message

    def test_direct_use_not_duplicated(self):
        # Direct global-RNG use is OCD001's finding; the chain rule only
        # reports transitive reaches so one defect is one diagnostic.
        diags = program_lint(
            {
                HEUR: """
                    import random

                    def pick(xs):
                        return xs[int(random.random() * len(xs))]
                    """
            },
            select=["OCD010"],
        )
        assert diags == []

    def test_seeded_rng_threading_is_clean(self):
        # The sanctioned pattern: an injected random.Random argument.
        diags = program_lint(
            {
                HELPER: """
                    def _pick(rng, xs):
                        return xs[rng.randrange(len(xs))]
                    """,
                ENGINE: """
                    from repro.heuristics.helper import _pick

                    def run(rng, xs):
                        return _pick(rng, xs)
                    """,
            },
            select=["OCD010"],
        )
        assert diags == []

    def test_source_outside_model_packages_still_taints_model_caller(self):
        # Evidence may live anywhere; only model packages *report*.
        diags = program_lint(
            {
                "src/repro/obs/util.py": """
                    import random

                    def jitter():
                        return random.random()
                    """,
                HEUR: """
                    from repro.obs.util import jitter

                    def choose(xs):
                        return xs[int(jitter() * len(xs))]
                    """,
            },
            select=["OCD010"],
        )
        assert [d.path for d in diags] == [HEUR]
        # The source module itself is outside scope: no finding there.

    def test_suppression_comment_silences_chain_finding(self):
        diags = program_lint(
            {
                HELPER: """
                    import random

                    def _draw():
                        return random.random()
                    """,
                ENGINE: """
                    from repro.heuristics.helper import _draw

                    def run(xs):
                        return _draw()  # ocd: ignore[OCD010] -- fixture
                    """,
            },
            select=["OCD010"],
        )
        assert diags == []

    def test_reexport_chain_resolves(self):
        # Call through a package __init__ re-export still builds an edge.
        diags = program_lint(
            {
                "src/repro/heuristics/__init__.py": """
                    from repro.heuristics.deep import draw
                    """,
                DEEP: """
                    import random

                    def draw():
                        return random.random()
                    """,
                ENGINE: """
                    from repro.heuristics import draw

                    def run():
                        return draw()
                    """,
            },
            select=["OCD010"],
        )
        assert [d.path for d in diags] == [ENGINE]


# ======================================================================
# OCD011 — environment nondeterminism through call chains
# ======================================================================
class TestEnvironmentCallChain:
    def test_transitive_wall_clock_flagged(self):
        diags = program_lint(
            {
                HELPER: """
                    import time

                    def _stamp():
                        return time.time()
                    """,
                ENGINE: """
                    from repro.heuristics.helper import _stamp

                    def run():
                        return _stamp()
                    """,
            },
            select=["OCD011"],
        )
        assert ENGINE in {d.path for d in diags}
        assert any("wall-clock" in d.message for d in diags)

    def test_direct_wall_clock_left_to_per_file_rule(self):
        diags = program_lint(
            {
                ENGINE: """
                    import time

                    def run():
                        return time.time()
                    """
            },
            select=["OCD011"],
        )
        assert diags == []  # OCD004 owns the direct case

    def test_direct_fs_order_flagged(self):
        # No per-file rule covers enumeration order: direct use reports.
        diags = program_lint(
            {
                HEUR: """
                    import os

                    def load(path):
                        return [open(p).read() for p in os.listdir(path)]
                    """
            },
            select=["OCD011"],
        )
        assert len(diags) == 1
        assert "filesystem enumeration order" in diags[0].message

    def test_sorted_fs_enumeration_is_clean(self):
        diags = program_lint(
            {
                HEUR: """
                    import os

                    def load(path):
                        return sorted(os.listdir(path))
                    """
            },
            select=["OCD011"],
        )
        assert diags == []

    def test_process_identity_flagged(self):
        diags = program_lint(
            {
                HEUR: """
                    import os

                    def tag():
                        return os.getpid()
                    """
            },
            select=["OCD011"],
        )
        assert len(diags) == 1
        assert "process/host identity" in diags[0].message


# ======================================================================
# OCD003 — set iteration across call boundaries
# ======================================================================
class TestCrossFunctionSetIteration:
    def test_iterating_set_returning_function_flagged(self):
        diags = program_lint(
            {
                HEUR: """
                    def holders():
                        return {1, 2, 3}

                    def schedule():
                        return [h for h in holders()]
                    """
            },
            select=["OCD003"],
        )
        assert len(diags) == 1
        assert "holders()" in diags[0].message

    def test_annotation_marks_set_return(self):
        diags = program_lint(
            {
                HELPER: """
                    from typing import Set

                    def holders(state) -> Set[int]:
                        return state.compute()
                    """,
                HEUR: """
                    from repro.heuristics.helper import holders

                    def schedule(state):
                        out = []
                        for h in holders(state):
                            out.append(h)
                        return out
                    """,
            },
            select=["OCD003"],
        )
        assert [d.path for d in diags] == [HEUR]

    def test_sorted_wrap_is_clean(self):
        diags = program_lint(
            {
                HEUR: """
                    def holders():
                        return {1, 2, 3}

                    def schedule():
                        return [h for h in sorted(holders())]
                    """
            },
            select=["OCD003"],
        )
        assert diags == []

    def test_list_returning_function_is_clean(self):
        diags = program_lint(
            {
                HEUR: """
                    def holders():
                        return [1, 2, 3]

                    def schedule():
                        return [h for h in holders()]
                    """
            },
            select=["OCD003"],
        )
        assert diags == []


# ======================================================================
# The program model itself
# ======================================================================
class TestProgramIndex:
    def test_edges_resolve_across_modules(self):
        index = build_index(
            {
                HELPER: """
                    def leaf():
                        return 1
                    """,
                ENGINE: """
                    from repro.heuristics.helper import leaf

                    def run():
                        return leaf()
                    """,
            }
        )
        edges = index.edges["repro.sim.fake_engine.run"]
        assert [callee for callee, _ in edges] == ["repro.heuristics.helper.leaf"]

    def test_taint_witness_is_shortest_chain(self):
        # Two routes to the source: direct and via a middleman; the
        # witness must pick the one-hop chain.
        index = build_index(
            {
                HEUR: """
                    import random

                    def source():
                        return random.random()

                    def middle():
                        return source()

                    def entry():
                        return middle() + source()
                    """
            }
        )
        tainted = index.taint(["rng"])
        witness = tainted["repro.heuristics.fake.entry"]["rng"]
        assert witness.chain == ("repro.heuristics.fake.source",)

    def test_unresolvable_calls_create_no_edges(self):
        index = build_index(
            {
                ENGINE: """
                    def run(callback, obj):
                        callback()
                        obj.method()
                    """
            }
        )
        assert index.edges["repro.sim.fake_engine.run"] == []

    def test_recursion_terminates(self):
        index = build_index(
            {
                HEUR: """
                    import random

                    def ping(n):
                        return pong(n - 1) if n else random.random()

                    def pong(n):
                        return ping(n - 1) if n else 0
                    """
            }
        )
        tainted = index.taint(["rng"])
        assert "repro.heuristics.fake.ping" in tainted
        assert "repro.heuristics.fake.pong" in tainted
