"""Fixture packages for the whole-program rules (OCD003, OCD010, OCD011,
OCD013, OCD014, OCD016).

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
EXPERIMENTS = "src/repro/experiments/fake_sweep.py"
OBS = "src/repro/obs/fake_obs.py"


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
# OCD013 — trace contracts at emission sites
# ======================================================================
class TestTraceContract:
    def test_unknown_field_flagged(self):
        diags = program_lint(
            {
                ENGINE: """
                    def finish(tracer):
                        tracer.emit("run_end", {
                            "success": True, "makespan": 3,
                            "bandwidth": 4, "bogus": 1,
                        })
                    """
            },
            select=["OCD013"],
        )
        assert len(diags) == 1
        assert "undeclared field 'bogus'" in diags[0].message

    def test_missing_required_field_flagged(self):
        diags = program_lint(
            {
                ENGINE: """
                    def finish(tracer):
                        tracer.emit("run_end", {"success": True, "makespan": 3})
                    """
            },
            select=["OCD013"],
        )
        assert len(diags) == 1
        assert "missing required field 'bandwidth'" in diags[0].message

    def test_wrong_literal_type_flagged(self):
        diags = program_lint(
            {
                ENGINE: """
                    def stall(tracer):
                        tracer.emit("stall", {"step": 1, "consecutive": "two"})
                    """
            },
            select=["OCD013"],
        )
        assert len(diags) == 1
        assert "declared int" in diags[0].message

    def test_float_field_accepts_int_literal(self):
        diags = program_lint(
            {
                ENGINE: """
                    def point(tracer, fields):
                        tracer.emit("stall", {"step": 0, "consecutive": 2})
                    """
            },
            select=["OCD013"],
        )
        assert diags == []

    def test_fields_via_local_variable_resolved(self):
        diags = program_lint(
            {
                ENGINE: """
                    def finish(tracer, ok):
                        fields = {"success": ok, "makespan": 3}
                        fields["bandwidth"] = 4
                        fields["mystery"] = 9
                        tracer.emit("run_end", fields)
                    """
            },
            select=["OCD013"],
        )
        assert len(diags) == 1
        assert "mystery" in diags[0].message

    def test_open_dict_not_checked_for_missing_required(self):
        # A **-unpack can carry anything: unknown-field and missing-
        # required checks both stand down (no false positives), which is
        # the documented limit of the static pass.
        diags = program_lint(
            {
                ENGINE: """
                    def header(tracer, scenario_fields, seed):
                        tracer.emit("trace_header", {**scenario_fields, "seed": seed})
                    """
            },
            select=["OCD013"],
        )
        assert diags == []

    def test_emission_wrapper_call_site_checked(self):
        # engine.py's emit_step_event pattern: the wrapper folds a
        # caller-supplied dict into the step fields; the *call site* is
        # where the extra keys are checked against the schema.
        diags = program_lint(
            {
                ENGINE: """
                    def emit_step_event(tracer, step, extra):
                        fields = {
                            "step": step, "sends": 0, "moves": 0,
                            "gained": 0, "deficit": 0,
                            "deficit_by_vertex": [], "holder_hist": [],
                            "arc_util": 0.0, "transfers": [],
                        }
                        fields.update(extra)
                        tracer.emit("step", fields)

                    def run(tracer):
                        emit_step_event(tracer, 0, extra={"facts_learned": 3})
                        emit_step_event(tracer, 1, extra={"not_a_field": 1})
                    """
            },
            select=["OCD013"],
        )
        assert len(diags) == 1
        assert "not_a_field" in diags[0].message
        assert "via emit_step_event" in diags[0].message

    def test_unknown_kind_at_make_event_site(self):
        diags = program_lint(
            {
                OBS: """
                    from repro.obs.events import make_event

                    def build():
                        return make_event("not_a_kind", {"x": 1})
                    """
            },
            select=["OCD013"],
        )
        assert len(diags) == 1
        assert "unknown event kind" in diags[0].message

    def test_envelope_collision_flagged(self):
        diags = program_lint(
            {
                ENGINE: """
                    def stall(tracer):
                        tracer.emit("stall", {
                            "step": 1, "consecutive": 1, "event": "oops",
                        })
                    """
            },
            select=["OCD013"],
        )
        assert len(diags) == 1
        assert "envelope field 'event'" in diags[0].message

    def test_conforming_sites_are_clean(self):
        diags = program_lint(
            {
                ENGINE: """
                    def trace(tracer, result):
                        tracer.emit("run_end", {
                            "success": result.success,
                            "makespan": result.makespan,
                            "bandwidth": result.bandwidth,
                            "knowledge_cost": result.knowledge_cost,
                        })
                    """
            },
            select=["OCD013"],
        )
        assert diags == []


# ======================================================================
# OCD014 — multiprocessing safety
# ======================================================================
class TestMultiprocessingSafety:
    def test_lambda_submission_flagged(self):
        diags = program_lint(
            {
                EXPERIMENTS: """
                    def run(pool, items):
                        return [pool.submit(lambda: x * 2) for x in items]
                    """
            },
            select=["OCD014"],
        )
        assert len(diags) == 1
        assert "lambda" in diags[0].message

    def test_nested_function_submission_flagged(self):
        diags = program_lint(
            {
                EXPERIMENTS: """
                    def run(pool, items):
                        def work(x):
                            return x * 2
                        return [pool.submit(work, x) for x in items]
                    """
            },
            select=["OCD014"],
        )
        assert len(diags) == 1
        assert "nested function 'work'" in diags[0].message

    def test_worker_mutating_module_global_flagged(self):
        diags = program_lint(
            {
                EXPERIMENTS: """
                    _CACHE = {}

                    def worker(x):
                        _CACHE[x] = x * 2
                        return _CACHE[x]

                    def run(pool, items):
                        return [pool.submit(worker, x) for x in items]
                    """
            },
            select=["OCD014"],
        )
        assert len(diags) == 1
        assert "_CACHE" in diags[0].message
        assert "child process" in diags[0].message

    def test_transitively_reached_mutation_flagged_with_chain(self):
        diags = program_lint(
            {
                EXPERIMENTS: """
                    _SEEN = set()

                    def _record(x):
                        _SEEN.add(x)

                    def worker(x):
                        _record(x)
                        return x

                    def run(pool, items):
                        return [pool.submit(worker, x) for x in items]
                    """
            },
            select=["OCD014"],
        )
        assert len(diags) == 1
        assert "worker -> _record" in diags[0].message

    def test_worker_capturing_fork_unsafe_global_flagged(self):
        diags = program_lint(
            {
                EXPERIMENTS: """
                    _LOG = open("log.txt", "a")

                    def worker(x):
                        _LOG.write(str(x))
                        return x

                    def run(pool, items):
                        return [pool.submit(worker, x) for x in items]
                    """
            },
            select=["OCD014"],
        )
        assert any("fork-unsafe" in d.message for d in diags)

    def test_module_level_function_with_local_state_is_clean(self):
        diags = program_lint(
            {
                EXPERIMENTS: """
                    def worker(x):
                        cache = {}
                        cache[x] = x * 2
                        return cache[x]

                    def run(pool, items):
                        return [pool.submit(worker, x) for x in items]
                    """
            },
            select=["OCD014"],
        )
        assert diags == []

    def test_import_time_registry_mutation_is_clean(self):
        # The @point_function decorator mutates a registry at *import*
        # time — not worker-reachable, so no finding (known FP case).
        diags = program_lint(
            {
                EXPERIMENTS: """
                    _POINT_FUNCTIONS = {}

                    def point_function(name):
                        def register(fn):
                            _POINT_FUNCTIONS[name] = fn
                            return fn
                        return register
                    """
            },
            select=["OCD014"],
        )
        assert diags == []

    def test_seeded_module_level_random_is_clean(self):
        # A *seeded* module-level Random is deterministic state, not a
        # fork hazard in this codebase's serial==parallel contract.
        diags = program_lint(
            {
                EXPERIMENTS: """
                    import random

                    _RNG = random.Random(1234)

                    def worker(x):
                        return _RNG.random() + x

                    def run(pool, items):
                        return [pool.submit(worker, x) for x in items]
                    """
            },
            select=["OCD014"],
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


# ======================================================================
# OCD016 — trace lines parsed outside the canonical schema readers
# ======================================================================
class TestTraceRawRead:
    def test_direct_json_loads_in_obs_fires(self):
        diags = program_lint(
            {
                OBS: """
                    import json

                    def read_raw(path):
                        with open(path) as fh:
                            return [json.loads(line) for line in fh]
                    """
            },
            select=["OCD016"],
        )
        assert len(diags) == 1
        assert "repro.obs.events" in diags[0].message

    def test_from_import_and_alias_spellings_fire(self):
        diags = program_lint(
            {
                OBS: """
                    import json as j
                    from json import loads

                    def read_one(line):
                        return loads(line)

                    def read_other(line):
                        return j.loads(line)
                    """
            },
            select=["OCD016"],
        )
        assert len(diags) == 2

    def test_events_module_itself_is_exempt(self):
        diags = program_lint(
            {
                "src/repro/obs/events.py": """
                    import json

                    def iter_events(path):
                        with open(path) as fh:
                            for line in fh:
                                yield json.loads(line)
                    """
            },
            select=["OCD016"],
        )
        assert diags == []

    def test_whole_file_json_load_is_not_flagged(self):
        # Bench snapshots and problem files are whole-document JSON,
        # not trace lines; only line-oriented json.loads is the hazard.
        diags = program_lint(
            {
                OBS: """
                    import json

                    def load_snapshot(path):
                        with open(path) as fh:
                            return json.load(fh)
                    """
            },
            select=["OCD016"],
        )
        assert diags == []

    def test_outside_obs_is_out_of_scope(self):
        diags = program_lint(
            {
                EXPERIMENTS: """
                    import json

                    def read_cache_row(line):
                        return json.loads(line)
                    """
            },
            select=["OCD016"],
        )
        assert diags == []

    def test_suppression_comment_silences(self):
        diags = program_lint(
            {
                OBS: """
                    import json

                    def upgrade(line):
                        return json.loads(line)  # ocd: ignore[OCD016] -- legacy
                    """
            },
            select=["OCD016"],
        )
        assert diags == []
