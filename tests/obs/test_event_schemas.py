"""The versioned field registry (EVENT_SCHEMAS) and validate_event.

Two layers of regression protection for the trace contract:

* unit tests for :func:`repro.obs.validate_event` against hand-built
  records (plain dicts, since ``make_event`` refuses malformed ones), and
* **runtime cross-checks** — drive every engine (Engine, LocalEngine via
  ``run_local``, DynamicEngine via ``run_dynamic``) and the sweep
  executor's run ledger, then validate every event they actually emit.
  ``make_event`` already refuses a nonconforming event at emission, so
  these pin the registry to reality: the emitters together must cover
  the registry, so a kind nothing emits cannot linger in it, and the
  schema table in ``docs/OBSERVABILITY.md`` must list exactly the
  registered kinds.
"""

from __future__ import annotations

import random
import re
import time
from pathlib import Path

import pytest

from repro.core.problem import Problem
from repro.experiments.sweep import (
    Executor,
    ExecutorConfig,
    PointSpec,
    SweepError,
    point_function,
)
from repro.extensions.dynamic import constant_conditions, run_dynamic
from repro.heuristics import make_heuristic, standard_heuristics
from repro.locd.algorithms import LocalRarest
from repro.locd.runner import run_local
from repro.obs import (
    EVENT_KINDS,
    EVENT_SCHEMAS,
    RecordingTracer,
    activated,
    make_event,
    read_events,
    validate_event,
)
from repro.obs.analyze.attribution import attribute_trace, summary_event
from repro.sim.engine import Engine, StallError
from repro.topology import random_graph
from repro.workloads import single_file

OBSERVABILITY_MD = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"


def _problem(seed: int = 3, n: int = 10, tokens: int = 6) -> Problem:
    return single_file(random_graph(n, random.Random(seed)), file_tokens=tokens)


@point_function("_schema_point")
def _schema_point(spec: PointSpec):
    """Sleeps ``nap`` seconds (so heartbeats fire), or fails on ``boom``."""
    if spec.param("boom", False):
        raise RuntimeError("boom")
    time.sleep(spec.param("nap", 0.0))
    return {"stats": {"nap": spec.param("nap", 0.0)}}


def _ledger_sweep(tmp_path) -> list:
    """One ledger sweep with a cache hit, a twice-failing point and a
    point slow enough for several 0.05 s heartbeats; its events."""
    cache_dir = str(tmp_path / "cache")
    path = tmp_path / "ledger.jsonl"
    hit = PointSpec.make("schema", "_schema_point", 0, {"nap": 0.0})
    Executor(ExecutorConfig(use_cache=True, cache_dir=cache_dir)).run([hit])
    specs = [
        hit,
        PointSpec.make("schema", "_schema_point", 1, {"boom": True}),
        PointSpec.make("schema", "_schema_point", 2, {"nap": 0.3}),
    ]
    config = ExecutorConfig(
        use_cache=True, cache_dir=cache_dir, ledger_path=str(path), heartbeat_s=0.05
    )
    with pytest.raises(SweepError):
        Executor(config).run(specs)
    return read_events(str(path))


class TestRegistryShape:
    def test_every_kind_has_a_schema(self):
        assert set(EVENT_SCHEMAS) == set(EVENT_KINDS)

    def test_declared_types_are_known(self):
        from repro.obs.events import _TYPE_CHECKS

        for schema in EVENT_SCHEMAS.values():
            for name, declared in {**schema.required, **schema.optional}.items():
                assert declared in _TYPE_CHECKS, (schema.kind, name, declared)

    def test_required_and_optional_disjoint(self):
        for schema in EVENT_SCHEMAS.values():
            assert not set(schema.required) & set(schema.optional), schema.kind

    def test_docs_schema_table_lists_exactly_the_registry(self):
        text = OBSERVABILITY_MD.read_text(encoding="utf-8")
        section = text.split("## The event schema", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        kinds = [k for row in rows for k in re.findall(r"`(\w+)`", row.split("|")[1])]
        assert tuple(kinds) == EVENT_KINDS

    def test_every_registered_kind_has_an_emitter(self, tmp_path):
        # Engines (through the ambient tracer), the executor (run ledger
        # plus per-point trace files) and attribution together must emit
        # every registered kind.
        tracer = RecordingTracer()
        with activated(tracer):
            Engine(_problem(), make_heuristic("local")).run()
            p = Problem.build(3, 1, [(0, 1, 1), (2, 1, 1)], {0: [0]}, {2: [0]})
            with pytest.raises(StallError):
                Engine(p, make_heuristic("round_robin")).run()
            run_local(_problem(5), LocalRarest())
            run_dynamic(
                constant_conditions(_problem(7)), make_heuristic("local"), seed=0
            )
        emitted = {e["event"] for e in tracer.events}
        emitted |= {e["event"] for e in _ledger_sweep(tmp_path)}
        trace_dir = tmp_path / "traces"
        fig2 = PointSpec.make(
            "fig2", "fig2", 0, {"n": 10, "file_tokens": 8, "trial": 0}, seed=1
        )
        Executor(ExecutorConfig(trace_dir=str(trace_dir))).run([fig2])
        (trace,) = sorted(trace_dir.iterdir())
        emitted |= {e["event"] for e in read_events(str(trace))}
        emitted |= {
            summary_event(run)["event"] for run in attribute_trace(str(trace)).runs
        }
        assert emitted == set(EVENT_KINDS)


def _stall(**fields) -> dict:
    """A ``stall`` record built as a plain dict, bypassing ``make_event``
    (which refuses anything :func:`validate_event` would flag)."""
    return {"schema_version": 1, "event": "stall", **fields}


class TestValidateEvent:
    def test_conforming_event_passes(self):
        event = make_event("stall", {"step": 3, "consecutive": 2})
        assert validate_event(event) == []

    def test_missing_required_reported(self):
        event = _stall(step=3)
        assert any("consecutive" in p for p in validate_event(event))

    def test_undeclared_field_reported(self):
        event = _stall(step=3, consecutive=2, zzz=1)
        assert any("undeclared field 'zzz'" in p for p in validate_event(event))

    def test_wrong_type_reported(self):
        event = _stall(step="three", consecutive=2)
        assert any("'step'" in p for p in validate_event(event))

    def test_bool_is_not_an_int(self):
        event = _stall(step=True, consecutive=2)
        assert any("'step'" in p for p in validate_event(event))

    def test_float_field_accepts_int(self):
        fields = {
            "figure": "f", "kind": "k", "index": 0, "seed": 1, "key": "a",
            "cache": "miss", "wall_s": 0, "worker": 0, "attempt": 0,
            "ok": True,
        }
        assert validate_event(make_event("point_end", fields)) == []

    def test_unknown_kind_reported(self):
        assert validate_event({"schema_version": 1, "event": "nope"}) == [
            "unknown event kind 'nope'"
        ]

    def test_non_event_reported(self):
        assert validate_event({"x": 1}) != []


class TestRuntimeConformance:
    """Every event the engines actually emit conforms to the registry."""

    def _validate_all(self, tracer: RecordingTracer) -> None:
        assert tracer.events, "fixture emitted nothing"
        for event in tracer.events:
            assert validate_event(event) == [], (event["event"], event)

    def test_engine_all_heuristics(self):
        tracer = RecordingTracer()
        with activated(tracer):
            for heuristic in standard_heuristics():
                Engine(_problem(), heuristic).run()
        kinds = {e["event"] for e in tracer.events}
        assert {"run_start", "step", "run_end"} <= kinds
        self._validate_all(tracer)

    def test_engine_stall_path(self):
        tracer = RecordingTracer()
        with activated(tracer):
            p = Problem.build(3, 1, [(0, 1, 1), (2, 1, 1)], {0: [0]}, {2: [0]})
            with pytest.raises(StallError):
                Engine(p, make_heuristic("round_robin")).run()
        assert {"stall"} <= {e["event"] for e in tracer.events}
        self._validate_all(tracer)

    def test_local_engine(self):
        tracer = RecordingTracer()
        with activated(tracer):
            run_local(_problem(5), LocalRarest())
        self._validate_all(tracer)

    def test_dynamic_engine(self):
        tracer = RecordingTracer()
        with activated(tracer):
            run_dynamic(
                constant_conditions(_problem(7)), make_heuristic("local"), seed=0
            )
        self._validate_all(tracer)

    def test_sweep_ledger(self, tmp_path):
        events = _ledger_sweep(tmp_path)
        for event in events:
            assert validate_event(event) == [], event
        ends = [e for e in events if e["event"] == "point_end"]
        assert [e["cache"] for e in ends if e["index"] == 0] == ["hit"]
        failed = [e for e in ends if e["index"] == 1]
        assert [e["attempt"] for e in failed] == [0, 1]
        assert all(e["error"] == "RuntimeError: boom" for e in failed)
        assert all("Traceback" in e["traceback"] for e in failed)
        assert all("key" in e for e in ends)
        beats = [e for e in events if e["event"] == "point_heartbeat"]
        assert beats and {e["index"] for e in beats} == {2}
        assert {e["event"] for e in events} == {
            "sweep_start", "point_start", "point_heartbeat", "point_end", "sweep_end"
        }
