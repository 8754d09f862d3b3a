"""Event schema: make_event enforcement, canonical dump, reader errors."""

from __future__ import annotations

import json

import pytest

from repro.core.problem import Problem
from repro.heuristics import make_heuristic
from repro.obs import (
    EVENT_KINDS,
    SCHEMA_VERSION,
    EventWriter,
    RecordingTracer,
    dump_event,
    is_event,
    make_event,
    read_events,
)
from repro.sim import run_heuristic
from repro.sim.engine import emit_step_event
from repro.sim.state import SimState
from tests.conftest import complete_event


class TestMakeEvent:
    def test_envelope_fields(self):
        event = make_event("stall", {"step": 3, "consecutive": 7})
        assert event["schema_version"] == SCHEMA_VERSION
        assert event["event"] == "stall"
        assert event["step"] == 3
        assert is_event(event)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            make_event("frobnicate", {})

    def test_envelope_shadowing_rejected(self):
        with pytest.raises(ValueError, match="shadow"):
            make_event("step", {"event": "oops"})
        with pytest.raises(ValueError, match="shadow"):
            make_event("step", {"schema_version": 99})

    def test_all_kinds_constructible(self):
        for kind in EVENT_KINDS:
            assert complete_event(kind)["event"] == kind


class TestMakeEventEnforcesSchema:
    """make_event is the one enforcement point of EVENT_SCHEMAS: every
    emission (tracers, the run ledger, attribution) is built through it."""

    def test_undeclared_field_rejected(self):
        fields = {"success": True, "makespan": 3, "bandwidth": 4, "bogus": 1}
        with pytest.raises(ValueError, match="run_end: undeclared field 'bogus'"):
            make_event("run_end", fields)

    def test_missing_required_field_rejected(self):
        with pytest.raises(
            ValueError, match="run_end: missing required field 'bandwidth'"
        ):
            make_event("run_end", {"success": True, "makespan": 3})

    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError, match="stall: field 'consecutive' is not int"):
            make_event("stall", {"step": 1, "consecutive": "two"})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ValueError, match="stall: field 'step' is not int"):
            make_event("stall", {"step": True, "consecutive": 1})

    def test_unknown_kind_with_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind 'not_a_kind'"):
            make_event("not_a_kind", {"x": 1})

    def test_envelope_collision_rejected(self):
        # Every declared field is present and well typed; the stray
        # envelope key alone is the defect.
        with pytest.raises(ValueError, match="shadow the schema envelope"):
            make_event("stall", {"step": 1, "consecutive": 1, "event": "oops"})

    def test_float_field_accepts_int(self):
        event = complete_event("point_end", wall_s=2)
        assert event["wall_s"] == 2

    def test_every_problem_is_named(self):
        with pytest.raises(ValueError) as excinfo:
            make_event("stall", {"step": "one", "zzz": 1})
        assert str(excinfo.value) == (
            "stall: missing required field 'consecutive'; "
            "stall: field 'step' is not int: 'one'; "
            "stall: undeclared field 'zzz'"
        )

    def test_run_index_must_be_an_int(self):
        with pytest.raises(ValueError, match="envelope field 'run' is not int"):
            complete_event("run_end", run="0")

    def test_step_wrapper_extras_are_checked(self):
        # emit_step_event folds a caller's ``extra`` dict into the step
        # fields; make_event holds the merged event to the schema.
        problem = Problem.build(3, 2, [(0, 1, 1), (1, 2, 1)], {0: [0, 1]}, {2: [0, 1]})
        timestep = run_heuristic(problem, make_heuristic("round_robin")).schedule.steps[0]
        state = SimState(problem)
        before = state.version
        state.apply_timestep(timestep)
        tracer = RecordingTracer()
        emit_step_event(tracer, problem, state, timestep, 0, before, extra={"facts_learned": 3})
        assert tracer.events[0]["facts_learned"] == 3
        with pytest.raises(ValueError, match="step: undeclared field 'bogus'"):
            emit_step_event(tracer, problem, state, timestep, 0, before, extra={"bogus": 1})


class TestCanonicalDump:
    def test_sorted_compact_serialization(self):
        event = make_event("stall", {"step": 2, "consecutive": 1})
        text = dump_event(event)
        assert text == '{"consecutive":1,"event":"stall","schema_version":1,"step":2}'

    def test_nan_rejected(self):
        event = complete_event("point_end", wall_s=float("nan"))
        with pytest.raises(ValueError):
            dump_event(event)


class TestEventWriter:
    def test_writes_canonical_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            writer = EventWriter(handle)
            writer.write(complete_event("run_start", n=4))
            writer.write(complete_event("run_end", success=True))
        events = read_events(str(path))
        assert [e["event"] for e in events] == ["run_start", "run_end"]

    def test_rejects_bare_dicts(self, tmp_path):
        with open(tmp_path / "t.jsonl", "w", encoding="utf-8") as handle:
            with pytest.raises(ValueError, match="schema envelope"):
                EventWriter(handle).write({"no": "envelope"})


class TestReadEvents:
    def test_kind_filter(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            writer = EventWriter(handle)
            writer.write(complete_event("run_start"))
            writer.write(complete_event("step", step=0))
            writer.write(complete_event("step", step=1))
        assert len(read_events(str(path), kind="step")) == 2
        assert read_events(str(path), kind="stall") == []

    def test_record_without_envelope_rejected_with_location(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text(json.dumps({"figure": "f", "ok": True}) + "\n")
        with pytest.raises(ValueError, match="legacy.jsonl:1: record lacks"):
            read_events(str(path))

    def test_non_json_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{}\nnot json\n")
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            read_events(str(path))
