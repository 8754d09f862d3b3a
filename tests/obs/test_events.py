"""Event schema: envelope validation, canonical dump, reader errors."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    EVENT_KINDS,
    SCHEMA_VERSION,
    EventWriter,
    dump_event,
    is_event,
    make_event,
    read_events,
)


class TestMakeEvent:
    def test_envelope_fields(self):
        event = make_event("step", {"step": 3, "deficit": 7})
        assert event["schema_version"] == SCHEMA_VERSION
        assert event["event"] == "step"
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
            assert make_event(kind, {})["event"] == kind


class TestCanonicalDump:
    def test_sorted_compact_serialization(self):
        event = make_event("step", {"b": 2, "a": 1})
        text = dump_event(event)
        assert text == '{"a":1,"b":2,"event":"step","schema_version":1}'

    def test_nan_rejected(self):
        event = make_event("step", {"x": float("nan")})
        with pytest.raises(ValueError):
            dump_event(event)


class TestEventWriter:
    def test_writes_canonical_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            writer = EventWriter(handle)
            writer.write(make_event("run_start", {"n": 4}))
            writer.write(make_event("run_end", {"success": True}))
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
            writer.write(make_event("run_start", {}))
            writer.write(make_event("step", {"step": 0}))
            writer.write(make_event("step", {"step": 1}))
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
