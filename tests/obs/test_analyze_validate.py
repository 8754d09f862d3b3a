"""Replay validation catches seeded faults and passes real traces.

The acceptance contract: mutate a valid trace four ways — capacity
overflow, non-possessed send, regressed have-set, unmet want — and the
validator names the offending step and invariant for each.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

import pytest

from repro.heuristics import standard_heuristics
from repro.cli import main
from repro.obs import RecordingTracer, dump_event, make_event
from repro.obs.analyze import validate_events
from repro.sim import run_heuristic
from repro.topology import random_graph
from repro.workloads import single_file


def _violations(report, invariant: str):
    return [v for v in report.violations if v.invariant == invariant]


# ----------------------------------------------------------------------
# A tiny handcrafted trace (2 vertices, arcs both ways, 2 tokens) whose
# mutations can each trigger exactly the targeted invariant.
# ----------------------------------------------------------------------
def _tiny_instance() -> Dict[str, Any]:
    return {
        "name": "tiny",
        "num_vertices": 2,
        "num_tokens": 2,
        "arcs": [[0, 1, 2], [1, 0, 2]],
        "have": {"0": [0, 1]},
        "want": {"1": [0, 1]},
    }


def _tiny_trace() -> List[Dict[str, Any]]:
    return [
        make_event(
            "run_start",
            {
                "run": 0,
                "engine": "sim",
                "heuristic": "handmade",
                "problem": "tiny",
                "n": 2,
                "tokens": 2,
                "arcs": 2,
                "max_steps": 10,
                "total_deficit": 2,
                "instance": _tiny_instance(),
            },
        ),
        make_event(
            "step",
            {
                "run": 0,
                "step": 0,
                "sends": 1,
                "moves": 2,
                "gained": 2,
                "deficit": 0,
                "deficit_by_vertex": [0, 0],
                "holder_hist": [[2, 2]],
                "arc_util": 0.5,
                "transfers": [[0, 1, [0, 1]]],
            },
        ),
        make_event(
            "run_end",
            {"run": 0, "success": True, "makespan": 1, "bandwidth": 2},
        ),
    ]


class TestValidTraces:
    def test_handmade_trace_passes(self):
        report = validate_events(_tiny_trace())
        assert report.ok, report.render()
        assert report.runs_checked == 1
        assert report.steps_checked == 1

    def test_real_engine_traces_pass(self):
        problem = single_file(random_graph(12, random.Random(3)), file_tokens=6)
        tracer = RecordingTracer()
        for heuristic in standard_heuristics():
            run_heuristic(problem, heuristic, seed=3, tracer=tracer)
        report = validate_events(tracer.events)
        assert report.ok, report.render()
        assert report.runs_checked == len(standard_heuristics())
        assert report.steps_checked > 0


class TestSeededFaults:
    def test_capacity_overflow_named_with_step(self):
        events = _tiny_trace()
        # The run sends 2 tokens on arc (0, 1); shrink its capacity to 1.
        events[0]["instance"]["arcs"][0] = [0, 1, 1]
        report = validate_events(events)
        hits = _violations(report, "arc-capacity")
        assert len(hits) == 1
        assert hits[0].step == 0
        assert "capacity 1" in hits[0].message

    def test_non_possessed_send_named_with_step(self):
        events = _tiny_trace()
        # Vertex 1 starts empty; claim it sent token 0 back at step 0.
        # Arc (1, 0) exists with room, so only possession is violated
        # (the replayed aggregates are patched to stay consistent).
        events[1]["transfers"] = [[0, 1, [0, 1]], [1, 0, [0]]]
        events[1]["sends"] = 2
        events[1]["moves"] = 3
        report = validate_events(events)
        hits = _violations(report, "sender-possession")
        assert len(hits) == 1
        assert hits[0].step == 0
        assert "vertex 1" in hits[0].message
        assert "[0]" in hits[0].message

    def test_regressed_have_set_named_with_step(self):
        events = _tiny_trace()
        # Append a second step whose reported deficit *rises* for vertex 1.
        events.insert(
            2,
            make_event(
                "step",
                {
                    "run": 0,
                    "step": 1,
                    "sends": 0,
                    "moves": 0,
                    "gained": 0,
                    "deficit": 1,
                    "deficit_by_vertex": [0, 1],
                    "holder_hist": [[2, 2]],
                    "arc_util": 0.0,
                    "transfers": [],
                },
            ),
        )
        events[-1]["makespan"] = 2
        report = validate_events(events)
        hits = _violations(report, "monotone-have")
        assert len(hits) == 1
        assert hits[0].step == 1
        assert "rose 0 -> 1" in hits[0].message

    def test_unmet_want_named(self):
        events = _tiny_trace()
        # Only token 0 is delivered, yet run_end still claims success.
        events[1]["transfers"] = [[0, 1, [0]]]
        events[1]["moves"] = 1
        events[1]["gained"] = 1
        events[1]["deficit"] = 1
        events[1]["deficit_by_vertex"] = [0, 1]
        events[2]["bandwidth"] = 1
        report = validate_events(events)
        hits = _violations(report, "final-want")
        assert len(hits) == 1
        assert "vertex 1" in hits[0].message
        assert "[1]" in hits[0].message


class TestStructureAndConsistency:
    def test_inconsistent_step_aggregates_flagged(self):
        events = _tiny_trace()
        events[1]["gained"] = 7
        report = validate_events(events)
        hits = _violations(report, "step-consistency")
        assert any("gained=7" in v.message for v in hits)

    def test_wrong_run_end_aggregates_flagged(self):
        events = _tiny_trace()
        events[2]["makespan"] = 9
        report = validate_events(events)
        hits = _violations(report, "final-want")
        assert any("makespan=9" in v.message for v in hits)

    def test_truncated_run_flagged(self):
        events = _tiny_trace()[:-1]
        report = validate_events(events)
        hits = _violations(report, "trace-structure")
        assert any("no run_end" in v.message for v in hits)

    def test_schema_violations_named_with_run_and_step(self):
        events = _tiny_trace()
        del events[1]["moves"]
        events[1]["bogus"] = 1
        events[2]["success"] = "yes"
        report = validate_events(events)
        assert [(v.run, v.step, v.invariant, v.message) for v in report.violations] == [
            (0, 0, "trace-structure",
             "record breaks the event schema: step: missing required field 'moves'"),
            (0, 0, "trace-structure",
             "record breaks the event schema: step: undeclared field 'bogus'"),
            (0, None, "trace-structure",
             "record breaks the event schema: run_end: field 'success' is not bool: 'yes'"),
        ]

    def test_schema_violation_fails_verify_and_attribute(self, tmp_path, capsys):
        events = _tiny_trace()
        del events[1]["moves"]
        events[1]["bogus"] = 1
        path = tmp_path / "t.jsonl"
        path.write_text("".join(dump_event(e) + "\n" for e in events))
        assert main(["trace-verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "run 0 step 0: [trace-structure] record breaks the event schema: " \
            "step: missing required field 'moves'" in out
        assert "step: undeclared field 'bogus'" in out
        assert main(["trace-attribute", str(path)]) == 2
        assert "missing required field 'moves'" in capsys.readouterr().err

    def test_missing_instance_flagged(self):
        events = _tiny_trace()
        del events[0]["instance"]
        report = validate_events(events)
        hits = _violations(report, "trace-structure")
        assert any("no instance payload" in v.message for v in hits)

    def test_false_failure_claim_flagged(self):
        events = _tiny_trace()
        events[2]["success"] = False
        report = validate_events(events)
        hits = _violations(report, "final-want")
        assert any("claims failure" in v.message for v in hits)

    def test_dynamic_run_skips_arc_checks_with_note(self):
        events = _tiny_trace()
        events[0]["engine"] = "dynamic"
        # An undeclared arc: fatal for sim runs, expected churn for
        # dynamic ones.  Keep possession/aggregates consistent.
        events[1]["transfers"] = [[0, 1, [0, 1]], [0, 1, [0]]]
        events[1]["sends"] = 2
        events[1]["moves"] = 3
        report = validate_events(events)
        assert _violations(report, "arc-capacity") == []
        assert any("dynamic" in note for note in report.notes)

    def test_render_names_step_and_invariant(self):
        events = _tiny_trace()
        events[0]["instance"]["arcs"][0] = [0, 1, 1]
        text = validate_events(events).render()
        assert "step 0" in text
        assert "[arc-capacity]" in text


class TestMalformedInput:
    @pytest.mark.parametrize(
        "entry",
        [
            [99, 1, [0]],
            [0, 99, [0]],
            [-1, 1, [0]],
            [0, 1],
            [0, 1, [5]],
            [0, 1, [-1]],
            [0, 1, 0],
            "0 1 [0]",
            # Non-integer fields are never read as some other vertex or
            # token: 0.7 is not token 0, "01" is not tokens 0 and 1.
            [0, 1, [0.7, 1]],
            [0, 1, "01"],
            ["0", 1, [0, 1]],
            [0.0, 1, [0, 1]],
            [True, 1, [0, 1]],
            [0, 1, [0, True]],
        ],
    )
    def test_malformed_transfer_is_a_structure_fault(self, entry):
        events = _tiny_trace()
        events[1]["transfers"] = [entry]
        report = validate_events(events)
        first = report.violations[0]
        assert (first.step, first.invariant) == (0, "trace-structure")
        assert "malformed transfer" in first.message

    def test_negative_vertex_caught_in_dynamic_runs(self):
        # Dynamic runs skip the arc check that would otherwise catch a
        # negative sender; the entry check must not depend on it.
        events = _tiny_trace()
        events[0]["engine"] = "dynamic"
        events[1]["transfers"] = [[-2, 1, [0, 1]]]
        hits = _violations(validate_events(events), "trace-structure")
        assert [v.step for v in hits] == [0]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("arcs", [[0, 1, 2.5], [1, 0, 2]]),
            ("arcs", [[0, 1, True], [1, 0, 2]]),
            ("have", {"0": [0, 1.9]}),
            ("have", {"0": [0, True]}),
            ("have", {"0": [0, 2]}),
            ("want", {"1": "01"}),
            ("num_tokens", 2.0),
        ],
    )
    def test_non_integer_instance_field_is_undecodable(self, key, value):
        events = _tiny_trace()
        events[0]["instance"][key] = value
        hits = _violations(validate_events(events), "trace-structure")
        assert len(hits) == 1
        assert hits[0].step is None
        assert "undecodable instance payload" in hits[0].message

    @pytest.mark.parametrize("arc", [[0, 99, 1], [-1, 0, 1]])
    def test_out_of_range_arc_is_undecodable(self, arc):
        events = _tiny_trace()
        events[0]["instance"]["arcs"].append(arc)
        hits = _violations(validate_events(events), "trace-structure")
        assert len(hits) == 1
        assert "undecodable instance payload" in hits[0].message
        assert "out of range" in hits[0].message


@pytest.mark.parametrize("seed", [0, 11])
def test_multi_run_traces_replay_per_run(seed):
    problem = single_file(random_graph(8, random.Random(seed)), file_tokens=4)
    tracer = RecordingTracer()
    for heuristic in standard_heuristics()[:2]:
        run_heuristic(problem, heuristic, seed=seed, tracer=tracer)
    report = validate_events(tracer.events)
    assert report.ok, report.render()
    assert report.runs_checked == 2
