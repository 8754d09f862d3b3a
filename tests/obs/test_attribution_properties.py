"""Attribution invariants, seeded-fault localization, and exports.

The acceptance contract of the causal layer, pinned four ways:

* the critical path tiles the run — its length equals the makespan;
* every on-path transfer carries zero slack (and none is negative);
* the blocking categories partition the idle vertex-steps exactly;
* the gap-decomposition terms sum to ``makespan − max(bounds)``, to
  the integer, for successful, failed, and negative-gap runs alike.

Plus the refusal contract: a mutated transfer, a dropped arrival and a
malformed entry must abort attribution loudly *at the fault step*,
never produce a confidently wrong forest.
"""

from __future__ import annotations

import copy
import json
import random
from collections import Counter
from typing import Any, Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.problem import Problem
from repro.heuristics import standard_heuristics
from repro.obs import RecordingTracer
from repro.obs.analyze import (
    BLOCKING_CATEGORIES,
    GAP_SLACK_KEY,
    Arrival,
    AttributionError,
    CausalError,
    DecodedInstance,
    attribute_events,
    blocking_table,
    build_forest,
    chrome_trace,
    critical_path,
    dot_forest,
    split_runs,
    summary_event,
    transfer_slack,
    validate_events,
)
from repro.obs.events import make_event, read_events, validate_event
from repro.sim import run_heuristic
from repro.topology import random_graph
from repro.workloads import single_file
from tests.conftest import make_random_problem


def _engine_events(problem, seed: int, count: int | None = None):
    tracer = RecordingTracer()
    for heuristic in standard_heuristics()[:count]:
        run_heuristic(problem, heuristic, seed=seed, tracer=tracer)
    return tracer.events


def _oracle_transfer_slack(forest):
    """Slack by explicit child lists: ``F`` is the max of the arrival's
    own deadline (when wanted) and its children's ``F``, else
    ``step + 1``."""
    want = forest.instance.want_masks
    children: Dict[Any, List[Any]] = {}
    for arrival in forest.arrivals.values():
        if forest.acquired_at(arrival.src, arrival.token) >= 0:
            parent = forest.arrivals[(arrival.src, arrival.token)]
            children.setdefault((parent.vertex, parent.token), []).append(arrival)
    f_value: Dict[Any, int] = {}
    for arrival in sorted(
        forest.arrivals.values(), key=lambda a: a.step, reverse=True
    ):
        key = (arrival.vertex, arrival.token)
        candidates = [f_value[(c.vertex, c.token)] for c in children.get(key, ())]
        if want[arrival.vertex] >> arrival.token & 1:
            candidates.append(arrival.step + 1)
        f_value[key] = max(candidates) if candidates else arrival.step + 1
    return {
        (a.vertex, a.token, a.step): forest.makespan - f_value[(a.vertex, a.token)]
        for a in forest.arrivals.values()
    }


def _oracle_arrivals(run):
    """Arrivals recomputed token by token: every token of every transfer
    in emission order, the first delivery to a vertex that lacked it."""
    instance = run.start["instance"]
    have = [0] * instance["num_vertices"]
    for v, tokens in instance.get("have", {}).items():
        for token in tokens:
            have[int(v)] |= 1 << token
    arrivals = {}
    for step, event in enumerate(run.steps):
        after = list(have)
        for src, dst, sent in event["transfers"]:
            for token in sent:
                if not after[dst] >> token & 1:
                    after[dst] |= 1 << token
                    arrivals[(dst, token)] = Arrival(dst, token, step, src)
        have = after
    return arrivals


def _check_invariants(events) -> None:
    """Assert the four attribution invariants over every run."""
    report = attribute_events(events)
    assert not report.skipped
    _header, runs = split_runs(events)
    assert len(report.runs) == len(runs)
    for att, run in zip(report.runs, runs):
        forest = build_forest(run)
        assert forest.arrivals == _oracle_arrivals(run)

        # 1. The critical path tiles the timesteps exactly once.
        assert att.makespan == forest.makespan
        assert att.path.length == att.makespan

        # 2. On-path transfers have zero slack; no slack is negative.
        slacks = transfer_slack(forest)
        assert slacks == _oracle_transfer_slack(forest)
        assert all(s >= 0 for s in slacks.values())
        for hop in att.path.hops:
            assert slacks[(hop.dst, hop.token, hop.step)] == 0
        assert att.zero_slack == sum(1 for s in slacks.values() if s == 0)
        assert att.max_slack == max(slacks.values(), default=0)

        # 3. The blocking table covers each idle vertex-step exactly
        #    once (idleness re-derived here from the possession
        #    snapshots, independently of the classifier).
        table = blocking_table(forest)
        idle = set()
        want = forest.instance.want_masks
        for step in range(forest.makespan):
            before = forest.have_before[step]
            after = forest.have_before[step + 1]
            for v in range(forest.instance.num_vertices):
                needed = want[v] & ~before[v]
                if needed and not (after[v] & needed):
                    idle.add((v, step))
        assert set(table) == idle
        assert set(table.values()) <= set(BLOCKING_CATEGORIES)
        assert att.blocking == dict(Counter(table.values()))

        # 4. The gap decomposition is exact and well-typed: category
        #    terms are positive, only bound-slack may go negative.
        assert att.gap == att.makespan - max(
            att.bound_lookahead, att.bound_diameter
        )
        assert sum(att.gap_terms.values()) == att.gap
        assert set(att.gap_terms) <= set(BLOCKING_CATEGORIES) | {GAP_SLACK_KEY}
        for category in BLOCKING_CATEGORIES:
            if category in att.gap_terms:
                assert att.gap_terms[category] > 0


class TestAttributionInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_instances_any_heuristic(self, seed):
        rng = random.Random(seed)
        problem = make_random_problem(rng, max_vertices=6, max_tokens=3)
        heuristics = standard_heuristics()
        heuristic = heuristics[seed % len(heuristics)]
        tracer = RecordingTracer()
        run_heuristic(problem, heuristic, seed=seed % 1000, tracer=tracer)
        _check_invariants(tracer.events)

    def test_multi_run_engine_trace(self):
        problem = single_file(random_graph(12, random.Random(3)), file_tokens=6)
        _check_invariants(_engine_events(problem, seed=3))

    def test_attribution_is_deterministic(self):
        problem = single_file(random_graph(10, random.Random(7)), file_tokens=5)
        first = attribute_events(_engine_events(problem, seed=7)).as_dict()
        second = attribute_events(_engine_events(problem, seed=7)).as_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )


# ----------------------------------------------------------------------
# A handcrafted 3-vertex chain (0 -> 1 -> 2, one token) whose two steps
# are exactly the token's two hops: the whole run is critical path.
# ----------------------------------------------------------------------
def _chain_instance() -> Dict[str, Any]:
    return {
        "name": "chain",
        "num_vertices": 3,
        "num_tokens": 1,
        "arcs": [[0, 1, 1], [1, 2, 1]],
        "have": {"0": [0]},
        "want": {"2": [0]},
    }


def _chain_trace() -> List[Dict[str, Any]]:
    return [
        make_event(
            "run_start",
            {
                "run": 0,
                "engine": "sim",
                "heuristic": "handmade",
                "problem": "chain",
                "n": 3,
                "tokens": 1,
                "arcs": 2,
                "max_steps": 10,
                "total_deficit": 1,
                "instance": _chain_instance(),
            },
        ),
        make_event(
            "step",
            {
                "run": 0,
                "step": 0,
                "sends": 1,
                "moves": 1,
                "gained": 1,
                "deficit": 1,
                "deficit_by_vertex": [0, 0, 1],
                "holder_hist": [[2, 1]],
                "arc_util": 0.5,
                "transfers": [[0, 1, [0]]],
            },
        ),
        make_event(
            "step",
            {
                "run": 0,
                "step": 1,
                "sends": 1,
                "moves": 1,
                "gained": 1,
                "deficit": 0,
                "deficit_by_vertex": [0, 0, 0],
                "holder_hist": [[3, 1]],
                "arc_util": 0.5,
                "transfers": [[1, 2, [0]]],
            },
        ),
        make_event(
            "run_end",
            {"run": 0, "success": True, "makespan": 2, "bandwidth": 2},
        ),
    ]


# ----------------------------------------------------------------------
# Two senders, token lists in descending order: vertices 0 and 1 both
# send token 2 (and 1) to vertex 2 in step 0, and vertex 2 relays token
# 2 to vertex 3 in step 1.  The first sender in emission order parents
# each arrival, whatever order its token list is in.
# ----------------------------------------------------------------------
def _two_sender_trace() -> List[Dict[str, Any]]:
    instance = {
        "name": "two-senders",
        "num_vertices": 4,
        "num_tokens": 3,
        "arcs": [[0, 2, 3], [1, 2, 3], [2, 3, 1]],
        "have": {"0": [0, 1, 2], "1": [1, 2]},
        "want": {"2": [0, 1, 2], "3": [2]},
    }
    start = {
        "run": 0,
        "engine": "sim",
        "heuristic": "handmade",
        "problem": "two-senders",
        "n": 4,
        "tokens": 3,
        "arcs": 3,
        "max_steps": 10,
        "total_deficit": 4,
        "instance": instance,
    }
    steps = [
        {
            "sends": 2,
            "moves": 5,
            "gained": 3,
            "deficit": 1,
            "deficit_by_vertex": [0, 0, 0, 1],
            "holder_hist": [[2, 1], [3, 2]],
            "arc_util": 5 / 7,
            "transfers": [[1, 2, [2, 1]], [0, 2, [2, 1, 0]]],
        },
        {
            "sends": 1,
            "moves": 1,
            "gained": 1,
            "deficit": 0,
            "deficit_by_vertex": [0, 0, 0, 0],
            "holder_hist": [[2, 1], [3, 1], [4, 1]],
            "arc_util": 1 / 7,
            "transfers": [[2, 3, [2]]],
        },
    ]
    return (
        [make_event("run_start", start)]
        + [make_event("step", {"run": 0, "step": i, **f}) for i, f in enumerate(steps)]
        + [
            make_event(
                "run_end",
                {"run": 0, "success": True, "makespan": 2, "bandwidth": 6},
            )
        ]
    )


def _handmade_trace(
    instance: Dict[str, Any], transfers: List[List[List[Any]]], success: bool
) -> List[Dict[str, Any]]:
    """A one-run trace of ``instance`` sending ``transfers`` per step, its
    step aggregates filled in by a token-by-token replay."""
    n, m = instance["num_vertices"], instance["num_tokens"]
    have = [set(instance["have"].get(str(v), ())) for v in range(n)]
    want = [set(instance["want"].get(str(v), ())) for v in range(n)]

    def deficits() -> List[int]:
        return [len(want[v] - have[v]) for v in range(n)]

    start = {
        "run": 0,
        "engine": "sim",
        "heuristic": "handmade",
        "problem": instance["name"],
        "n": n,
        "tokens": m,
        "arcs": len(instance["arcs"]),
        "max_steps": 10,
        "total_deficit": sum(deficits()),
        "instance": instance,
    }
    events = [make_event("run_start", start)]
    bandwidth = 0
    for step, sent in enumerate(transfers):
        after = [set(h) for h in have]
        for _src, dst, tokens in sent:
            after[dst] |= set(tokens)
        gained = sum(len(a - h) for a, h in zip(after, have))
        have = after
        holders = Counter(sum(t in h for h in have) for t in range(m))
        moves = sum(len(tokens) for _src, _dst, tokens in sent)
        bandwidth += moves
        fields = {
            "run": 0,
            "step": step,
            "sends": len(sent),
            "moves": moves,
            "gained": gained,
            "deficit": sum(deficits()),
            "deficit_by_vertex": deficits(),
            "holder_hist": sorted([c, k] for c, k in holders.items()),
            "arc_util": len(sent) / len(instance["arcs"]),
            "transfers": sent,
        }
        events.append(make_event("step", fields))
    end = {"run": 0, "success": success, "makespan": len(transfers), "bandwidth": bandwidth}
    return events + [make_event("run_end", end)]


# ----------------------------------------------------------------------
# 130 tokens (three planes) over five vertices, so the arrival index
# ``vertex * m + token`` and the arc ids ``src * n + dst`` span several
# planes.  Vertex 2 gets tokens 0..69 from vertex 0 and 70..129 from
# vertex 1 (whose 64..69 arrive second, so are not fresh); vertex 3
# relays seven of them, and token 64 reaches vertex 4 over three hops
# while the one-token arc from vertex 0 carries an unwanted token.
# ----------------------------------------------------------------------
def _wide_instance() -> Dict[str, Any]:
    return {
        "name": "wide",
        "num_vertices": 5,
        "num_tokens": 130,
        "arcs": [[0, 2, 70], [1, 2, 70], [2, 3, 65], [3, 4, 3], [0, 4, 1]],
        "have": {"0": list(range(130)), "1": list(range(64, 130))},
        "want": {"2": list(range(130)), "3": [0, 63, 64, 65, 127, 128, 129], "4": [64, 129]},
    }


WIDE_TRANSFERS = [
    [[0, 2, list(range(70))], [1, 2, list(range(64, 130))], [0, 4, [129]]],
    [[2, 3, [0, 63, 64, 65, 127, 128, 129]], [0, 4, [5]]],
    [[3, 4, [64, 129]]],
]


class TestHandmadeTraces:
    def test_chain_is_all_critical_path(self):
        report = attribute_events(_chain_trace())
        (att,) = report.runs
        assert att.path.length == att.makespan == 2
        assert len(att.path.hops) == 2
        assert att.path.wait_steps == 0
        assert att.path.target_vertex == 2 and att.path.target_token == 0
        # Two hops on a diameter-2 chain: the bound is met exactly.
        assert att.gap == 0 and att.gap_terms == {}
        assert sum(att.gap_terms.values()) == att.gap

    def test_failed_run_gets_degenerate_path_of_full_length(self):
        # One step in which nothing moves, then an honest failure: the
        # path is a single wait segment still tiling steps 0..0.
        events = _chain_trace()
        events[1].update(
            {"transfers": [], "sends": 0, "moves": 0, "gained": 0}
        )
        del events[2]  # drop the second step entirely
        events[-1].update({"success": False, "makespan": 1, "bandwidth": 0})
        report = attribute_events(events)
        (att,) = report.runs
        assert not att.success
        assert att.path.length == att.makespan == 1
        assert att.path.hops == []
        assert att.path.wait_steps == 1
        assert sum(att.gap_terms.values()) == att.gap

    def test_first_sender_parents_regardless_of_token_order(self):
        events = _two_sender_trace()
        _check_invariants(events)
        _header, (run,) = split_runs(events)
        forest = build_forest(run)
        assert forest.arrivals == {
            (2, 2): Arrival(2, 2, 0, 1),
            (2, 1): Arrival(2, 1, 0, 1),
            (2, 0): Arrival(2, 0, 0, 0),
            (3, 2): Arrival(3, 2, 1, 2),
        }
        (att,) = attribute_events(events).runs
        assert [(h.src, h.dst, h.token) for h in att.path.hops] == [(1, 2, 2), (2, 3, 2)]
        # Every token sent is one span, the redundant ones included.
        spans = [e for e in chrome_trace(events)["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 6

    def test_wide_universe_spans_planes(self):
        events = _handmade_trace(_wide_instance(), WIDE_TRANSFERS, success=True)
        _check_invariants(events)
        _header, (run,) = split_runs(events)
        forest = build_forest(run)
        assert len(forest.arrivals) == 130 + 7 + 1 + 1 + 1
        assert forest.arrivals[(2, 69)] == Arrival(2, 69, 0, 0)
        assert forest.arrivals[(2, 70)] == Arrival(2, 70, 0, 1)
        assert forest.arrivals[(4, 64)] == Arrival(4, 64, 2, 3)
        pairs = [(1, 64), (2, 129), (3, 129), (4, 64)]
        assert [forest.acquired_at(v, t) for v, t in pairs] == [-1, 0, 1, 2]
        with pytest.raises(KeyError):
            forest.acquired_at(4, 63)
        # Arc loads are keyed by the arc id ``src * n + dst``.
        assert forest.arc_load[0] == {0 * 5 + 2: 70, 1 * 5 + 2: 66, 0 * 5 + 4: 1}
        assert forest.arc_load[2] == {3 * 5 + 4: 2}
        assert blocking_table(forest) == {
            (3, 0): "waiting-for-token",
            (4, 1): "arc-capacity-saturated",
        }
        (att,) = attribute_events(events).runs
        assert [(h.step, h.src, h.dst, h.token) for h in att.path.hops] == [
            (0, 0, 2, 64),
            (1, 2, 3, 64),
            (2, 3, 4, 64),
        ]
        slacks = transfer_slack(forest)
        assert slacks[(2, 64, 0)] == slacks[(3, 64, 1)] == 0
        assert slacks[(3, 0, 1)] == 1

    def test_wide_failed_run_waits_on_the_missing_token(self):
        # Vertex 4 never gets token 64: the path waits on it throughout.
        transfers = [WIDE_TRANSFERS[0], WIDE_TRANSFERS[1], []]
        events = _handmade_trace(_wide_instance(), transfers, success=False)
        _check_invariants(events)
        (att,) = attribute_events(events).runs
        assert att.path.hops == [] and att.path.wait_steps == 3
        assert (att.path.target_vertex, att.path.target_token) == (4, 64)

    def test_wide_engine_runs(self):
        problem = single_file(random_graph(8, random.Random(9)), file_tokens=70)
        _check_invariants(_engine_events(problem, seed=9))

    def test_dynamic_run_is_skipped_not_errored(self):
        events = _chain_trace()
        events[0]["engine"] = "dynamic"
        report = attribute_events(events)
        assert report.runs == []
        (skip,) = report.skipped
        assert skip.run == 0
        assert "dynamic" in skip.reason


#: Step-0 corruptions of the chain trace, as field updates.
SEEDED_FAULTS: Dict[str, Dict[str, Any]] = {
    # Vertex 1 "sends" the token it has not yet received.
    "mutated-transfer": {"transfers": [[1, 2, [0]]]},
    # The delivery is deleted and the step kept self-consistent: the
    # fault first bites at step 1, where the relay sends what it lacks.
    "dropped-arrival": {"transfers": [], "sends": 0, "moves": 0, "gained": 0},
    # Malformed entries: out-of-range endpoints and a short entry.
    "src-out-of-range": {"transfers": [[99, 1, [0]]]},
    "dst-out-of-range": {"transfers": [[0, 99, [0]]]},
    "short-entry": {"transfers": [[0, 1]]},
}
MALFORMED = ["src-out-of-range", "dst-out-of-range", "short-entry"]


def _seeded(fault: str) -> List[Dict[str, Any]]:
    events = _chain_trace()
    events[1].update(SEEDED_FAULTS[fault])
    return events


class TestSeededFaults:
    def test_mutated_transfer_fails_at_fault_step(self):
        # Attribution must refuse at step 0, where the fault is.
        with pytest.raises(AttributionError) as excinfo:
            attribute_events(_seeded("mutated-transfer"))
        error = excinfo.value
        assert error.run == 0
        assert error.step == 0
        assert error.invariant == "sender-possession"
        assert "did not possess" in str(error)

    def test_dropped_arrival_fails_at_first_broken_step(self):
        with pytest.raises(AttributionError) as excinfo:
            attribute_events(_seeded("dropped-arrival"))
        error = excinfo.value
        assert error.run == 0
        assert error.step == 1
        assert error.invariant == "sender-possession"

    @pytest.mark.parametrize("fault", sorted(SEEDED_FAULTS))
    def test_forest_builder_localizes_without_validation(self, fault):
        # build_forest is the last line of defense when callers skip
        # validate_events: it refuses at the validator's first step fault.
        events = _seeded(fault)
        first = next(
            v for v in validate_events(events).violations if v.step is not None
        )
        _header, (run,) = split_runs(events)
        with pytest.raises(CausalError) as excinfo:
            build_forest(run)
        error = excinfo.value
        assert (error.run, error.step, error.invariant) == (
            first.run,
            first.step,
            first.invariant,
        )

    @pytest.mark.parametrize("fault", MALFORMED)
    def test_malformed_transfer_is_a_structure_fault(self, fault):
        events = _seeded(fault)
        first = validate_events(events).violations[0]
        assert (first.run, first.step, first.invariant) == (0, 0, "trace-structure")
        assert "malformed transfer" in first.message
        with pytest.raises(AttributionError) as excinfo:
            attribute_events(events)
        error = excinfo.value
        assert (error.run, error.step, error.invariant) == (0, 0, "trace-structure")

    def test_open_run_still_has_a_forest(self):
        # A missing run_end is a run-level fault: it does not block the
        # forest, so scans of a run still being written get causes.
        _header, (run,) = split_runs(_chain_trace()[:-1])
        forest = build_forest(run)
        assert forest.makespan == 2 and not forest.success
        assert critical_path(forest).length == 2

    def test_truncated_trace_refused(self):
        events = _chain_trace()[:-1]
        with pytest.raises(AttributionError) as excinfo:
            attribute_events(events)
        assert excinfo.value.invariant == "trace-structure"
        assert "no run_end" in str(excinfo.value)


class TestInstanceDecodes:
    """A trace's runs over one instance share one decode of it."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        counts: Counter = Counter()
        from_payload = DecodedInstance.from_payload
        from_dict = Problem.from_dict

        def counted_payload(data):
            counts["instance"] += 1
            return from_payload(data)

        def counted_dict(data):
            counts["problem"] += 1
            return from_dict(data)

        monkeypatch.setattr(DecodedInstance, "from_payload", staticmethod(counted_payload))
        monkeypatch.setattr(Problem, "from_dict", staticmethod(counted_dict))
        return counts

    def test_one_instance_decodes_once(self, decodes):
        problem = single_file(random_graph(10, random.Random(2)), file_tokens=4)
        events = _engine_events(problem, seed=2)
        assert len(split_runs(events)[1]) == 5
        assert validate_events(events).ok
        assert decodes == {"instance": 1}
        decodes.clear()
        assert len(attribute_events(events).runs) == 5
        assert decodes == {"instance": 1, "problem": 1}

    def test_alternating_instances_attribute_as_alone(self, decodes):
        problems = [
            single_file(random_graph(10, random.Random(seed)), file_tokens=4)
            for seed in (4, 5)
        ]
        heuristics = standard_heuristics()[:2]
        tracer = RecordingTracer()
        for heuristic in heuristics:
            for problem in problems:
                run_heuristic(problem, heuristic, seed=4, tracer=tracer)
        mixed = attribute_events(tracer.events).runs
        assert decodes == {"instance": 4, "problem": 4}
        alone = []
        for problem in problems:
            alone.append(attribute_events(_engine_events(problem, seed=4, count=2)).runs)
        expected = [alone[0][0], alone[1][0], alone[0][1], alone[1][1]]
        for got, want in zip(mixed, expected):
            assert {**got.as_dict(), "run": 0} == {**want.as_dict(), "run": 0}

    def test_equal_payload_is_still_type_checked(self):
        problem = single_file(random_graph(8, random.Random(6)), file_tokens=3)
        events = _engine_events(problem, seed=6, count=2)
        second = [e for e in events if e["event"] == "run_start"][1]
        second["instance"]["num_tokens"] = float(second["instance"]["num_tokens"])
        (first,) = validate_events(events).violations
        assert (first.run, first.invariant) == (1, "trace-structure")
        assert "undecodable instance payload" in first.message


class TestExports:
    def test_chrome_trace_shape_and_critical_marking(self):
        events = _chain_trace()
        payload = chrome_trace(events, path="chain")
        assert payload["otherData"]["source"] == "chain"
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 2  # one per token-move
        assert {e["cat"] for e in spans} == {"critical-path"}
        names = [
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert names == ["v0", "v1", "v2"]

    def test_chrome_trace_marks_off_path_transfers(self):
        problem = single_file(random_graph(12, random.Random(3)), file_tokens=6)
        payload = chrome_trace(_engine_events(problem, seed=3, count=1))
        cats = {e["cat"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert "critical-path" in cats and "transfer" in cats

    def test_dot_forest_structure(self):
        text = dot_forest(_chain_trace(), path="chain")
        assert text.startswith("digraph dissemination {")
        assert text.count("{") == text.count("}")
        assert 'label="run 0 token 0"' in text
        assert "(root)" in text and "doublecircle" in text
        assert text.count("color=red penwidth=2") == 2  # both hops critical

    def test_exports_are_deterministic(self):
        problem = single_file(random_graph(10, random.Random(5)), file_tokens=4)
        events = _engine_events(problem, seed=5, count=2)
        once = json.dumps(chrome_trace(events), sort_keys=True)
        again = json.dumps(chrome_trace(copy.deepcopy(events)), sort_keys=True)
        assert once == again
        assert dot_forest(events) == dot_forest(copy.deepcopy(events))


class TestSummaryEvent:
    def test_summary_events_conform_to_schema(self):
        problem = single_file(random_graph(12, random.Random(3)), file_tokens=6)
        report = attribute_events(_engine_events(problem, seed=3))
        assert report.runs
        for att in report.runs:
            event = summary_event(att)
            assert event["event"] == "run_attribution"
            assert validate_event(event) == []
            assert event["path_length"] == att.makespan
            assert event["gap"] == sum(event["gap_terms"].values())


# ----------------------------------------------------------------------
# CLI verbs, end to end over a real traced scenario.
# ----------------------------------------------------------------------
@pytest.fixture
def trace_file(tmp_path):
    path = str(tmp_path / "sample.trace.jsonl")
    assert (
        main(
            [
                "trace",
                "random",
                "--seed",
                "11",
                "--size",
                "10",
                "--tokens",
                "5",
                "--heuristic",
                "local",
                "--out",
                path,
            ]
        )
        == 0
    )
    return path


class TestCliTraceAttribute:
    def test_text_report(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["trace-attribute", trace_file]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        assert "bounds:" in out

    def test_json_is_valid_and_deterministic(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["trace-attribute", trace_file, "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["trace-attribute", trace_file, "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["reports"][0]["path"] == trace_file
        for event in payload["events"]:
            assert validate_event(event) == []

    def test_truncated_trace_exits_nonzero(self, trace_file, tmp_path, capsys):
        lines = open(trace_file).read().splitlines()
        torn = tmp_path / "torn.jsonl"
        torn.write_text("\n".join(lines[:-1]) + "\n")
        capsys.readouterr()
        assert main(["trace-attribute", str(torn)]) == 2
        err = capsys.readouterr().err
        assert "trace-attribute refused" in err
        assert "run" in err


class TestCliMalformedTrace:
    @pytest.fixture
    def malformed(self, trace_file, tmp_path):
        events = read_events(trace_file)
        step = next(e for e in events if e["event"] == "step")
        step["transfers"] = [[99, 1, [0]]]
        path = tmp_path / "malformed.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        return str(path)

    def test_verify_names_the_fault(self, malformed, capsys):
        capsys.readouterr()
        assert main(["trace-verify", malformed]) == 1
        captured = capsys.readouterr()
        assert "step 0: [trace-structure] malformed transfer" in captured.out
        assert "Traceback" not in captured.err

    def test_attribute_refuses(self, malformed, capsys):
        capsys.readouterr()
        assert main(["trace-attribute", malformed]) == 2
        err = capsys.readouterr().err
        assert "trace-attribute refused" in err
        assert "[trace-structure]" in err

    def test_export_fails_at_the_fault(self, malformed, capsys):
        capsys.readouterr()
        assert main(["trace-export", malformed]) == 2
        err = capsys.readouterr().err
        assert "trace-export failed" in err
        assert "step 0: [trace-structure]" in err


class TestCliTraceExport:
    def test_chrome_export_round_trips(self, trace_file, tmp_path, capsys):
        out = str(tmp_path / "chrome.json")
        capsys.readouterr()
        assert main(["trace-export", trace_file, "--out", out]) == 0
        with open(out) as handle:
            payload = json.load(handle)
        assert payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ms"

    def test_dot_export_to_stdout(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["trace-export", trace_file, "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph dissemination {")
        assert out.rstrip().endswith("}")
