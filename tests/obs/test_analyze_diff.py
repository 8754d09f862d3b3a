"""Differential trace debugging: first-divergence localization + retrace."""

from __future__ import annotations

import random

import pytest

from repro.core.problem import Problem
from repro.core.schedule import Schedule, Timestep
from repro.core.tokenset import TokenSet
from repro.heuristics import HEURISTIC_FACTORIES
from repro.obs import JsonlTracer, RecordingTracer
from repro.obs.analyze import attribute_trace, diff_traces, retrace_run
from repro.sim import run_heuristic
from repro.sim.engine import HeuristicViolation, StallError
from repro.sim.reference import make_reference_heuristic, reference_run_heuristic
from repro.topology import random_graph
from repro.workloads import single_file


def _problem(seed: int = 5, n: int = 14, tokens: int = 7):
    return single_file(random_graph(n, random.Random(seed)), file_tokens=tokens)


def _trace(path, problem, seed: int, heuristic: str = "random") -> None:
    with JsonlTracer(path=str(path)) as tracer:
        run_heuristic(
            problem, HEURISTIC_FACTORIES[heuristic](), seed=seed, tracer=tracer
        )


def _live_and_oracle(tmp_path, problem, name: str, seed: int = 6):
    """Trace a live run and the retraced reference-oracle run of the
    same seed; returns the two trace paths."""
    live, oracle = tmp_path / "live.jsonl", tmp_path / "oracle.jsonl"
    _trace(live, problem, seed=seed, heuristic=name)
    ref = reference_run_heuristic(problem, make_reference_heuristic(name), seed=seed)
    with JsonlTracer(path=str(oracle)) as tracer:
        retrace_run(
            tracer, problem, ref.schedule,
            heuristic_name=name, engine="reference",
        )
    return str(live), str(oracle)


class TestDiffTraces:
    def test_same_seed_is_byte_identical(self, tmp_path):
        problem = _problem()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _trace(a, problem, seed=2)
        _trace(b, problem, seed=2)
        result = diff_traces(str(a), str(b))
        assert result.identical_bytes
        assert result.identical
        assert "byte-identical" in result.render()

    def test_different_seeds_localize_first_divergence(self, tmp_path):
        problem = _problem()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _trace(a, problem, seed=2)
        _trace(b, problem, seed=9)
        result = diff_traces(str(a), str(b))
        assert not result.identical
        d = result.divergence
        assert d is not None
        # The divergence names a timestep and a field, per the contract.
        assert d.step is not None
        assert d.field is not None
        assert d.run == 0
        # It is the *earliest* one: no prior step differs.
        text = result.render()
        assert f"step {d.step}" in text

    def test_divergence_summary_is_semantic_for_transfers(self, tmp_path):
        problem = _problem()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _trace(a, problem, seed=2)
        _trace(b, problem, seed=9)
        d = diff_traces(str(a), str(b)).divergence
        if d.field == "transfers":
            assert "transferred" in d.summary or "stalls" in d.summary
            assert "run A" in d.summary and "run B" in d.summary

    def test_truncated_trace_reports_extra_events(self, tmp_path):
        problem = _problem()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _trace(a, problem, seed=2)
        lines = (tmp_path / "a.jsonl").read_text().splitlines(keepends=True)
        (tmp_path / "b.jsonl").write_text("".join(lines[:-1]))
        result = diff_traces(str(a), str(b))
        assert not result.identical
        assert "extra event" in result.divergence.summary

    def test_run_count_mismatch_reported(self, tmp_path):
        problem = _problem()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _trace(a, problem, seed=2)
        with JsonlTracer(path=str(b)) as tracer:
            for h in ("random", "local"):
                run_heuristic(
                    problem, HEURISTIC_FACTORIES[h](), seed=2, tracer=tracer
                )
        result = diff_traces(str(a), str(b))
        assert result.divergence.kind == "run"
        assert (result.divergence.a, result.divergence.b) == (1, 2)

    def test_ignore_fields_masks_differences(self, tmp_path):
        problem = _problem()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        with JsonlTracer(path=str(a)) as tracer:
            tracer.emit("trace_header", {"scenario": "x", "seed": 1})
            run_heuristic(
                problem, HEURISTIC_FACTORIES["local"](), seed=1, tracer=tracer
            )
        with JsonlTracer(path=str(b)) as tracer:
            tracer.emit("trace_header", {"scenario": "x", "seed": 99})
            run_heuristic(
                problem, HEURISTIC_FACTORIES["local"](), seed=1, tracer=tracer
            )
        strict = diff_traces(str(a), str(b))
        assert strict.divergence.kind == "trace_header"
        assert strict.divergence.field == "seed"
        relaxed = diff_traces(str(a), str(b), ignore_fields=("seed",))
        assert relaxed.identical
        assert not relaxed.identical_bytes


class TestRetrace:
    def test_retraced_engine_schedule_is_byte_identical(self, tmp_path):
        """Replaying a live engine's own schedule reproduces its trace."""
        problem = _problem()
        live, replay = tmp_path / "live.jsonl", tmp_path / "replay.jsonl"
        heuristic = HEURISTIC_FACTORIES["local"]()
        with JsonlTracer(path=str(live)) as tracer:
            result = run_heuristic(problem, heuristic, seed=4, tracer=tracer)
        with JsonlTracer(path=str(replay)) as tracer:
            retrace_run(
                tracer,
                problem,
                result.schedule,
                heuristic_name=heuristic.name,
                engine="sim",
            )
        assert live.read_bytes() == replay.read_bytes()

    def test_reference_retrace_matches_live_modulo_engine_label(self, tmp_path):
        """Engine vs frozen oracle: same seed, divergence only in 'engine'."""
        problem = _problem()
        for name in ("round_robin", "local"):
            live, oracle = _live_and_oracle(tmp_path, problem, name)
            strict = diff_traces(live, oracle)
            assert strict.divergence.field == "engine"
            relaxed = diff_traces(live, oracle, ignore_fields=("engine",))
            assert relaxed.identical, relaxed.render()

    def test_reference_retrace_attribution_matches_live(self, tmp_path):
        """Attribution is a function of the trace alone: the live run and
        the oracle retrace agree once the engine label and path go."""

        def scrubbed(path):
            report = attribute_trace(path).as_dict()
            del report["path"]
            for run in report["runs"] + report["skipped"]:
                del run["engine"]
            return report

        problem = _problem()
        for name in ("round_robin", "local"):
            live, oracle = _live_and_oracle(tmp_path, problem, name)
            live_report = scrubbed(live)
            assert live_report["runs"], name
            assert live_report == scrubbed(oracle), name

    @pytest.mark.parametrize(
        "second_step, broken",
        [
            # Vertex 1 forwards token 1 before it has received it.
            ({(1, 2): TokenSet.of(1)}, r"vertex 1 sends tokens \[1\] it does not possess"),
            # Both tokens at once over the unit-capacity arc 0 -> 1.
            ({(0, 1): TokenSet.of(0, 1)}, r"arc \(0, 1\) carries 2 tokens, capacity 1"),
        ],
    )
    def test_schedule_breaking_the_model_raises_naming_the_step(
        self, second_step, broken
    ):
        """A replayed step is validated like a live proposal: the re-trace
        fails at the step that breaks §3.1 instead of tracing it."""
        path = Problem.build(
            3, 2, [(0, 1, 1), (1, 2, 1)], have={0: [0, 1]}, want={2: [0, 1]}
        )
        schedule = Schedule(
            [Timestep({(0, 1): TokenSet.of(0)}), Timestep(second_step)]
        )
        tracer = RecordingTracer()
        with pytest.raises(HeuristicViolation, match=broken) as info:
            retrace_run(tracer, path, schedule, "tampered")
        assert str(info.value).startswith("step 1: heuristic 'tampered'")
        assert [e["step"] for e in tracer.of_kind("step")] == [0]
        assert not tracer.of_kind("run_end")

    def test_schedule_ending_short_of_the_wants_raises(self):
        path = Problem.build(2, 1, [(0, 1, 1)], have={0: [0]}, want={1: [0]})
        with pytest.raises(StallError, match="step 0: .* ends with demand"):
            retrace_run(RecordingTracer(), path, Schedule([]), "empty")

    def test_disabled_tracer_is_noop(self):
        from repro.obs import NULL_TRACER

        problem = _problem(n=6, tokens=3)
        result = run_heuristic(problem, HEURISTIC_FACTORIES["local"](), seed=0)
        retrace_run(
            NULL_TRACER, problem, result.schedule, "local"
        )  # must not raise or emit
