"""Unit tests for the step kernel (:class:`repro.sim.SimState`).

The kernel's counters — holder counts, per-vertex deficits, the total
deficit, the per-token demand vector, the gain journal, the bitplane
mirror, and the useful-arc test — must all track arrivals exactly,
because every engine and every rarest-first heuristic reads them
instead of rescanning possession.  Each test cross-checks an
incrementally maintained value against the brute-force recomputation
from the possession vector.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.core.bitplanes import matrix_to_masks
from repro.core.problem import Arc, Problem
from repro.core.schedule import check_sends
from repro.core.tokenset import EMPTY_TOKENSET, TokenSet
from repro.sim import Engine, SimState, StepContext
from repro.topology import random_graph
from repro.workloads import single_file

from tests.conftest import make_random_problem


def chain_problem() -> Problem:
    """0 → 1 → 2, source holds {0,1}, sink wants both."""
    return Problem(
        num_vertices=3,
        num_tokens=2,
        arcs=(Arc(0, 1, 2), Arc(1, 2, 1)),
        have=(TokenSet.of(0, 1), EMPTY_TOKENSET, EMPTY_TOKENSET),
        want=(EMPTY_TOKENSET, EMPTY_TOKENSET, TokenSet.of(0, 1)),
        name="chain",
    )


def brute_force_check(state: SimState) -> None:
    """Every incrementally maintained counter equals its recomputation."""
    problem = state.problem
    holder = [0] * problem.num_tokens
    token_deficit = [0] * problem.num_tokens
    total = 0
    for v in range(problem.num_vertices):
        assert state.possession_masks[v] == state.possession[v].mask
        for t in state.possession[v]:
            holder[t] += 1
        missing = problem.want[v] - state.possession[v]
        assert state.deficit[v] == len(missing)
        total += len(missing)
        for t in missing:
            token_deficit[t] += 1
    assert state.holder_counts == holder
    assert state.token_demand() == token_deficit
    assert state.total_deficit == total
    assert state.satisfied() == (total == 0)
    assert matrix_to_masks(state.matrix) == state.possession_masks


def apply_step(
    state: SimState, sends: Dict[Tuple[int, int], TokenSet]
) -> Dict[int, int]:
    """Check one step's sends and apply their arrivals, as the step loop
    does; return the per-vertex arrival masks."""
    _valid, arrivals = check_sends(state.problem, sends, state.possession_masks)
    state.apply_arrivals(arrivals)
    return arrivals


def arrive(state: SimState, dst: int, *tokens: int) -> None:
    """Deliver ``tokens`` to ``dst`` through the dict arrival fold."""
    state.apply_arrivals({dst: TokenSet.of(*tokens).mask})


class TestCounters:
    def test_initial_state_matches_problem(self):
        problem = chain_problem()
        state = SimState(problem)
        brute_force_check(state)
        assert state.version == 0
        assert state.total_deficit == 2
        assert sorted(state.outstanding(2)) == [0, 1]

    def test_apply_arrival_tracks_all_counters(self):
        state = SimState(chain_problem())
        arrive(state, 1, 0, 1)
        assert sorted(state.possession[1]) == [0, 1]
        brute_force_check(state)
        # Redelivery gains nothing and does not bump the version.
        v = state.version
        arrive(state, 1, 0)
        assert state.version == v
        brute_force_check(state)

    def test_step_arrivals_merge_per_vertex(self):
        problem = Problem(
            num_vertices=3,
            num_tokens=2,
            arcs=(Arc(0, 2, 1), Arc(1, 2, 1)),
            have=(TokenSet.of(0), TokenSet.of(1), EMPTY_TOKENSET),
            want=(EMPTY_TOKENSET, EMPTY_TOKENSET, TokenSet.of(0, 1)),
        )
        state = SimState(problem)
        arrivals = apply_step(
            state, {(0, 2): TokenSet.of(0), (1, 2): TokenSet.of(1)}
        )
        assert arrivals == {2: TokenSet.of(0, 1).mask}
        assert state.satisfied()
        brute_force_check(state)

    def test_random_run_keeps_counters_exact(self):
        rng = random.Random(42)
        for _ in range(10):
            problem = make_random_problem(rng, max_vertices=10, max_tokens=8)
            state = SimState(problem)
            # Flood: every arc forwards everything its tail holds.
            for _step in range(12):
                sends = {}
                for arc in problem.arcs:
                    useful = (
                        state.possession[arc.src] - state.possession[arc.dst]
                    ).take(arc.capacity)
                    if useful:
                        sends[(arc.src, arc.dst)] = useful
                if not sends:
                    break
                apply_step(state, sends)
                brute_force_check(state)


class TestJournal:
    def test_journal_records_gains_in_order(self):
        state = SimState(chain_problem())
        v0 = state.version
        arrive(state, 1, 0)
        arrive(state, 2, 0)
        arrive(state, 1, 0, 1)  # only token 1 is new
        gains = state.gains_since(v0)
        assert list(gains) == [
            (1, TokenSet.of(0).mask),
            (2, TokenSet.of(0).mask),
            (1, TokenSet.of(1).mask),
        ]
        # A cursor past the tail sees nothing.
        assert list(state.gains_since(state.version)) == []


class TestUsefulArcs:
    def test_tracks_incremental_possession_change(self):
        state = SimState(chain_problem())
        assert state.any_useful_arc()  # 0 → 1 can deliver
        arrive(state, 1, 0, 1)
        assert state.any_useful_arc()  # now 1 → 2 can deliver
        arrive(state, 2, 0, 1)
        assert not state.any_useful_arc()  # everyone holds everything

    def test_no_progress_check_is_stable(self):
        state = SimState(chain_problem())
        assert state.any_useful_arc()
        # No state change between calls: the answer must not change.
        assert state.any_useful_arc()


class TestStepContextOutstanding:
    def test_kernel_backed_total_outstanding_is_live(self):
        problem = chain_problem()
        state = SimState(problem)
        ctx = StepContext(
            problem, 0, state.possession, state.holder_counts,
            random.Random(0), state=state,
        )
        assert ctx.total_outstanding() == 2
        arrive(state, 2, 0)
        # Kernel-backed contexts read the deficit counter directly.
        assert ctx.total_outstanding() == 1

    def test_snapshot_total_outstanding_is_cached(self):
        problem = chain_problem()
        ctx = StepContext(
            problem, 0, tuple(problem.have), [1, 1], random.Random(0)
        )
        assert ctx.state is None
        assert ctx.total_outstanding() == 2
        assert ctx._outstanding == 2  # computed once, then cached
        assert ctx.total_outstanding() == 2

    def test_engine_run_drives_kernel_to_success(self):
        problem = single_file(
            random_graph(12, random.Random(3)), file_tokens=6
        )
        from repro.heuristics import LocalRarestHeuristic

        result = Engine(
            problem, LocalRarestHeuristic(), rng=random.Random(5)
        ).run()
        assert result.success
