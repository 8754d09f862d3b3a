"""Seeded faults in the kernel's vector path are caught and *localized*.

The differential harness is only trustworthy if it actually fires when
the kernel misbehaves.  These tests inject two deliberate faults into a
subclass of the kernel (via the engine's ``kernel=`` callable hook, so
the shipped :class:`repro.sim.state.SimState` is untouched):

* **Fault A — mutated transfer.** After validation, one send at the
  target step gains a token its sender does not possess (the arrival is
  kept consistent, so only the transfer itself is wrong).  The trace
  validator must flag ``sender-possession`` at exactly that step.
* **Fault B — dropped bitplane update.** One destination's arrival is
  discarded at the target step while the reported sends keep the
  transfer, so the possession matrix misses an update.  The validator
  must flag ``step-consistency`` at exactly that step.

In both cases ``trace-diff`` against a clean-kernel trace of the same
``(problem, seed)`` must localize the first divergence at the fault
step.  Round-robin drives the runs since it is the vector-path client —
the faults corrupt the output of ``validate_vector`` itself.
"""

from __future__ import annotations

import random

from repro.core.tokenset import TokenSet
from repro.heuristics import HEURISTIC_FACTORIES
from repro.obs import JsonlTracer
from repro.obs.analyze import diff_traces, validate_trace
from repro.sim import Engine
from repro.sim.state import SimState

from tests.conftest import make_random_problem

TARGET_STEP = 1
SEED = 404


class FaultState(SimState):
    """Counts vector validations, one per step, to find the fault step."""

    def __init__(self, problem):
        super().__init__(problem)
        self.fault_step = None
        self.steps = 0

    def validate_vector(self, vec):
        self.steps += 1
        return super().validate_vector(vec)


class MutatedTransferState(FaultState):
    """Fault A: OR an unpossessed token into one validated send."""

    def validate_vector(self, vec):
        timestep, arrivals = super().validate_vector(vec)
        step = self.steps - 1
        if self.fault_step is None and step >= TARGET_STEP:
            full = (1 << self.problem.num_tokens) - 1
            for (src, dst), tokens in timestep.sends.items():
                missing = full & ~self.possession_masks[src]
                if missing:
                    extra = missing & -missing
                    timestep.sends[(src, dst)] = TokenSet(tokens.mask | extra)
                    # Keep the arrival consistent with the (corrupt)
                    # transfer so only sender-possession is violated.
                    arrivals[dst] = arrivals.get(dst, 0) | extra
                    self.fault_step = step
                    break
        return timestep, arrivals


class DroppedArrivalState(FaultState):
    """Fault B: discard one destination's possession update."""

    def validate_vector(self, vec):
        timestep, arrivals = super().validate_vector(vec)
        step = self.steps - 1
        if self.fault_step is None and step >= TARGET_STEP:
            for dst, mask in arrivals.items():
                if mask & ~self.possession_masks[dst]:
                    del arrivals[dst]  # the sends still report the transfer
                    self.fault_step = step
                    break
        return timestep, arrivals


def fault_problem():
    """A mid-size instance where both faults find a candidate early."""
    return make_random_problem(
        random.Random(18), max_vertices=10, max_tokens=8
    )


def traced_run(tmp_path, label, kernel, problem):
    path = str(tmp_path / f"{label}.jsonl")
    states = []

    def factory(p):
        state = kernel(p)
        states.append(state)
        return state

    with JsonlTracer(path=path) as tracer:
        Engine(
            problem,
            HEURISTIC_FACTORIES["round_robin"](),
            rng=random.Random(SEED),
            tracer=tracer,
            kernel=factory,
        ).run()
    assert len(states) == 1
    return path, states[0]


class TestFaultInjection:
    def test_clean_kernel_trace_validates(self, tmp_path):
        path, _ = traced_run(tmp_path, "clean", SimState, fault_problem())
        report = validate_trace(path)
        assert report.ok, [v.render() for v in report.violations]

    def test_mutated_transfer_flags_sender_possession(self, tmp_path):
        problem = fault_problem()
        clean_path, _ = traced_run(tmp_path, "clean", SimState, problem)
        fault_path, state = traced_run(
            tmp_path, "fault-a", MutatedTransferState, problem
        )
        assert state.fault_step is not None, "fault A never found a candidate"

        report = validate_trace(fault_path)
        assert not report.ok
        flagged = [
            v for v in report.violations if v.invariant == "sender-possession"
        ]
        assert flagged, [v.render() for v in report.violations]
        assert flagged[0].step == state.fault_step
        # The fault is localized: nothing flagged before the fault step.
        assert all(
            v.step is None or v.step >= state.fault_step
            for v in report.violations
        )

        diff = diff_traces(clean_path, fault_path)
        assert not diff.identical
        assert diff.divergence.step == state.fault_step

    def test_dropped_arrival_flags_step_consistency(self, tmp_path):
        problem = fault_problem()
        clean_path, _ = traced_run(tmp_path, "clean", SimState, problem)
        fault_path, state = traced_run(
            tmp_path, "fault-b", DroppedArrivalState, problem
        )
        assert state.fault_step is not None, "fault B never found a candidate"

        report = validate_trace(fault_path)
        assert not report.ok
        flagged = [
            v for v in report.violations if v.invariant == "step-consistency"
        ]
        assert flagged, [v.render() for v in report.violations]
        assert flagged[0].step == state.fault_step
        assert all(
            v.step is None or v.step >= state.fault_step
            for v in report.violations
        )

        diff = diff_traces(clean_path, fault_path)
        assert not diff.identical
        assert diff.divergence.step == state.fault_step
