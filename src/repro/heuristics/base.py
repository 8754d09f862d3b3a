"""Shared infrastructure for the Section 5.1 heuristics.

Every heuristic is an object with a ``name``, a per-run ``reset``, and
one proposal path for the sends of a timestep: ``propose_vector``, which
reads the kernel's :class:`repro.sim.SimState` and returns a
:class:`repro.sim.state.VectorProposal` (Round-Robin, Random, Local,
Sequential), or ``propose``, which maps a :class:`repro.sim.StepContext`
to a ``{(src, dst): tokens}`` dict (Bandwidth, Global).  Heuristics are
stateless across runs (``reset`` rebuilds any per-run memory, e.g.
Round-Robin's queue positions) so one instance can be reused across
trials.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.problem import Problem
from repro.core.tokenset import TokenSet
from repro.sim import Proposal, StepContext

__all__ = ["Heuristic", "sample_tokens"]


class Heuristic:
    """Base class: stores the problem and RNG at reset time.

    Subclasses define ``propose_vector(state)`` or override
    :meth:`propose`, and override :meth:`on_reset` for any per-run
    precomputation.

    Determinism contract (``tests/test_determinism_env.py``): all
    randomness flows through :attr:`rng`, which defaults to a *seeded*
    ``random.Random(0)`` so a heuristic used before :meth:`reset` can
    never silently produce nondeterministic schedules.  :attr:`problem` raises before the first
    :meth:`reset` — there is no instance to consult until then.
    """

    name: str = "base"

    def __init__(self) -> None:
        self._problem: Optional[Problem] = None
        self._rng: random.Random = random.Random(0)

    @property
    def problem(self) -> Problem:
        """The instance of the current run; raises before :meth:`reset`."""
        if self._problem is None:
            raise RuntimeError(
                f"heuristic {self.name!r} used before reset(); the engine "
                f"calls reset(problem, rng) at the start of every run"
            )
        return self._problem

    @property
    def rng(self) -> random.Random:
        """The injected randomness source (seeded default before reset)."""
        return self._rng

    def reset(self, problem: Problem, rng: random.Random) -> None:
        self._problem = problem
        self._rng = rng
        self.on_reset()

    def on_reset(self) -> None:
        """Hook for subclass per-run initialization."""

    def propose(self, ctx: StepContext) -> Proposal:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def sample_tokens(tokens: TokenSet, count: int, rng: random.Random) -> TokenSet:
    """A uniform random subset of ``count`` members (all if fewer)."""
    members = list(tokens)
    if len(members) <= count:
        return tokens
    return TokenSet.from_iterable(rng.sample(members, count))
