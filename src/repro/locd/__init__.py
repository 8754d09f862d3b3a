"""The Local-knowledge OCD model (Section 4).

Per-vertex :class:`Knowledge` (a read-only, distance-lagged view of the
run's :class:`GossipState`), a locality-enforcing
:class:`LocalEngine`, LOCD-compliant algorithms (including the
flood-then-optimal additive-diameter algorithm of §4.2), and the
Theorem 4 adversarial families with their measurement harness.
"""

from repro.locd.adversary import (
    AdversaryOutcome,
    adversarial_ratio,
    deterministic_lower_bound,
    guessing_instance,
    optimal_path_makespan,
)
from repro.locd.algorithms import (
    FloodThenOptimal,
    LocalRandom,
    LocalRarest,
    LocalRoundRobin,
)
from repro.locd.knowledge import GossipState, Knowledge
from repro.locd.runner import LocalAlgorithm, LocalEngine, run_local
from repro.locd.stale import StaleBandwidth, StaleGreedy, view_problem

__all__ = [
    "AdversaryOutcome",
    "FloodThenOptimal",
    "GossipState",
    "Knowledge",
    "LocalAlgorithm",
    "LocalEngine",
    "LocalRandom",
    "LocalRarest",
    "LocalRoundRobin",
    "StaleBandwidth",
    "StaleGreedy",
    "adversarial_ratio",
    "view_problem",
    "deterministic_lower_bound",
    "guessing_instance",
    "optimal_path_makespan",
    "run_local",
]
