"""The five Section 5.1 heuristics behind one common interface.

``STANDARD_HEURISTICS`` builds one fresh instance of each, in the order
the paper introduces them, for sweep drivers that compare all five.
"""

from typing import Callable, Dict, List

from repro.heuristics.bandwidth import BandwidthHeuristic
from repro.heuristics.base import Heuristic, sample_tokens
from repro.heuristics.global_greedy import GlobalGreedyHeuristic
from repro.heuristics.local_rarest import LocalRarestHeuristic
from repro.heuristics.random_heuristic import RandomHeuristic
from repro.heuristics.round_robin import RoundRobinHeuristic
from repro.heuristics.sequential import SequentialHeuristic

__all__ = [
    "BandwidthHeuristic",
    "GlobalGreedyHeuristic",
    "Heuristic",
    "HEURISTIC_FACTORIES",
    "LocalRarestHeuristic",
    "RandomHeuristic",
    "RoundRobinHeuristic",
    "SequentialHeuristic",
    "make_heuristic",
    "sample_tokens",
    "standard_heuristics",
]

#: The paper's five heuristics, in introduction order.  The streaming
#: SequentialHeuristic is intentionally not listed: sweep drivers compare
#: the paper's set, and callers opt into extras explicitly.
HEURISTIC_FACTORIES: Dict[str, Callable[[], Heuristic]] = {
    "round_robin": RoundRobinHeuristic,
    "random": RandomHeuristic,
    "local": LocalRarestHeuristic,
    "bandwidth": BandwidthHeuristic,
    "global": GlobalGreedyHeuristic,
}


def make_heuristic(name: str) -> Heuristic:
    """Instantiate a heuristic by its paper name."""
    try:
        factory = HEURISTIC_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown heuristic {name!r}; choose from "
            f"{sorted(HEURISTIC_FACTORIES)}"
        ) from None
    return factory()


def standard_heuristics() -> List[Heuristic]:
    """Fresh instances of all five heuristics, in paper order."""
    return [factory() for factory in HEURISTIC_FACTORIES.values()]
