"""Adversarial families for the online lower bound (Theorem 4).

Theorem 4 states no c-competitive online algorithm exists for FOCD for
any fixed constant c, with a proof sketch: "Consider the situation of two
maximally-separated vertices in which one has tokens that the other
requires.  If the sender has many tokens that the receiver does not want,
then simply sending out tokens in the hopes they are useful cannot speed
up the solution beyond waiting to hear knowledge of which tokens are
needed."

This module builds that construction — the *guessing family*: a length-L
path whose sender holds M tokens while the far endpoint wants one token
the sender cannot identify locally — plus the measurement harness that
plays the adversary (maximize the ratio over the wanted token).

What the family provably forces (and the harness measures):

* any deterministic LOCD algorithm sends a *fixed* prefix of tokens into
  the path during the first L steps (the receiver's want is L gossip hops
  away, so those decisions cannot depend on it); with ``M > c*L`` decoys
  the adversary picks a wanted token outside that prefix, forcing
  makespan ≥ 2L against the optimum L — see
  :func:`deterministic_lower_bound`;
* the *flooding heuristics* do much worse: they keep pushing decoys, so
  their ratio grows like ``M / (c * L)`` — unbounded in M, which is the
  observable content of Theorem 4 for every practical algorithm in this
  reproduction (see EXPERIMENTS.md for measurements and a discussion of
  the gap between the sketch and a full proof);
* flood-then-optimal stays within the additive-diameter bound of
  Section 4.2, i.e. ratio ≤ 2 on this family.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core.problem import Problem
from repro.locd.runner import LocalAlgorithm, run_local

__all__ = [
    "guessing_instance",
    "optimal_path_makespan",
    "deterministic_lower_bound",
    "AdversaryOutcome",
    "adversarial_ratio",
]


def guessing_instance(
    separation: int,
    num_decoys: int,
    wanted: Sequence[int],
    capacity: int = 1,
) -> Problem:
    """The Theorem 4 construction.

    A bidirectional path ``0 - 1 - ... - separation`` of per-arc capacity
    ``capacity``.  Vertex 0 (the sender) holds tokens ``0..num_decoys-1``;
    the far endpoint wants exactly ``wanted``.  Knowledge of the want is
    ``separation`` gossip hops from the sender — the "maximally
    separated" pair of the sketch.
    """
    if separation < 1:
        raise ValueError(f"need separation >= 1, got {separation}")
    if num_decoys < 1:
        raise ValueError(f"need at least one token, got {num_decoys}")
    bad = [t for t in wanted if not 0 <= t < num_decoys]
    if bad:
        raise ValueError(f"wanted tokens {bad} outside 0..{num_decoys - 1}")
    arcs = []
    for v in range(separation):
        arcs.append((v, v + 1, capacity))
        arcs.append((v + 1, v, capacity))
    return Problem.build(
        separation + 1,
        num_decoys,
        arcs,
        have={0: list(range(num_decoys))},
        want={separation: list(wanted)},
        name=f"guessing(L={separation}, M={num_decoys}, c={capacity})",
    )


def optimal_path_makespan(separation: int, num_wanted: int, capacity: int = 1) -> int:
    """Clairvoyant optimum on the guessing family.

    Pipeline the ``k`` wanted tokens down the path, ``capacity`` per arc
    per step: the last batch leaves at step ``ceil(k/c) - 1`` and travels
    ``separation`` hops, so the optimum is
    ``separation + ceil(k/c) - 1``.
    """
    if num_wanted == 0:
        return 0
    return separation + math.ceil(num_wanted / capacity) - 1


def deterministic_lower_bound(
    separation: int, num_decoys: int, capacity: int = 1
) -> float:
    """Competitive ratio every deterministic LOCD algorithm must suffer
    on this family (single wanted token).

    During steps ``0..separation-1`` the sender's knowledge cannot
    contain the receiver's want, so the at most ``capacity * separation``
    tokens it pushes onto arc (0, 1) form a fixed set; if
    ``num_decoys`` exceeds it, the adversary picks the wanted token
    outside that set.  It then leaves the sender no earlier than step
    ``separation`` and arrives no earlier than ``2 * separation``,
    against the optimum ``separation``.
    """
    if num_decoys <= capacity * separation:
        return 1.0  # blind flooding might cover every token in time
    return 2.0 * separation / optimal_path_makespan(separation, 1, capacity)


@dataclass(frozen=True)
class AdversaryOutcome:
    """Worst case found by the adversary over candidate wanted tokens."""

    algorithm: str
    separation: int
    num_decoys: int
    capacity: int
    worst_token: int
    worst_makespan: int
    optimum: int
    #: Whether the worst candidate's run hit ``max_steps`` without
    #: finishing: its true makespan is larger, so ``worst_makespan`` and
    #: ``ratio`` are only lower bounds.
    censored: bool = False

    @property
    def ratio(self) -> float:
        return self.worst_makespan / self.optimum if self.optimum else math.inf


def adversarial_ratio(
    algorithm_factory: Callable[[], LocalAlgorithm],
    separation: int,
    num_decoys: int,
    capacity: int = 1,
    candidates: Optional[Iterable[int]] = None,
    seed: int = 0,
    max_steps: Optional[int] = None,
) -> AdversaryOutcome:
    """Play the adversary: maximize makespan over the wanted token.

    For deterministic algorithms, trying every candidate token realizes
    the true adversarial choice on this family; for randomized ones it is
    an empirical (seed-fixed) estimate.  A run that hits ``max_steps``
    unfinished counts as worse than a finished run of the same length,
    and makes the outcome :attr:`AdversaryOutcome.censored` when it is
    the worst.  Raises :class:`ValueError` when ``candidates`` is empty.
    """
    tokens = list(range(num_decoys) if candidates is None else candidates)
    if not tokens:
        raise ValueError("adversarial_ratio needs at least one candidate token")
    optimum = optimal_path_makespan(separation, 1, capacity)
    worst: Optional[Tuple[int, int, bool]] = None
    for token in tokens:
        problem = guessing_instance(separation, num_decoys, [token], capacity)
        algorithm = algorithm_factory()
        result = run_local(problem, algorithm, seed=seed, max_steps=max_steps)
        censored = not result.success
        if worst is None or (result.makespan, censored) > (worst[1], worst[2]):
            worst = (token, result.makespan, censored)
    assert worst is not None
    return AdversaryOutcome(
        algorithm=algorithm_factory().name,
        separation=separation,
        num_decoys=num_decoys,
        capacity=capacity,
        worst_token=worst[0],
        worst_makespan=worst[1],
        optimum=optimum,
        censored=worst[2],
    )
