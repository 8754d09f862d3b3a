"""Encoding — the second open problem of Section 6.

    "In the face of lossy channels, it may be useful to introduce
    redundancy into the system by generating multiple sub-tokens, only a
    subset of which are necessary to reconstruct the original token.
    While such coding of the content could introduce significant
    additional degrees of freedom in formulating viable solutions,
    determining bounds may become more difficult as well."

This module models MDS-style threshold coding *inside the OCD model*: a
file of ``data_tokens`` original tokens is published as
``data_tokens + parity_tokens`` coded tokens, and a receiver has
reconstructed the file once it holds **any** ``data_tokens`` of them.
Tokens themselves still move exactly as in Section 3.1 — only the
success predicate changes, which is why :class:`repro.sim.Engine` grows a
pluggable ``success_predicate`` for this extension.

The payoff mirrors the paper's intuition: coding adds degrees of freedom.
Under uncoded distribution a receiver must chase *specific* stragglers;
under coding, whichever ``k`` coded tokens happen to arrive first
suffice, so randomized/flooding heuristics finish sooner on constrained
or flaky networks (see ``benchmarks/test_ext_coding.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from repro.core.problem import Problem
from repro.core.tokenset import TokenSet
from repro.sim.engine import Engine, HeuristicProtocol, RunResult
from repro.topology.base import Topology

__all__ = [
    "CodedFile",
    "CodedInstance",
    "make_coded_single_file",
    "run_coded",
    "run_coded_dynamic",
    "coded_completion_step",
]


@dataclass(frozen=True)
class CodedFile:
    """One file published as ``len(coded_tokens)`` coded tokens, any
    ``threshold`` of which reconstruct it."""

    file_id: int
    coded_tokens: TokenSet
    threshold: int

    def __post_init__(self) -> None:
        if not 1 <= self.threshold <= len(self.coded_tokens):
            raise ValueError(
                f"file {self.file_id}: threshold {self.threshold} outside "
                f"1..{len(self.coded_tokens)}"
            )

    @property
    def parity(self) -> int:
        """Redundant tokens beyond the reconstruction threshold."""
        return len(self.coded_tokens) - self.threshold

    def reconstructed_by(self, possession: TokenSet) -> bool:
        return len(possession & self.coded_tokens) >= self.threshold


@dataclass(frozen=True)
class CodedInstance:
    """An OCD problem whose wants are interpreted through coded files.

    ``problem.want[v]`` lists all coded tokens of the files ``v``
    subscribes to (so flooding heuristics chase every useful token);
    success is reinterpreted as per-file threshold reconstruction.
    """

    problem: Problem
    files: Tuple[CodedFile, ...]
    subscriptions: Mapping[int, Tuple[int, ...]]  # vertex -> file ids

    def is_reconstructed(self, possession: Sequence[TokenSet]) -> bool:
        """The coded success predicate."""
        by_id = {f.file_id: f for f in self.files}
        for v, file_ids in self.subscriptions.items():
            for fid in file_ids:
                if not by_id[fid].reconstructed_by(possession[v]):
                    return False
        return True

    def uncoded_equivalent(self) -> "CodedInstance":
        """The same instance with thresholds raised to 'need everything'
        — the baseline for measuring what coding buys."""
        strict = tuple(
            CodedFile(f.file_id, f.coded_tokens, len(f.coded_tokens))
            for f in self.files
        )
        return CodedInstance(self.problem, strict, self.subscriptions)


def make_coded_single_file(
    topology: Topology,
    data_tokens: int,
    parity_tokens: int,
    source: int = 0,
) -> CodedInstance:
    """Single-source broadcast of one coded file.

    The source publishes ``data_tokens + parity_tokens`` coded tokens;
    every other vertex subscribes and needs any ``data_tokens`` of them.
    With ``parity_tokens = 0`` this is exactly the Figure 2 workload.
    """
    if data_tokens < 1 or parity_tokens < 0:
        raise ValueError(
            f"need data_tokens >= 1 and parity_tokens >= 0, got "
            f"{data_tokens}, {parity_tokens}"
        )
    total = data_tokens + parity_tokens
    all_tokens = list(range(total))
    want = {
        v: all_tokens for v in range(topology.num_vertices) if v != source
    }
    problem = topology.to_problem(
        total,
        have={source: all_tokens},
        want=want,
        name=f"coded({data_tokens}+{parity_tokens}, {topology.name})",
    )
    coded = CodedFile(0, TokenSet.full(total), data_tokens)
    subscriptions = {
        v: (0,) for v in range(topology.num_vertices) if v != source
    }
    return CodedInstance(problem, (coded,), subscriptions)


def run_coded(
    instance: CodedInstance,
    heuristic: HeuristicProtocol,
    seed: int = 0,
    max_steps: Optional[int] = None,
) -> RunResult:
    """Run a heuristic until threshold reconstruction everywhere.

    The heuristic floods toward the full coded want sets; the engine
    stops as soon as every subscription is reconstructible.
    """
    engine = Engine(
        instance.problem,
        heuristic,
        rng=random.Random(seed),
        max_steps=max_steps,
        success_predicate=instance.is_reconstructed,
    )
    return engine.run()


def run_coded_dynamic(
    instance: CodedInstance,
    conditions,
    heuristic: HeuristicProtocol,
    seed: int = 0,
    max_steps: Optional[int] = None,
) -> RunResult:
    """Coded distribution under changing network conditions.

    This is where coding earns its keep, per the paper's §6 intuition
    about lossy channels: when a link outage strands a specific token,
    any-k completion substitutes whichever coded token gets through.
    ``conditions`` is a :class:`repro.extensions.dynamic.CapacitySchedule`
    over ``instance.problem``.
    """
    from repro.extensions.dynamic import DynamicEngine

    if conditions.problem is not instance.problem and conditions.problem != instance.problem:
        raise ValueError("conditions must schedule this instance's problem")
    engine = DynamicEngine(
        conditions,
        heuristic,
        rng=random.Random(seed),
        max_steps=max_steps,
        success_predicate=instance.is_reconstructed,
    )
    return engine.run()


def coded_completion_step(
    instance: CodedInstance, result: RunResult
) -> Optional[int]:
    """First timestep at which every subscription was reconstructible
    (``None`` if never).  Useful for comparing a coded run against the
    same schedule judged uncoded."""
    history = result.schedule.validate(instance.problem)
    for step, possession in enumerate(history):
        if instance.is_reconstructed(possession):
            return step
    return None
