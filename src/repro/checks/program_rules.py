"""The whole-program ocdlint rules.

Where the per-file rules in :mod:`repro.checks.rules` inspect one
module's AST at a time, these rules consume the
:class:`repro.checks.program.ProgramIndex` — symbol table, call graph,
taint propagation — so a violation hidden behind any number of call
boundaries still surfaces, with the witnessing chain in the message.

* OCD003 — hash-ordered iteration over a set, whether the set is built
  in the same scope or returned by another function.
* OCD010 — unseeded randomness reaching model code through a call chain.
* OCD011 — wall-clock, process-identity, or filesystem-order
  nondeterminism reaching model code through a call chain.
"""

from __future__ import annotations

from typing import Dict, List

from repro.checks.framework import Diagnostic, ProgramRule, register_rule
from repro.checks.program import FunctionSummary, ProgramIndex, TaintWitness
from repro.checks.rules import MODEL_PACKAGES

__all__ = [
    "UnsortedSetIterationRule",
    "CallChainRandomRule",
    "CallChainEnvironmentRule",
]


def _short_chain(fn: FunctionSummary, witness: TaintWitness) -> str:
    """Render ``run -> _helper -> _draw`` plus the concrete source."""
    names = [fn.qname.rsplit(".", 1)[-1]] + [
        q.rsplit(".", 1)[-1] for q in witness.chain
    ]
    arrow = " -> ".join(names)
    return (
        f"{arrow} ({witness.what} at "
        f"{witness.source_path}:{witness.source_line})"
    )


# ======================================================================
# OCD003 — no hash-ordered set iteration, local or across calls
# ======================================================================
@register_rule
class UnsortedSetIterationRule(ProgramRule):
    """Iterating a ``set``/``frozenset`` yields hash order, which varies
    across runs and Python builds.  Every loop or comprehension over a
    set must go through ``sorted(...)``, whether the set is built, named
    or handed in within the same scope, or returned by another program
    function (resolved through the call graph).
    """

    code = "OCD003"
    name = "unsorted-set-iteration"
    summary = "iteration over an unordered set without sorted(...)"
    invariant = (
        "§3.1 determinism of emitted schedules: no move order may "
        "depend on hash iteration order, even across call boundaries"
    )

    def check_program(self, index: ProgramIndex) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for mod in index.modules:
            if not self.reports_in(mod.package):
                continue
            local_sites = list(mod.set_iterations)
            for fn in mod.functions:
                local_sites.extend(fn.set_iterations)
                for site in fn.call_iterations:
                    target = index.resolve_call(mod, fn, site.ref)
                    if target is None or not index.functions[target].returns_set:
                        continue
                    diags.append(
                        self.diagnostic(
                            mod.path,
                            site.line,
                            site.col,
                            f"iterating the set returned by {target}() in "
                            f"hash order; wrap the call in sorted(...) so "
                            f"downstream schedules are deterministic",
                        )
                    )
            for line, col in local_sites:
                diags.append(
                    self.diagnostic(
                        mod.path,
                        line,
                        col,
                        "iteration over an unordered set; wrap the iterable "
                        "in sorted(...) so downstream schedules are "
                        "deterministic",
                    )
                )
        return diags


class _CallChainTaintRule(ProgramRule):
    """Shared machinery: flag model-package functions whose call chain
    reaches a nondeterminism source of the configured kinds."""

    packages = MODEL_PACKAGES
    #: kind -> (flag direct in-function sources too?)
    kinds: Dict[str, bool] = {}
    remedy: str = ""

    def check_program(self, index: ProgramIndex) -> List[Diagnostic]:
        tainted = index.taint(self.kinds)
        diags: List[Diagnostic] = []
        for mod in index.modules:
            if not self.reports_in(mod.package):
                continue
            for fn in mod.functions:
                per = tainted.get(fn.qname)
                if not per:
                    continue
                for kind in sorted(per):
                    include_direct = self.kinds.get(kind)
                    if include_direct is None:
                        continue
                    witness = per[kind]
                    if not witness.chain and not include_direct:
                        # Direct in-function use is per-file-rule
                        # territory (OCD001/OCD004) — do not duplicate.
                        continue
                    diags.append(
                        self.diagnostic(
                            mod.path,
                            witness.line,
                            witness.col,
                            f"{fn.qname.rsplit('.', 1)[-1]}() reaches "
                            f"{self._describe(kind)} through its call chain: "
                            f"{_short_chain(fn, witness)}; {self.remedy}",
                        )
                    )
        return diags

    @staticmethod
    def _describe(kind: str) -> str:
        return {
            "rng": "unseeded randomness",
            "clock": "wall-clock time",
            "env": "process/host identity",
            "fsorder": "filesystem enumeration order",
        }[kind]


# ======================================================================
# OCD010 — unseeded randomness through any call chain
# ======================================================================
@register_rule
class CallChainRandomRule(_CallChainTaintRule):
    """A schedule must be a function of (instance, seed).  OCD001 flags
    global-RNG use written directly in model files; this rule follows
    the call graph, so a helper two modules away that draws from the
    global RNG taints every model entry point that can reach it.
    """

    code = "OCD010"
    name = "rng-call-chain"
    summary = "model code reaches unseeded randomness transitively"
    invariant = (
        "§3.1 determinism: every random draw influencing a schedule "
        "flows from the injected seed, through any number of calls"
    )
    kinds = {"rng": False}
    remedy = "thread the injected seeded random.Random down the chain"


# ======================================================================
# OCD011 — wall-clock / process-identity / fs-order through call chains
# ======================================================================
@register_rule
class CallChainEnvironmentRule(_CallChainTaintRule):
    """The model is synchronous and hermetic: nothing the engine or a
    heuristic computes may depend on wall-clock time (OCD004 catches
    direct use; this follows calls), process identity, or the order a
    filesystem happens to enumerate entries in.
    """

    code = "OCD011"
    name = "environment-call-chain"
    summary = "model code reaches wall-clock/process/fs-order nondeterminism"
    invariant = (
        "§3.1 hermeticity: model results are a function of the instance "
        "and seed, never of the host environment"
    )
    # Direct wall-clock is OCD004's job; direct fs-order/identity has no
    # per-file rule, so those report at chain length zero as well.
    kinds = {"clock": False, "env": True, "fsorder": True}
    remedy = (
        "pass the value in as an explicit argument (or sort the "
        "enumeration) so the model stays hermetic"
    )
