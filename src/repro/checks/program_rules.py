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
* OCD013 — trace emission sites whose kind or fields drift from the
  versioned schema registry in :mod:`repro.obs.events`.
* OCD014 — multiprocessing hazards in sweep worker code: unpicklable
  submissions, worker-side module-global mutation, fork-unsafe capture.
* OCD016 — trace JSONL parsed with raw ``json.loads`` instead of the
  canonical schema readers in :mod:`repro.obs.events`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.checks.framework import Diagnostic, ProgramRule, register_rule
from repro.checks.program import (
    EmitSite,
    FunctionSummary,
    ModuleSummary,
    ProgramIndex,
    TaintWitness,
)
from repro.checks.rules import MODEL_PACKAGES

__all__ = [
    "UnsortedSetIterationRule",
    "CallChainRandomRule",
    "CallChainEnvironmentRule",
    "TraceContractRule",
    "MultiprocessingSafetyRule",
    "TraceRawReadRule",
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


# ======================================================================
# OCD013 — trace emissions match the versioned schema registry
# ======================================================================
@register_rule
class TraceContractRule(ProgramRule):
    """Every ``tracer.emit(kind, fields)`` / ``make_event(kind, fields)``
    site is cross-referenced against ``repro.obs.events.EVENT_SCHEMAS``:
    unknown kinds, undeclared fields, missing required fields, and
    literal values of the wrong JSON type all fail at lint time instead
    of in a rarely-traced branch.  Emission *wrappers* — functions that fold a
    caller-supplied dict into the fields (``emit_step_event``'s
    ``extra``) — are checked at their call sites too.
    """

    code = "OCD013"
    name = "trace-contract"
    summary = "trace emission site drifts from the event schema registry"
    invariant = (
        "observability schema: the fields of every emitted event match "
        "repro.obs.events.EVENT_SCHEMAS, so every trace consumer can "
        "rely on one versioned contract"
    )
    exclude_packages = frozenset({"tests"})

    def check_program(self, index: ProgramIndex) -> List[Diagnostic]:
        from repro.obs.events import ENVELOPE_FIELDS, EVENT_SCHEMAS

        diags: List[Diagnostic] = []
        wrappers: Dict[str, Tuple[str, FrozenSet[str]]] = {}
        for mod in index.modules:
            for fn in mod.functions:
                for site in fn.emits:
                    if site.kind is not None and site.open_params:
                        wrappers[fn.qname] = (
                            site.kind,
                            frozenset(site.open_params),
                        )

        for mod in index.modules:
            if not self.reports_in(mod.package):
                continue
            for fn in mod.functions:
                for site in fn.emits:
                    diags.extend(
                        self._check_site(mod, site, EVENT_SCHEMAS, ENVELOPE_FIELDS)
                    )
                for call in fn.calls:
                    target = index.resolve_call(mod, fn, call.ref)
                    if target is None or target not in wrappers:
                        continue
                    kind, params = wrappers[target]
                    schema = EVENT_SCHEMAS.get(kind)
                    if schema is None:
                        continue
                    for param in sorted(params):
                        shape = call.kwargs_shapes.get(param)
                        if shape is None:
                            continue
                        diags.extend(
                            self._check_fields(
                                mod.path,
                                call.line,
                                call.col,
                                kind,
                                shape,
                                schema,
                                ENVELOPE_FIELDS,
                                check_missing=False,
                                context=f"via {target.rsplit('.', 1)[-1]}(..., "
                                f"{param}={{...}})",
                            )
                        )
        return diags

    def _check_site(
        self,
        mod: ModuleSummary,
        site: EmitSite,
        schemas: Dict[str, object],
        envelope: Dict[str, str],
    ) -> List[Diagnostic]:
        if site.kind is None:
            return []
        schema = schemas.get(site.kind)
        if schema is None:
            return [
                self.diagnostic(
                    mod.path,
                    site.line,
                    site.col,
                    f"{site.via}({site.kind!r}, ...): unknown event kind; "
                    f"declare it in repro.obs.events.EVENT_SCHEMAS first",
                )
            ]
        return self._check_fields(
            mod.path,
            site.line,
            site.col,
            site.kind,
            site.fields,
            schema,
            envelope,
            check_missing=not site.open and not site.open_params,
            context="",
        )

    def _check_fields(
        self,
        path: str,
        line: int,
        col: int,
        kind: str,
        fields: Dict[str, str],
        schema: object,
        envelope: Dict[str, str],
        check_missing: bool,
        context: str,
    ) -> List[Diagnostic]:
        suffix = f" {context}" if context else ""
        diags: List[Diagnostic] = []
        required: Dict[str, str] = dict(schema.required)  # type: ignore[attr-defined]
        optional: Dict[str, str] = dict(schema.optional)  # type: ignore[attr-defined]
        for name in sorted(fields):
            inferred = fields[name]
            if name in ("event", "schema_version"):
                diags.append(
                    self.diagnostic(
                        path,
                        line,
                        col,
                        f"{kind} emission sets envelope field {name!r}; "
                        f"make_event owns the envelope{suffix}",
                    )
                )
                continue
            declared = required.get(name) or optional.get(name) or envelope.get(name)
            if declared is None:
                diags.append(
                    self.diagnostic(
                        path,
                        line,
                        col,
                        f"{kind} emission carries undeclared field {name!r}; "
                        f"declare it in EVENT_SCHEMAS[{kind!r}] or drop "
                        f"it{suffix}",
                    )
                )
            elif inferred != "?" and not _type_compatible(declared, inferred):
                diags.append(
                    self.diagnostic(
                        path,
                        line,
                        col,
                        f"{kind} field {name!r} is declared {declared} but "
                        f"the emitted value is {inferred}{suffix}",
                    )
                )
        if check_missing:
            for name in sorted(set(required) - set(fields)):
                diags.append(
                    self.diagnostic(
                        path,
                        line,
                        col,
                        f"{kind} emission is missing required field "
                        f"{name!r}{suffix}",
                    )
                )
        return diags


def _type_compatible(declared: str, inferred: str) -> bool:
    if declared == inferred:
        return True
    if declared == "float" and inferred == "int":
        return True
    return False


# ======================================================================
# OCD014 — multiprocessing safety of sweep workers
# ======================================================================
@register_rule
class MultiprocessingSafetyRule(ProgramRule):
    """The sweep executor promises serial == parallel byte-equality.
    That only holds when worker code is process-safe: submitted
    callables must be importable (module-level, picklable), worker
    functions must not mutate module globals (mutations happen in a
    child process and silently diverge from serial runs), and workers
    must not capture fork-unsafe module state (open handles, locks,
    shared RNG objects).
    """

    code = "OCD014"
    name = "mp-unsafe-worker"
    summary = "multiprocessing hazard in sweep worker code"
    invariant = (
        "executor determinism: serial and parallel sweeps are "
        "byte-identical, which requires picklable, side-effect-free, "
        "fork-safe worker functions"
    )
    packages = frozenset({"experiments"})

    #: Module globals that are *registries populated at import time*;
    #: reads are how workers find their point functions.
    _MUTATION_EXEMPT_CALLERS: FrozenSet[str] = frozenset()

    def check_program(self, index: ProgramIndex) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        reachable = index.worker_reachable()

        for mod in index.modules:
            in_scope = self.reports_in(mod.package)
            for fn in mod.functions:
                if in_scope:
                    diags.extend(self._check_submissions(index, mod, fn))
                    if fn.is_point_function and fn.nested:
                        diags.append(
                            self.diagnostic(
                                mod.path,
                                fn.line,
                                fn.col,
                                f"point function {fn.name!r} is defined "
                                f"inside another function; worker processes "
                                f"re-import point functions, so they must "
                                f"be module-level",
                            )
                        )
                chain = reachable.get(fn.qname)
                if chain is None:
                    continue
                # Worker-reachable code is checked wherever it lives —
                # the entry point anchors it to the experiments layer.
                entry = chain[0].rsplit(".", 1)[-1]
                via = (
                    ""
                    if len(chain) == 1
                    else f" (reached from worker entry {entry}() via "
                    + " -> ".join(q.rsplit(".", 1)[-1] for q in chain)
                    + ")"
                )
                for name, how, line, col in fn.global_mutations:
                    diags.append(
                        self.diagnostic(
                            mod.path,
                            line,
                            col,
                            f"worker-reachable {fn.name}() mutates module "
                            f"global {name!r} ({how}); the change happens in "
                            f"a child process and diverges from serial "
                            f"runs{via}",
                        )
                    )
                for name in fn.global_reads:
                    what = mod.unsafe_globals.get(name)
                    if what is None:
                        continue
                    diags.append(
                        self.diagnostic(
                            mod.path,
                            fn.line,
                            fn.col,
                            f"worker-reachable {fn.name}() captures module "
                            f"global {name!r} — {what} is fork-unsafe; "
                            f"construct it inside the worker instead{via}",
                        )
                    )
        return diags

    def _check_submissions(
        self, index: ProgramIndex, mod: ModuleSummary, fn: FunctionSummary
    ) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for target in fn.submit_targets:
            if target.ref == "lambda":
                diags.append(
                    self.diagnostic(
                        mod.path,
                        target.line,
                        target.col,
                        "lambda submitted to a process pool; lambdas are "
                        "unpicklable — submit a module-level function",
                    )
                )
                continue
            resolved = index.resolve_call(mod, fn, target.ref)
            if resolved is None:
                continue
            callee = index.functions[resolved]
            if callee.nested:
                diags.append(
                    self.diagnostic(
                        mod.path,
                        target.line,
                        target.col,
                        f"nested function {callee.name!r} submitted to a "
                        f"process pool; closures are unpicklable — move it "
                        f"to module level",
                    )
                )
        return diags


# ======================================================================
# OCD016 — trace lines parsed outside the canonical schema readers
# ======================================================================
@register_rule
class TraceRawReadRule(ProgramRule):
    """The schema contract holds only if every consumer reads traces
    through :mod:`repro.obs.events` (``read_events`` / ``iter_events`` /
    ``read_events_tail``), which enforce the envelope, reject unknown
    records, and own tail/partial-line semantics.  A module in the
    observability layer calling ``json.loads`` on lines directly gets
    none of that — it silently accepts records the schema would refuse
    and breaks the moment ``SCHEMA_VERSION`` bumps.  This rule flags any
    ``json.loads`` call in ``repro.obs`` outside the reader module
    itself, through any import spelling (``import json``,
    ``import json as j``, ``from json import loads``).

    ``json.load`` (whole-file, e.g. bench snapshots) is deliberately not
    flagged: the contract covers line-oriented *trace* records.  A vetted
    exception would carry ``# ocd: ignore[OCD016]``; the tree has none.
    """

    code = "OCD016"
    name = "trace-raw-read"
    summary = "trace JSONL parsed directly instead of via repro.obs.events"
    invariant = (
        "observability schema: every trace line reaches consumers "
        "through the canonical readers in repro.obs.events, so envelope "
        "checks and schema versioning cannot be bypassed"
    )
    packages = frozenset({"obs"})
    exclude_packages = frozenset({"tests"})

    #: The one module allowed to parse raw trace lines.
    _READER_MODULE = "repro.obs.events"

    def check_program(self, index: ProgramIndex) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for mod in index.modules:
            if not self.reports_in(mod.package):
                continue
            if mod.module == self._READER_MODULE:
                continue
            for fn in mod.functions:
                for call in fn.calls:
                    if not self._is_raw_loads(mod, call.ref):
                        continue
                    diags.append(
                        self.diagnostic(
                            mod.path,
                            call.line,
                            call.col,
                            f"{fn.qname.rsplit('.', 1)[-1]}() parses JSON "
                            f"lines with json.loads; trace records must be "
                            f"read via repro.obs.events (read_events / "
                            f"iter_events / read_events_tail) so the "
                            f"schema envelope is enforced",
                        )
                    )
        return diags

    @staticmethod
    def _is_raw_loads(mod: ModuleSummary, ref: str) -> bool:
        kind, _, path = ref.partition(":")
        if kind == "a":
            root, _, rest = path.partition(".")
            resolved = mod.aliases.get(root, root)
            return f"{resolved}.{rest}" == "json.loads" if rest else False
        if kind == "n":
            return mod.aliases.get(path) == "json.loads"
        return False
