"""The per-file ocdlint rules (OCD001, OCD002, OCD004, OCD005, OCD016).

Each rule guards one invariant of the Section 3.1 model, of the
engine/heuristic layering built on top of it, or of the trace readers;
the mapping is recorded in each rule's ``invariant`` attribute and in
``docs/CHECKS.md``.  Every rule sees one module at a time.  Whether a
schedule is a function of (instance, seed) across modules is not linted:
``tests/test_determinism_env.py`` runs the program and compares outputs.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set

from repro.checks.framework import Diagnostic, LintContext, Rule, register_rule

__all__ = [
    "UnseededRandomRule",
    "ModelMutationRule",
    "WallClockTimestepRule",
    "EngineEncapsulationRule",
    "TraceRawReadRule",
]

#: Packages whose code defines or executes the model itself (as opposed
#: to measuring it, e.g. ``experiments``/``analysis``/``cli``).
MODEL_PACKAGES: FrozenSet[str] = frozenset(
    {
        "core",
        "sim",
        "heuristics",
        "locd",
        "exact",
        "extensions",
        "topology",
        "workloads",
        "reductions",
    }
)


def module_name_of(path: str) -> str:
    """Dotted module name from a file path, anchored at ``repro``.

    ``src/repro/sim/engine.py`` → ``repro.sim.engine``;
    ``src/repro/checks/__init__.py`` → ``repro.checks``; paths outside a
    ``repro`` tree (examples, tests, fixtures) map to their stem.
    """
    parts = Path(path).parts
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        rest = list(parts[idx:])
    else:
        rest = [Path(path).name]
    if rest and rest[-1].endswith(".py"):
        rest[-1] = rest[-1][: -len(".py")]
    if rest and rest[-1] == "__init__":
        rest = rest[:-1]
    return ".".join(rest)


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> imported qualified name, module-wide.

    ``import a.b`` binds ``a`` (Python semantics), ``import a.b as c``
    binds ``c`` to ``a.b``; ``from m import x as y`` binds ``y`` to
    ``m.x``.  Conditional imports (inside ``if TYPE_CHECKING`` etc.) are
    included — resolution is lexical, not dynamic.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    aliases[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname if alias.asname is not None else alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def annotation_tokens(node: Optional[ast.expr]) -> Set[str]:
    """Identifier tokens anywhere in an annotation, including string
    annotations such as ``"Optional[Set[int]]"``."""
    tokens: Set[str] = set()
    if node is None:
        return tokens
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            tokens.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            tokens.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            tokens.update(re.findall(r"\w+", sub.value))
    return tokens


def scope_nodes(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Every node of one scope, without descending into nested function
    or class definitions (each of those is a scope of its own)."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _attribute_chain_base(node: ast.expr) -> Optional[ast.expr]:
    """The root expression of an attribute/subscript chain, or None."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    return current


def _chain_attr_names(node: ast.expr) -> Set[str]:
    """All attribute names appearing along an access chain."""
    names: Set[str] = set()
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        if isinstance(current, ast.Attribute):
            names.add(current.attr)
        current = current.value
    return names


def _function_args(node: ast.FunctionDef | ast.AsyncFunctionDef) -> List[ast.arg]:
    args = node.args
    out = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    if args.vararg is not None:
        out.append(args.vararg)
    if args.kwarg is not None:
        out.append(args.kwarg)
    return out


# ======================================================================
# OCD001 — all randomness flows through an injected, seeded Random
# ======================================================================
@register_rule
class UnseededRandomRule(Rule):
    """Heuristics/simulation/locality/topology code must draw randomness
    only from an injected ``random.Random`` (e.g. ``ctx.rng``), never
    from the module-level ``random`` functions or an unseeded
    ``random.Random()`` — otherwise a schedule is not a deterministic
    function of (instance, seed) and no run is reproducible.
    """

    code = "OCD001"
    name = "unseeded-rng"
    summary = "module-level or unseeded RNG in model code"
    invariant = (
        "§3.1 determinism: a heuristic's schedule must be a function of "
        "the Problem instance and the injected seed alone"
    )
    packages = frozenset({"heuristics", "sim", "locd", "topology"})

    _MODULE_FUNCS = frozenset(
        {
            "betavariate",
            "binomialvariate",
            "choice",
            "choices",
            "expovariate",
            "gauss",
            "getrandbits",
            "lognormvariate",
            "normalvariate",
            "paretovariate",
            "randbytes",
            "randint",
            "random",
            "randrange",
            "sample",
            "seed",
            "shuffle",
            "triangular",
            "uniform",
            "vonmisesvariate",
            "weibullvariate",
        }
    )

    def check(self, ctx: LintContext) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        diags.append(
                            self.diagnostic(
                                ctx,
                                node,
                                f"importing random.{alias.name} invites hidden "
                                f"global-RNG use; inject a seeded random.Random "
                                f"(e.g. ctx.rng) instead",
                            )
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "random"
                ):
                    if func.attr in self._MODULE_FUNCS:
                        diags.append(
                            self.diagnostic(
                                ctx,
                                node,
                                f"random.{func.attr}() uses the shared global RNG; "
                                f"draw from an injected seeded random.Random instead",
                            )
                        )
                    elif func.attr == "Random" and not node.args and not node.keywords:
                        diags.append(
                            self.diagnostic(
                                ctx,
                                node,
                                "random.Random() without a seed is entropy-seeded "
                                "and nondeterministic; pass an explicit seed",
                            )
                        )
                    elif func.attr == "SystemRandom":
                        diags.append(
                            self.diagnostic(
                                ctx,
                                node,
                                "random.SystemRandom cannot be seeded and is never "
                                "reproducible; use a seeded random.Random",
                            )
                        )
                elif (
                    isinstance(func, ast.Name)
                    and func.id == "Random"
                    and not node.args
                    and not node.keywords
                ):
                    diags.append(
                        self.diagnostic(
                            ctx,
                            node,
                            "Random() without a seed is entropy-seeded and "
                            "nondeterministic; pass an explicit seed",
                        )
                    )
        return diags


# ======================================================================
# OCD002 — model values are immutable outside core/
# ======================================================================
@register_rule
class ModelMutationRule(Rule):
    """``Problem``, ``Arc``, ``StepContext``, and ``TokenSet`` values are
    immutable once constructed; outside ``core`` nothing may assign to
    their attributes or call mutating methods on (or through) them.  A
    bare-statement call of a pure method (``ts.add(3)``) is flagged too:
    the result is discarded, so it was *meant* as a mutation.
    """

    code = "OCD002"
    name = "model-mutation"
    summary = "mutation of an immutable model value outside core/"
    invariant = (
        "§3.1 instance immutability: G, c, T, h, w are fixed inputs; "
        "state evolves only through the engine's possession updates"
    )
    exclude_packages = frozenset({"core", "checks"})

    _GUARDED = frozenset({"Problem", "Arc", "StepContext", "TokenSet"})
    #: Attribute names conventionally bound to guarded values
    #: (``self.problem`` in heuristics, ``ctx`` is covered by annotations).
    _GUARDED_ATTRS = frozenset({"problem"})
    _MUTATORS = frozenset(
        {
            "add",
            "append",
            "clear",
            "discard",
            "extend",
            "insert",
            "pop",
            "popitem",
            "remove",
            "reverse",
            "setdefault",
            "sort",
            "update",
        }
    )

    def _is_direct_guarded(self, ann: Optional[ast.expr]) -> bool:
        """Whether an annotation denotes a guarded type itself.

        ``Problem``, ``"Problem"``, ``Optional[Arc]``, ``Arc | None`` are
        guarded; containers like ``List[Arc]`` or ``Sequence[TokenSet]``
        are not (appending to a list of Arcs mutates the list, not an Arc).
        """
        if ann is None:
            return False
        if isinstance(ann, ast.Name):
            return ann.id in self._GUARDED
        if isinstance(ann, ast.Attribute):
            return ann.attr in self._GUARDED
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                parsed = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return False
            return self._is_direct_guarded(parsed)
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            return self._is_direct_guarded(ann.left) or self._is_direct_guarded(
                ann.right
            )
        if isinstance(ann, ast.Subscript):
            base = ann.value
            base_name = (
                base.id
                if isinstance(base, ast.Name)
                else getattr(base, "attr", "")
            )
            if base_name in {"Annotated", "ClassVar", "Final", "Optional", "Union"}:
                slc = ann.slice
                elements = list(slc.elts) if isinstance(slc, ast.Tuple) else [slc]
                return any(self._is_direct_guarded(e) for e in elements)
        return False

    def _guarded_names(self, tree: ast.Module) -> Set[str]:
        """Names bound (anywhere in the module) to guarded-type values."""
        guarded: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg in _function_args(node):
                    if self._is_direct_guarded(arg.annotation):
                        guarded.add(arg.arg)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if self._is_direct_guarded(node.annotation):
                    guarded.add(node.target.id)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                value = node.value
                if isinstance(target, ast.Name) and isinstance(value, ast.Call):
                    func = value.func
                    base: Optional[str] = None
                    if isinstance(func, ast.Name):
                        base = func.id
                    elif isinstance(func, ast.Attribute):
                        root = _attribute_chain_base(func)
                        if isinstance(root, ast.Name):
                            base = root.id
                    if base in self._GUARDED:
                        guarded.add(target.id)
        return guarded

    def _receiver_is_guarded(self, expr: ast.expr, guarded: Set[str]) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in guarded
        if isinstance(expr, (ast.Attribute, ast.Subscript)):
            if _chain_attr_names(expr) & self._GUARDED_ATTRS:
                return True
            base = _attribute_chain_base(expr)
            return isinstance(base, ast.Name) and base.id in guarded
        return False

    def check(self, ctx: LintContext) -> List[Diagnostic]:
        guarded = self._guarded_names(ctx.tree)
        diags: List[Diagnostic] = []
        for node in ast.walk(ctx.tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                if isinstance(target, ast.Attribute) and self._receiver_is_guarded(
                    target.value, guarded
                ):
                    diags.append(
                        self.diagnostic(
                            ctx,
                            target,
                            f"assignment to attribute {target.attr!r} of an "
                            f"immutable model value; build a new value instead "
                            f"(model types are frozen outside core/)",
                        )
                    )
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                func = node.value.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._MUTATORS
                    and self._receiver_is_guarded(func.value, guarded)
                ):
                    diags.append(
                        self.diagnostic(
                            ctx,
                            node,
                            f".{func.attr}() on an immutable model value as a "
                            f"bare statement; model types never mutate in place "
                            f"(TokenSet methods return new sets — use the result)",
                        )
                    )
        return diags


# ======================================================================
# OCD004 — timesteps are integers, never wall-clock or floats
# ======================================================================
@register_rule
class WallClockTimestepRule(Rule):
    """The model is synchronous: timesteps are the integers ``1..t``.
    Model code must not consult wall-clock time, and no value used as a
    timestep index may be a float (true division, float literals, or
    ``float`` annotations on step-named variables).
    """

    code = "OCD004"
    name = "wall-clock-timestep"
    summary = "wall-clock time or float arithmetic used as a timestep"
    invariant = (
        "§3.1 synchronous rounds: schedules are indexed by integral "
        "timesteps 1..t, not by physical or fractional time"
    )
    packages = MODEL_PACKAGES

    _WALL_CLOCK = frozenset(
        {
            "clock",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "process_time",
            "process_time_ns",
            "time",
            "time_ns",
        }
    )
    _DATETIME_NOW = frozenset({"now", "today", "utcnow"})
    _STEP_NAMES = frozenset(
        {"makespan", "max_steps", "num_steps", "step", "time_step", "timestep"}
    )

    def _is_float_valued(self, expr: ast.expr) -> bool:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
                return True
            if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                return True
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "float"
            ):
                return True
        return False

    def check(self, ctx: LintContext) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in self._WALL_CLOCK:
                        diags.append(
                            self.diagnostic(
                                ctx,
                                node,
                                f"time.{alias.name} is wall-clock time; the model "
                                f"is synchronous — use integral timestep counters",
                            )
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                func = node.func
                base = _attribute_chain_base(func)
                if (
                    isinstance(base, ast.Name)
                    and base.id == "time"
                    and func.attr in self._WALL_CLOCK
                ):
                    diags.append(
                        self.diagnostic(
                            ctx,
                            node,
                            f"time.{func.attr}() is wall-clock time; the model "
                            f"is synchronous — use integral timestep counters",
                        )
                    )
                elif (
                    func.attr in self._DATETIME_NOW
                    and isinstance(base, ast.Name)
                    and base.id in {"date", "datetime"}
                ):
                    diags.append(
                        self.diagnostic(
                            ctx,
                            node,
                            f"{base.id}.{func.attr}() is wall-clock time; the "
                            f"model is synchronous — use integral timestep counters",
                        )
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg in _function_args(node):
                    if arg.arg in self._STEP_NAMES and "float" in annotation_tokens(
                        arg.annotation
                    ):
                        diags.append(
                            self.diagnostic(
                                ctx,
                                arg,
                                f"parameter {arg.arg!r} annotated float; timestep "
                                f"indices are integers (§3.1)",
                            )
                        )
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if node.target.id in self._STEP_NAMES and "float" in annotation_tokens(
                    node.annotation
                ):
                    diags.append(
                        self.diagnostic(
                            ctx,
                            node,
                            f"{node.target.id!r} annotated float; timestep "
                            f"indices are integers (§3.1)",
                        )
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id in self._STEP_NAMES
                        and self._is_float_valued(node.value)
                    ):
                        diags.append(
                            self.diagnostic(
                                ctx,
                                node,
                                f"{target.id!r} assigned a float-valued expression; "
                                f"timestep indices are integers — use // or "
                                f"math.ceil into int",
                            )
                        )
        return diags


# ======================================================================
# OCD005 — heuristics never reach into the engine
# ======================================================================
@register_rule
class EngineEncapsulationRule(Rule):
    """The engine validates heuristics, never the reverse.  Heuristic
    modules import the simulation surface only through ``repro.sim``
    (``StepContext``, ``Proposal``, …) — never the ``repro.sim.engine``
    module itself, the ``Engine``/``run_heuristic`` drivers, or any
    underscore-private name.
    """

    code = "OCD005"
    name = "engine-encapsulation"
    summary = "heuristic imports engine internals"
    invariant = (
        "layering: the engine owns ground-truth state and validates "
        "proposals; heuristics see only the read-only StepContext"
    )
    packages = frozenset({"heuristics"})

    _FORBIDDEN_NAMES = frozenset({"Engine", "run_heuristic"})

    def check(self, ctx: LintContext) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro.sim.engine"):
                        diags.append(
                            self.diagnostic(
                                ctx,
                                node,
                                "import of repro.sim.engine from a heuristic; "
                                "use the public surface `from repro.sim import ...`",
                            )
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("repro.sim.engine"):
                    diags.append(
                        self.diagnostic(
                            ctx,
                            node,
                            "import from repro.sim.engine in a heuristic; "
                            "use the public surface `from repro.sim import ...`",
                        )
                    )
                elif node.module.startswith("repro.sim"):
                    for alias in node.names:
                        if alias.name in self._FORBIDDEN_NAMES:
                            diags.append(
                                self.diagnostic(
                                    ctx,
                                    node,
                                    f"heuristics must not drive the simulator "
                                    f"({alias.name}); the engine calls the "
                                    f"heuristic, never the reverse",
                                )
                            )
                        elif alias.name.startswith("_"):
                            diags.append(
                                self.diagnostic(
                                    ctx,
                                    node,
                                    f"import of engine-private name "
                                    f"{alias.name!r} in a heuristic",
                                )
                            )
        return diags


# ======================================================================
# OCD016 — trace lines parsed outside the canonical schema readers
# ======================================================================
@register_rule
class TraceRawReadRule(Rule):
    """The schema contract holds only if every consumer reads traces
    through :mod:`repro.obs.events` (``read_events`` / ``iter_events`` /
    ``read_events_tail``), which enforce the envelope, reject unknown
    records, and own tail/partial-line semantics.  A module in the
    observability layer calling ``json.loads`` on lines directly gets
    none of that — it silently accepts records the schema would refuse
    and breaks the moment ``SCHEMA_VERSION`` bumps.  This rule flags any
    ``json.loads`` call inside a function in ``repro.obs`` outside the
    reader module itself, through any import spelling (``import json``,
    ``import json as j``, ``from json import loads``); a function of the
    same name defined in scope shadows the import.

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

    def check(self, ctx: LintContext) -> List[Diagnostic]:
        if module_name_of(ctx.path) == self._READER_MODULE:
            return []
        aliases = import_aliases(ctx.tree)
        diags: List[Diagnostic] = []

        def defs_in(body: Sequence[ast.stmt]) -> Set[str]:
            return {
                stmt.name
                for stmt in body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }

        def walk(body: Sequence[ast.stmt], shadowed: Set[str]) -> None:
            scope = shadowed | defs_in(body)
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    own = scope | defs_in(stmt.body)
                    for node in scope_nodes(stmt.body):
                        if isinstance(node, ast.Call) and self._is_raw_loads(
                            node.func, aliases, own
                        ):
                            diags.append(
                                self.diagnostic(
                                    ctx,
                                    node,
                                    f"{stmt.name}() parses JSON lines with "
                                    f"json.loads; trace records must be read "
                                    f"via repro.obs.events (read_events / "
                                    f"iter_events / read_events_tail) so the "
                                    f"schema envelope is enforced",
                                )
                            )
                    walk(stmt.body, scope)
                elif isinstance(stmt, ast.ClassDef):
                    walk(stmt.body, scope)

        walk(ctx.tree.body, set())
        return diags

    @staticmethod
    def _is_raw_loads(
        func: ast.expr, aliases: Dict[str, str], shadowed: Set[str]
    ) -> bool:
        if isinstance(func, ast.Name):
            return func.id not in shadowed and aliases.get(func.id) == "json.loads"
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "loads"
            and isinstance(func.value, ast.Name)
        ):
            return aliases.get(func.value.id, func.value.id) == "json"
        return False
