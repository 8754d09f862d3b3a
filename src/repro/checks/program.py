"""Whole-program model for ocdlint v2.

The per-file rules see one module at a time; the program rules (OCD003,
OCD010+) reason about the *program*: an unseeded RNG three calls below
an engine entry point, a set returned by a helper and iterated in hash
order, a trace emission site whose fields drift from the schema
registry, a sweep worker mutating a module global.
This module builds everything those rules need, in two layers:

:func:`summarize_module`
    One pass over a parsed module producing a :class:`ModuleSummary` — a
    plain-data digest: the import-alias map, every function with its
    nondeterminism sources, outgoing calls, trace emission sites (with
    statically resolved field shapes), global mutations, executor
    submissions, and set iterations.  Summaries are *per-file facts
    only*: a file's summary is a pure function of its bytes.

:class:`ProgramIndex`
    The cross-module layer: a symbol table over all summaries, call
    resolution (through package re-exports), the call graph, and taint
    propagation with shortest-chain witnesses.

Resolution is deliberately conservative.  A call the index cannot
resolve (a duck-typed attribute, an injected callback) creates no edge
and therefore no finding: the analyzer only reports what it can witness
with a concrete chain, so every diagnostic carries an actionable path.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.checks.framework import package_of

__all__ = [
    "EmitSite",
    "FunctionSummary",
    "ModuleSummary",
    "ProgramIndex",
    "SourceSite",
    "TaintWitness",
    "module_name_of",
    "summarize_module",
    "summarize_source",
]

# ----------------------------------------------------------------------
# Nondeterminism source patterns (by import-resolved qualified name)
# ----------------------------------------------------------------------
#: kind -> qualified callable names that taint a caller.
_RNG_FUNCS = frozenset(
    f"random.{name}"
    for name in (
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
    )
)
_NUMPY_RNG_ATTRS = frozenset(
    {
        "choice",
        "permutation",
        "rand",
        "randint",
        "randn",
        "random",
        "random_sample",
        "seed",
        "shuffle",
    }
)
_CLOCK_FUNCS = frozenset(
    {
        "time.clock",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)
_ENV_FUNCS = frozenset(
    {
        "os.getpid",
        "os.getppid",
        "os.getenv",
        "os.uname",
        "socket.gethostname",
        "platform.node",
    }
)
_FSORDER_FUNCS = frozenset(
    {
        "os.listdir",
        "os.scandir",
        "os.walk",
        "glob.glob",
        "glob.iglob",
    }
)
#: Method names that walk the filesystem (Path API); matched on any
#: receiver — ``sorted(...)`` or a suppression excuses real uses.
_FSORDER_METHODS = frozenset({"iterdir", "rglob"})

#: Module-level constructor calls whose values are fork-unsafe to share
#: with worker processes (live handles, locks, entropy state).
_FORK_UNSAFE_CTORS = {
    "open": "an open file handle",
    "threading.Lock": "a threading.Lock",
    "threading.RLock": "a threading.RLock",
    "threading.Condition": "a threading.Condition",
    "threading.Semaphore": "a threading.Semaphore",
    "threading.Event": "a threading.Event",
    "multiprocessing.Lock": "a multiprocessing.Lock",
    "random.Random": "a shared random.Random",
    "random.SystemRandom": "a random.SystemRandom",
}

#: Receiver-method mutators (same list the per-file OCD002 rule uses).
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

_SET_ANNOTATION_TOKENS = frozenset(
    {"set", "Set", "frozenset", "FrozenSet", "AbstractSet", "MutableSet"}
)

#: Qualified names of the canonical event constructor.
_MAKE_EVENT_NAMES = frozenset(
    {"repro.obs.events.make_event", "repro.obs.make_event"}
)


# ----------------------------------------------------------------------
# Summary dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SourceSite:
    """One direct nondeterminism source inside a function body."""

    kind: str  # "rng" | "clock" | "env" | "fsorder"
    what: str  # human-readable callable, e.g. "random.random()"
    line: int
    col: int


@dataclass(frozen=True)
class CallSite:
    """One outgoing call.

    ``ref`` encodes how the callee was written: ``q:<qname>`` when the
    extractor resolved it locally (a nested def, a same-class ``self``
    method), ``n:<name>`` for a bare name, ``a:<dotted.path>`` for an
    attribute chain rooted in a module-ish name.  ``kwargs_shapes`` and
    ``args_shapes`` carry dict-literal arguments (constant keys with
    inferred value types) so the contract rule can check wrapper
    call sites like ``emit_step_event(..., extra={"facts_learned": n})``.
    """

    ref: str
    line: int
    col: int
    kwargs_shapes: Dict[str, Dict[str, str]] = field(default_factory=dict)
    args_shapes: Dict[str, Dict[str, str]] = field(default_factory=dict)


@dataclass(frozen=True)
class EmitSite:
    """One statically discovered trace emission site.

    ``via`` is ``"emit"`` for ``<tracer>.emit(kind, fields)`` and
    ``"make_event"`` for direct schema-constructor calls.  ``fields``
    maps every statically known field name to its inferred JSON type
    (``"?"`` when the value's type could not be inferred).  ``open`` is
    true when the dict may carry additional keys the extractor cannot
    see (``**unpack``, ``.update(<non-literal>)``); ``open_params``
    names the enclosing function's parameters that flow into the dict,
    which is what makes the function a checkable *emission wrapper*.
    """

    kind: Optional[str]
    via: str
    line: int
    col: int
    fields: Dict[str, str] = field(default_factory=dict)
    open: bool = False
    open_params: Tuple[str, ...] = ()


@dataclass(frozen=True)
class FunctionSummary:
    """Per-file facts about one function (or method, or nested def)."""

    qname: str
    name: str
    line: int
    col: int
    nested: bool = False
    sources: Tuple[SourceSite, ...] = ()
    calls: Tuple[CallSite, ...] = ()
    returns_set: bool = False
    #: Call results iterated without an ordering wrapper: (ref, line, col).
    call_iterations: Tuple[CallSite, ...] = ()
    #: Iterations over a set this scope builds, names or is handed: (line, col).
    set_iterations: Tuple[Tuple[int, int], ...] = ()
    emits: Tuple[EmitSite, ...] = ()
    #: Module-global names this function assigns/mutates: (name, how, line, col).
    global_mutations: Tuple[Tuple[str, str, int, int], ...] = ()
    #: Module-global names this function reads.
    global_reads: Tuple[str, ...] = ()
    #: Callables handed to a process pool: (ref-or-marker, line, col).
    submit_targets: Tuple[CallSite, ...] = ()
    is_point_function: bool = False


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the program rules need to know about one module."""

    path: str
    module: str
    package: str
    aliases: Dict[str, str] = field(default_factory=dict)
    module_globals: Tuple[str, ...] = ()
    #: Module globals bound to fork-unsafe constructors: name -> what.
    unsafe_globals: Dict[str, str] = field(default_factory=dict)
    functions: Tuple[FunctionSummary, ...] = ()
    #: Set iterations in module-level code: (line, col).
    set_iterations: Tuple[Tuple[int, int], ...] = ()


# ----------------------------------------------------------------------
# Module name derivation
# ----------------------------------------------------------------------
def module_name_of(path: str) -> str:
    """Dotted module name from a file path, anchored at ``repro``.

    ``src/repro/sim/engine.py`` → ``repro.sim.engine``;
    ``src/repro/checks/__init__.py`` → ``repro.checks``; paths outside a
    ``repro`` tree (examples, tests, fixtures) map to their stem so they
    can still participate in single-directory analysis.
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


# ----------------------------------------------------------------------
# Extraction helpers
# ----------------------------------------------------------------------
def _collect_aliases(tree: ast.Module) -> Dict[str, str]:
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


def _bound_names(target: ast.expr) -> Iterable[str]:
    """Names an assignment target *binds* (``d[k] = v`` binds nothing)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _bound_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value)


def _dotted_chain(expr: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]`` when the chain is pure names."""
    parts: List[str] = []
    current = expr
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return parts[::-1]
    return None


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


def _scope_nodes(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Every node of one scope, without descending into nested function
    or class definitions (each of those is a scope of its own)."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _iterables(node: ast.AST) -> List[ast.expr]:
    """The expressions a ``for`` loop or a comprehension iterates."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return [gen.iter for gen in node.generators]
    return []


def _is_set_expr(expr: ast.expr, set_names: Set[str]) -> bool:
    """Whether ``expr`` is syntactically a set: a literal, a comprehension,
    a ``set()``/``frozenset()`` call, a name in ``set_names``, or set
    algebra with such an operand (so ``TokenSet`` algebra, which iterates
    in token order, stays clean)."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in {"set", "frozenset"}
    if isinstance(expr, ast.Name):
        return expr.id in set_names
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(expr.left, set_names) or _is_set_expr(
            expr.right, set_names
        )
    return False


def _set_iterations(
    args: Optional[ast.arguments], nodes: Sequence[ast.AST]
) -> Tuple[Tuple[int, int], ...]:
    """(line, col) of every iteration over a set within one scope.

    A name counts as a set when a set-annotated parameter, a set-valued
    assignment or a set annotation binds it, and no assignment in the
    scope rebinds it to anything else (``edges = sorted(edges)``).
    """
    params: List[ast.arg] = (
        [] if args is None else args.posonlyargs + args.args + args.kwonlyargs
    )
    names = {
        a.arg for a in params if annotation_tokens(a.annotation) & _SET_ANNOTATION_TOKENS
    }
    demoted: Set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bucket = names if _is_set_expr(node.value, names) else demoted
                    bucket.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if annotation_tokens(node.annotation) & _SET_ANNOTATION_TOKENS:
                names.add(node.target.id)
    names -= demoted
    return tuple(
        (it.lineno, it.col_offset)
        for node in nodes
        for it in _iterables(node)
        if _is_set_expr(it, names)
    )


def _literal_type(expr: ast.expr) -> str:
    """Inferred JSON type of an expression, ``"?"`` when unknown."""
    if isinstance(expr, ast.Constant):
        value = expr.value
        if isinstance(value, bool):
            return "bool"
        if isinstance(value, int):
            return "int"
        if isinstance(value, float):
            return "float"
        if isinstance(value, str):
            return "str"
        return "?"
    if isinstance(expr, ast.JoinedStr):
        return "str"
    if isinstance(expr, (ast.List, ast.Tuple, ast.ListComp)):
        return "list"
    if isinstance(expr, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, (ast.USub, ast.UAdd)):
        inner = _literal_type(expr.operand)
        return inner if inner in ("int", "float") else "?"
    if isinstance(expr, ast.Compare):
        return "bool"
    if isinstance(expr, ast.IfExp):
        left, right = _literal_type(expr.body), _literal_type(expr.orelse)
        if left == right:
            return left
        if {left, right} <= {"int", "float"}:
            return "float"
        return "?"
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return {
            "bool": "bool",
            "dict": "dict",
            "float": "float",
            "int": "int",
            "len": "int",
            "list": "list",
            "repr": "str",
            "round": "float",
            "sorted": "list",
            "str": "str",
            "tuple": "list",
        }.get(expr.func.id, "?")
    return "?"


@dataclass
class _DictShape:
    """Statically resolved shape of a fields dict expression."""

    fields: Dict[str, str] = field(default_factory=dict)
    open: bool = False
    open_params: Set[str] = field(default_factory=set)

    def merge_literal(self, node: ast.Dict) -> None:
        for key, value in zip(node.keys, node.values):
            if key is None:  # **unpack
                self.open = True
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                self.fields[key.value] = _literal_type(value)
            else:
                self.open = True


class _FunctionExtractor:
    """One pass over a single function body.

    Walks the body without descending into nested function/class
    definitions (those become their own :class:`FunctionSummary`), and
    accumulates every per-file fact the program rules consume.
    """

    def __init__(
        self,
        module: "_ModuleExtractor",
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qname: str,
        class_name: Optional[str],
        nested: bool,
        local_defs: Mapping[str, str],
    ) -> None:
        self.module = module
        self.node = node
        self.qname = qname
        self.class_name = class_name
        self.nested = nested
        #: Names defined as functions in the enclosing lexical scope.
        self.local_defs = dict(local_defs)
        self.param_names = {
            a.arg
            for a in (
                list(node.args.posonlyargs)
                + list(node.args.args)
                + list(node.args.kwonlyargs)
                + ([node.args.vararg] if node.args.vararg else [])
                + ([node.args.kwarg] if node.args.kwarg else [])
            )
        }
        self.sources: List[SourceSite] = []
        self.calls: List[CallSite] = []
        self.call_iterations: List[CallSite] = []
        self.emits: List[EmitSite] = []
        self.global_mutations: List[Tuple[str, str, int, int]] = []
        self.global_reads: Set[str] = set()
        self.submit_targets: List[CallSite] = []
        self._sorted_args: Set[int] = set()
        self._local_names: Set[str] = set()
        self._global_decls: Set[str] = set()

    # -- scope walk -----------------------------------------------------
    def body_nodes(self) -> Iterable[ast.AST]:
        return _scope_nodes(self.node.body)

    # -- call reference resolution (lexical, this module only) ----------
    def _call_ref(self, func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.local_defs:
                return f"q:{self.local_defs[name]}"
            return f"n:{name}"
        chain = _dotted_chain(func)
        if chain is None:
            return None
        if chain[0] == "self" and len(chain) == 2 and self.class_name is not None:
            return f"s:{chain[1]}"
        return "a:" + ".".join(chain)

    def _qualified(self, ref: Optional[str]) -> Optional[str]:
        """Import-resolve a call ref to a dotted external name, if any."""
        if ref is None:
            return None
        if ref.startswith("n:"):
            return self.module.aliases.get(ref[2:])
        if ref.startswith("a:"):
            parts = ref[2:].split(".")
            root = self.module.aliases.get(parts[0])
            if root is None:
                return None
            return ".".join([root] + parts[1:])
        return None

    # -- extraction -----------------------------------------------------
    def run(self) -> FunctionSummary:
        # Defs in this function's own body shadow the enclosing scope
        # (so `pool.submit(work)` resolves to the *nested* work).
        for stmt in self.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.local_defs[stmt.name] = f"{self.qname}.{stmt.name}"
        # First pass: names assigned locally (to tell globals from locals)
        # and direct args of sorted(...) calls (ordering excuses).
        for node in self.body_nodes():
            if isinstance(node, ast.Global):
                self._global_decls.update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._local_names.update(_bound_names(target))
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(node.target, ast.Name):
                    self._local_names.add(node.target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._local_names.update(_bound_names(node.target))
            elif isinstance(node, (ast.withitem,)):
                if node.optional_vars is not None:
                    self._local_names.update(_bound_names(node.optional_vars))
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sorted"
                and node.args
            ):
                self._sorted_args.add(id(node.args[0]))
        self._local_names -= self._global_decls
        self._local_names |= self.param_names

        for node in self.body_nodes():
            for it in _iterables(node):
                self._visit_iteration(it)
            if isinstance(node, ast.Call):
                self._visit_call(node)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if (
                    node.id in self.module.module_globals
                    and node.id not in self._local_names
                ):
                    self.global_reads.add(node.id)
            self._visit_mutation(node)

        return FunctionSummary(
            qname=self.qname,
            name=self.node.name,
            line=self.node.lineno,
            col=self.node.col_offset,
            nested=self.nested,
            sources=tuple(self.sources),
            calls=tuple(self.calls),
            returns_set=self._returns_set(),
            call_iterations=tuple(self.call_iterations),
            set_iterations=_set_iterations(self.node.args, list(self.body_nodes())),
            emits=tuple(self.emits),
            global_mutations=tuple(self.global_mutations),
            global_reads=tuple(sorted(self.global_reads)),
            submit_targets=tuple(self.submit_targets),
            is_point_function=self._is_point_function(),
        )

    def _is_point_function(self) -> bool:
        for dec in self.node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if isinstance(target, ast.Name) and target.id == "point_function":
                return True
            if isinstance(target, ast.Attribute) and target.attr == "point_function":
                return True
        return False

    def _returns_set(self) -> bool:
        if annotation_tokens(self.node.returns) & _SET_ANNOTATION_TOKENS:
            return True
        return any(
            isinstance(node, ast.Return)
            and node.value is not None
            and _is_set_expr(node.value, set())
            for node in self.body_nodes()
        )

    # -- nondeterminism sources + calls ---------------------------------
    def _visit_call(self, node: ast.Call) -> None:
        ref = self._call_ref(node.func)
        qualified = self._qualified(ref)
        self._record_source(node, ref, qualified)
        self._record_emit(node, ref, qualified)
        self._record_submit(node)
        if ref is not None:
            kwargs_shapes: Dict[str, Dict[str, str]] = {}
            args_shapes: Dict[str, Dict[str, str]] = {}
            for kw in node.keywords:
                if kw.arg is not None and isinstance(kw.value, ast.Dict):
                    shape = _DictShape()
                    shape.merge_literal(kw.value)
                    if not shape.open:
                        kwargs_shapes[kw.arg] = shape.fields
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Dict):
                    shape = _DictShape()
                    shape.merge_literal(arg)
                    if not shape.open:
                        args_shapes[str(i)] = shape.fields
            self.calls.append(
                CallSite(
                    ref=ref,
                    line=node.lineno,
                    col=node.col_offset,
                    kwargs_shapes=kwargs_shapes,
                    args_shapes=args_shapes,
                )
            )

    def _record_source(
        self, node: ast.Call, ref: Optional[str], qualified: Optional[str]
    ) -> None:
        name = qualified
        if name is None and ref is not None and ref.startswith("a:"):
            # Unaliased chains like time.time() in a module that did
            # `import time` resolve through the alias map; a chain whose
            # root is not imported here cannot be a stdlib source.
            return
        if name is None:
            return
        if name in _RNG_FUNCS or name.startswith("secrets."):
            self._add_source("rng", f"{name}()", node)
        elif name in {"os.urandom", "uuid.uuid4"}:
            self._add_source("rng", f"{name}()", node)
        elif name in {"random.Random"} and not node.args and not node.keywords:
            self._add_source("rng", "random.Random() [unseeded]", node)
        elif name == "random.SystemRandom":
            self._add_source("rng", "random.SystemRandom()", node)
        elif name.startswith(("numpy.random.", "np.random.")):
            attr = name.rsplit(".", 1)[-1]
            if attr in _NUMPY_RNG_ATTRS or (
                attr == "default_rng" and not node.args and not node.keywords
            ):
                self._add_source("rng", f"{name}()", node)
        elif name in _CLOCK_FUNCS:
            self._add_source("clock", f"{name}()", node)
        elif name in _ENV_FUNCS:
            self._add_source("env", f"{name}()", node)
        elif name in _FSORDER_FUNCS:
            if id(node) not in self._sorted_args:
                self._add_source("fsorder", f"{name}()", node)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _FSORDER_METHODS
            and id(node) not in self._sorted_args
        ):
            self._add_source("fsorder", f".{node.func.attr}()", node)

    def _add_source(self, kind: str, what: str, node: ast.AST) -> None:
        self.sources.append(
            SourceSite(kind=kind, what=what, line=node.lineno, col=node.col_offset)
        )

    # -- iteration over call results (cross-function set leaks) ---------
    def _visit_iteration(self, it: ast.expr) -> None:
        if isinstance(it, ast.Call) and id(it) not in self._sorted_args:
            ref = self._call_ref(it.func)
            if ref is not None:
                self.call_iterations.append(
                    CallSite(ref=ref, line=it.lineno, col=it.col_offset)
                )

    # -- trace emission sites -------------------------------------------
    def _record_emit(
        self, node: ast.Call, ref: Optional[str], qualified: Optional[str]
    ) -> None:
        via: Optional[str] = None
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
            and _receiver_is_tracer(node.func.value)
        ):
            via = "emit"
        elif qualified in _MAKE_EVENT_NAMES or (
            ref is not None and ref == "n:make_event"
        ):
            via = "make_event"
        if via is None or len(node.args) < 1:
            return
        kind_node = node.args[0]
        kind: Optional[str] = None
        if isinstance(kind_node, ast.Constant) and isinstance(kind_node.value, str):
            kind = kind_node.value
        shape = _DictShape()
        if len(node.args) >= 2:
            self._resolve_dict_shape(node.args[1], shape, depth=0, seen=set())
        else:
            shape.open = True
        self.emits.append(
            EmitSite(
                kind=kind,
                via=via,
                line=node.lineno,
                col=node.col_offset,
                fields=shape.fields,
                open=shape.open,
                open_params=tuple(sorted(shape.open_params)),
            )
        )

    def _resolve_dict_shape(
        self, expr: ast.expr, shape: _DictShape, depth: int, seen: Set[str]
    ) -> None:
        """Best-effort static resolution of a fields expression."""
        if isinstance(expr, ast.Dict):
            shape.merge_literal(expr)
            return
        if isinstance(expr, ast.Name):
            if expr.id in self.param_names:
                shape.open = True
                shape.open_params.add(expr.id)
                return
            self._resolve_local_dict(expr.id, shape)
            return
        if isinstance(expr, ast.Call) and depth < 3:
            target = self._resolve_program_callee(expr.func)
            if target is not None and target.name not in seen:
                self.module.resolve_returned_dict(
                    target, shape, depth + 1, seen | {target.name}
                )
                return
        shape.open = True

    def _resolve_local_dict(self, name: str, shape: _DictShape) -> None:
        """Resolve a local variable holding the fields dict."""
        assigned = False
        for node in self.body_nodes():
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        if isinstance(node.value, ast.Dict):
                            shape.merge_literal(node.value)
                            assigned = True
                        else:
                            shape.open = True
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == name
                and node.value is not None
            ):
                if isinstance(node.value, ast.Dict):
                    shape.merge_literal(node.value)
                    assigned = True
                else:
                    shape.open = True
        if not assigned:
            shape.open = True
        # Mutations: d[key] = value, d.update(...)
        for node in self.body_nodes():
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == name
                    ):
                        key = target.slice
                        if isinstance(key, ast.Constant) and isinstance(key.value, str):
                            shape.fields[key.value] = _literal_type(node.value)
                        else:
                            shape.open = True
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "update"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                if node.args and isinstance(node.args[0], ast.Dict):
                    shape.merge_literal(node.args[0])
                elif (
                    node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in self.param_names
                ):
                    shape.open = True
                    shape.open_params.add(node.args[0].id)
                else:
                    shape.open = True

    def _resolve_program_callee(
        self, func: ast.expr
    ) -> Optional[ast.FunctionDef | ast.AsyncFunctionDef]:
        """A same-module function/method node for a call target, if any."""
        if isinstance(func, ast.Name):
            return self.module.function_nodes.get(func.id)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            return self.module.function_nodes.get(func.attr)
        return None

    # -- executor submissions -------------------------------------------
    def _record_submit(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in {"submit", "map", "apply_async"}:
            return
        receiver = node.func.value
        names: List[str] = []
        for sub in ast.walk(receiver):
            if isinstance(sub, ast.Name):
                names.append(sub.id.lower())
            elif isinstance(sub, ast.Attribute):
                names.append(sub.attr.lower())
        if not any("pool" in n or "executor" in n for n in names):
            return
        if not node.args:
            return
        target = node.args[0]
        if isinstance(target, ast.Lambda):
            ref = "lambda"
        else:
            ref = self._call_ref(target) or "?"
        self.submit_targets.append(
            CallSite(ref=ref, line=target.lineno, col=target.col_offset)
        )

    # -- global mutation detection --------------------------------------
    def _visit_mutation(self, node: ast.AST) -> None:
        module_globals = self.module.module_globals

        def is_global_name(expr: ast.expr) -> Optional[str]:
            if (
                isinstance(expr, ast.Name)
                and expr.id in module_globals
                and expr.id not in self._local_names
            ):
                return expr.id
            return None

        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                list(node.targets) if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in self._global_decls
                    and target.id in module_globals
                ):
                    self.global_mutations.append(
                        (target.id, "assignment", node.lineno, node.col_offset)
                    )
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    name = is_global_name(target.value)
                    if name is not None:
                        how = (
                            "item assignment"
                            if isinstance(target, ast.Subscript)
                            else f"attribute {target.attr!r} assignment"
                        )
                        self.global_mutations.append(
                            (name, how, node.lineno, node.col_offset)
                        )
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                name = is_global_name(func.value)
                if name is not None:
                    self.global_mutations.append(
                        (name, f".{func.attr}()", node.lineno, node.col_offset)
                    )


def _receiver_is_tracer(expr: ast.expr) -> bool:
    """Whether an ``.emit`` receiver looks like a tracer.

    Matched by naming convention (``tracer``, ``self._tracer``,
    ``run_tracer``), which is how every sink in the tree is bound; the
    Tracer protocol has no marker at the AST level.
    """
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Name) and "tracer" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "tracer" in sub.attr.lower():
            return True
    return False


class _ModuleExtractor:
    """Summarizes one parsed module."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        self.module = module_name_of(path)
        self.package = package_of(path)
        self.aliases = _collect_aliases(tree)
        self.module_globals = self._collect_globals(tree)
        #: Bare name -> def node, for same-module dict-shape resolution
        #: (module-level functions and every method, last definition wins).
        self.function_nodes: Dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.function_nodes[node.name] = node
        self._summaries: List[FunctionSummary] = []
        self._class_for_node: Dict[int, Optional[str]] = {}

    @staticmethod
    def _collect_globals(tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
        return names

    def _unsafe_globals(self) -> Dict[str, str]:
        unsafe: Dict[str, str] = {}
        for stmt in self.tree.body:
            if not isinstance(stmt, ast.Assign) or not isinstance(
                stmt.value, ast.Call
            ):
                continue
            func = stmt.value.func
            name: Optional[str] = None
            if isinstance(func, ast.Name):
                name = self.aliases.get(func.id, func.id)
            else:
                chain = _dotted_chain(func)
                if chain is not None:
                    root = self.aliases.get(chain[0], chain[0])
                    name = ".".join([root] + chain[1:])
            if name == "random.Random" and (stmt.value.args or stmt.value.keywords):
                continue  # a *seeded* module-level Random is deterministic
            what = _FORK_UNSAFE_CTORS.get(name or "")
            if what is None:
                continue
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    unsafe[target.id] = what
        return unsafe

    def resolve_returned_dict(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        shape: _DictShape,
        depth: int,
        seen: Set[str],
    ) -> None:
        """Fold the dict shape a function returns into ``shape``.

        Handles ``return {literal}`` and ``return name`` where ``name``
        is a locally assigned dict literal plus item assignments — which
        covers builder methods that assemble a payload before returning it.
        """
        class_name = self._class_for_node.get(id(node))
        sub = _FunctionExtractor(
            module=self,
            node=node,
            qname=f"{self.module}.{node.name}",
            class_name=class_name,
            nested=False,
            local_defs={},
        )
        # Seed the local-name pass so parameter dict-resolution works.
        returned = False
        for inner in sub.body_nodes():
            if isinstance(inner, ast.Return) and inner.value is not None:
                returned = True
                sub._resolve_dict_shape(inner.value, shape, depth, seen)
        if not returned:
            shape.open = True
        shape.open_params.clear()  # callee params are not our params

    def run(self) -> ModuleSummary:
        functions: List[FunctionSummary] = []

        def walk_scope(
            body: Sequence[ast.stmt],
            prefix: str,
            class_name: Optional[str],
            nested: bool,
            local_defs: Dict[str, str],
        ) -> None:
            # Two passes: collect sibling defs first so forward calls
            # (`run` calling a helper defined later) still resolve.
            scope_defs = dict(local_defs)
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scope_defs[stmt.name] = f"{prefix}.{stmt.name}"
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qname = f"{prefix}.{stmt.name}"
                    self._class_for_node[id(stmt)] = class_name
                    extractor = _FunctionExtractor(
                        module=self,
                        node=stmt,
                        qname=qname,
                        class_name=class_name,
                        nested=nested,
                        local_defs=scope_defs,
                    )
                    functions.append(extractor.run())
                    walk_scope(stmt.body, qname, None, True, scope_defs)
                elif isinstance(stmt, ast.ClassDef):
                    class_prefix = f"{prefix}.{stmt.name}"
                    method_defs = dict(scope_defs)
                    walk_scope(stmt.body, class_prefix, stmt.name, nested, method_defs)

        walk_scope(list(self.tree.body), self.module, None, False, {})
        return ModuleSummary(
            path=self.path,
            module=self.module,
            package=self.package,
            aliases=self.aliases,
            module_globals=tuple(sorted(self.module_globals)),
            unsafe_globals=self._unsafe_globals(),
            functions=tuple(functions),
            set_iterations=_set_iterations(None, list(_scope_nodes(self.tree.body))),
        )


def summarize_module(path: str, tree: ast.Module) -> ModuleSummary:
    """Summarize one parsed module for the program rules."""
    return _ModuleExtractor(path, tree).run()


def summarize_source(source: str, path: str) -> Optional[ModuleSummary]:
    """Parse + summarize; ``None`` when the file does not parse (the
    per-file runner reports the syntax error as OCD000)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return None
    return summarize_module(path, tree)


# ----------------------------------------------------------------------
# Program index: cross-module resolution, call graph, taint
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaintWitness:
    """Why a function is tainted: the chain down to a direct source.

    ``chain`` lists qualified callee names from the function's immediate
    callee to the function that contains the source; empty for a direct
    source.  ``site`` is the call site (direct-source line for direct
    taint) *inside the tainted function* to anchor the diagnostic.
    """

    kind: str
    what: str
    chain: Tuple[str, ...]
    line: int
    col: int
    source_path: str
    source_line: int


class ProgramIndex:
    """Symbol table + call graph over a set of module summaries."""

    def __init__(self, modules: Sequence[ModuleSummary]) -> None:
        self.modules: List[ModuleSummary] = sorted(modules, key=lambda m: m.path)
        self.by_module: Dict[str, ModuleSummary] = {}
        self.functions: Dict[str, FunctionSummary] = {}
        self.function_module: Dict[str, ModuleSummary] = {}
        for mod in self.modules:
            # Later duplicates (same dotted module under two roots) keep
            # the first, deterministically.
            self.by_module.setdefault(mod.module, mod)
            for fn in mod.functions:
                if fn.qname not in self.functions:
                    self.functions[fn.qname] = fn
                    self.function_module[fn.qname] = mod
        self._resolve_cache: Dict[Tuple[str, str], Optional[str]] = {}
        self._edges: Optional[Dict[str, List[Tuple[str, CallSite]]]] = None
        self._taint_cache: Dict[str, Dict[str, Dict[str, TaintWitness]]] = {}

    # -- call resolution ------------------------------------------------
    def resolve_call(self, mod: ModuleSummary, fn: FunctionSummary, ref: str) -> Optional[str]:
        """Resolve a call ref recorded in ``fn`` to a program qname."""
        key = (mod.module, ref)
        if key in self._resolve_cache and not ref.startswith("s:"):
            return self._resolve_cache[key]
        result = self._resolve_uncached(mod, fn, ref)
        if not ref.startswith("s:"):
            self._resolve_cache[key] = result
        return result

    def _resolve_uncached(
        self, mod: ModuleSummary, fn: FunctionSummary, ref: str
    ) -> Optional[str]:
        if ref.startswith("q:"):
            qname = ref[2:]
            return qname if qname in self.functions else None
        if ref.startswith("s:"):
            # self.<method>: the extractor already resolved same-class
            # methods lexically into q: refs where possible; as a
            # fallback, look for <module>.<Class>.<method> by scanning
            # the function's own class prefix.
            prefix = fn.qname.rsplit(".", 1)[0]
            candidate = f"{prefix}.{ref[2:]}"
            return candidate if candidate in self.functions else None
        if ref.startswith("n:"):
            name = ref[2:]
            candidate = f"{mod.module}.{name}"
            if candidate in self.functions:
                return candidate
            alias = mod.aliases.get(name)
            if alias is not None:
                return self.resolve_qualified(alias)
            return None
        if ref.startswith("a:"):
            parts = ref[2:].split(".")
            alias = mod.aliases.get(parts[0])
            if alias is None:
                return None
            return self.resolve_qualified(".".join([alias] + parts[1:]))
        return None

    def resolve_qualified(self, qname: str, _depth: int = 0) -> Optional[str]:
        """Resolve a dotted name through package re-export chains."""
        if _depth > 8:
            return None
        if qname in self.functions:
            return qname
        # Chase `from repro.sim import Engine` -> repro.sim.__init__'s
        # alias table maps Engine -> repro.sim.engine.Engine.
        parts = qname.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod_name = ".".join(parts[:cut])
            mod = self.by_module.get(mod_name)
            if mod is None:
                continue
            rest = parts[cut:]
            alias = mod.aliases.get(rest[0])
            if alias is not None:
                return self.resolve_qualified(
                    ".".join([alias] + rest[1:]), _depth + 1
                )
            candidate = ".".join([mod_name] + rest)
            if candidate in self.functions:
                return candidate
            return None
        return None

    # -- call graph ------------------------------------------------------
    @property
    def edges(self) -> Dict[str, List[Tuple[str, CallSite]]]:
        """qname -> [(callee qname, call site)], resolved program-wide."""
        if self._edges is None:
            edges: Dict[str, List[Tuple[str, CallSite]]] = {}
            for mod in self.modules:
                for fn in mod.functions:
                    out: List[Tuple[str, CallSite]] = []
                    for call in fn.calls:
                        target = self.resolve_call(mod, fn, call.ref)
                        if target is not None and target != fn.qname:
                            out.append((target, call))
                    edges[fn.qname] = out
            self._edges = edges
        return self._edges

    # -- taint propagation ----------------------------------------------
    def taint(self, kinds: Iterable[str]) -> Dict[str, Dict[str, TaintWitness]]:
        """For each function: kind -> witness, propagated to fixpoint.

        The witness records the *shortest* chain found (BFS order over
        the reversed call graph), so diagnostics show a minimal path
        from the flagged function down to the concrete source call.
        """
        key = ",".join(sorted(set(kinds)))
        if key in self._taint_cache:
            return self._taint_cache[key]
        wanted = set(kinds)
        tainted: Dict[str, Dict[str, TaintWitness]] = {}

        # Seed: direct sources.
        frontier: List[str] = []
        for mod in self.modules:
            for fn in mod.functions:
                for source in fn.sources:
                    if source.kind not in wanted:
                        continue
                    per = tainted.setdefault(fn.qname, {})
                    if source.kind not in per:
                        per[source.kind] = TaintWitness(
                            kind=source.kind,
                            what=source.what,
                            chain=(),
                            line=source.line,
                            col=source.col,
                            source_path=mod.path,
                            source_line=source.line,
                        )
                        frontier.append(fn.qname)

        # Reverse adjacency for BFS.
        reverse: Dict[str, List[Tuple[str, CallSite]]] = {}
        for caller, outs in self.edges.items():
            for callee, site in outs:
                reverse.setdefault(callee, []).append((caller, site))

        queue = list(dict.fromkeys(frontier))
        while queue:
            current = queue.pop(0)
            current_taints = tainted.get(current, {})
            for caller, site in reverse.get(current, ()):
                per = tainted.setdefault(caller, {})
                changed = False
                for kind, witness in current_taints.items():
                    if kind in per:
                        continue
                    per[kind] = TaintWitness(
                        kind=kind,
                        what=witness.what,
                        chain=(current,) + witness.chain,
                        line=site.line,
                        col=site.col,
                        source_path=witness.source_path,
                        source_line=witness.source_line,
                    )
                    changed = True
                if changed:
                    queue.append(caller)

        self._taint_cache[key] = tainted
        return tainted

    # -- worker reachability (for the multiprocessing pass) -------------
    def worker_reachable(self) -> Dict[str, Tuple[str, ...]]:
        """qname -> entry chain, for every function a worker can run.

        Entry points are ``@point_function``-decorated functions and any
        function handed to a process pool by name; reachability follows
        the resolved call graph.
        """
        entries: List[str] = []
        for mod in self.modules:
            for fn in mod.functions:
                if fn.is_point_function:
                    entries.append(fn.qname)
                for target in fn.submit_targets:
                    resolved = self.resolve_call(mod, fn, target.ref)
                    if resolved is not None:
                        entries.append(resolved)
        reachable: Dict[str, Tuple[str, ...]] = {}
        queue: List[Tuple[str, Tuple[str, ...]]] = [
            (entry, (entry,)) for entry in dict.fromkeys(entries)
        ]
        while queue:
            current, chain = queue.pop(0)
            if current in reachable:
                continue
            reachable[current] = chain
            for callee, _site in self.edges.get(current, ()):
                if callee not in reachable:
                    queue.append((callee, chain + (callee,)))
        return reachable
