"""Whole-program model for ocdlint.

The per-file rules see one module at a time; the program rules (OCD003,
OCD010, OCD011) reason about the *program*: an unseeded RNG three calls
below an engine entry point, or a set returned by a helper and iterated
in hash order.  This module builds everything those rules need, in two
layers:

:func:`summarize_module`
    One pass over a parsed module producing a :class:`ModuleSummary` — a
    plain-data digest: the import-alias map, every function with its
    nondeterminism sources, outgoing calls, and set iterations.
    Summaries are *per-file facts only*: a file's summary is a pure
    function of its bytes.

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

_SET_ANNOTATION_TOKENS = frozenset(
    {"set", "Set", "frozenset", "FrozenSet", "AbstractSet", "MutableSet"}
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
    attribute chain rooted in a module-ish name, ``s:<method>`` for a
    ``self.<method>`` call inside a class.
    """

    ref: str
    line: int
    col: int


@dataclass(frozen=True)
class FunctionSummary:
    """Per-file facts about one function (or method, or nested def)."""

    qname: str
    name: str
    line: int
    col: int
    sources: Tuple[SourceSite, ...] = ()
    calls: Tuple[CallSite, ...] = ()
    returns_set: bool = False
    #: Call results iterated without an ordering wrapper: (ref, line, col).
    call_iterations: Tuple[CallSite, ...] = ()
    #: Iterations over a set this scope builds, names or is handed: (line, col).
    set_iterations: Tuple[Tuple[int, int], ...] = ()


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the program rules need to know about one module."""

    path: str
    module: str
    package: str
    aliases: Dict[str, str] = field(default_factory=dict)
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
        local_defs: Mapping[str, str],
    ) -> None:
        self.module = module
        self.node = node
        self.qname = qname
        self.class_name = class_name
        #: Names defined as functions in the enclosing lexical scope.
        self.local_defs = dict(local_defs)
        self.sources: List[SourceSite] = []
        self.calls: List[CallSite] = []
        self.call_iterations: List[CallSite] = []
        self._sorted_args: Set[int] = set()

    # -- scope walk -----------------------------------------------------
    def body_nodes(self) -> Iterable[ast.AST]:
        return scope_nodes(self.node.body)

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
        # Defs in this function's own body shadow the enclosing scope.
        for stmt in self.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.local_defs[stmt.name] = f"{self.qname}.{stmt.name}"
        # First pass: direct args of sorted(...) calls (ordering excuses).
        for node in self.body_nodes():
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sorted"
                and node.args
            ):
                self._sorted_args.add(id(node.args[0]))

        for node in self.body_nodes():
            for it in _iterables(node):
                self._visit_iteration(it)
            if isinstance(node, ast.Call):
                self._visit_call(node)

        return FunctionSummary(
            qname=self.qname,
            name=self.node.name,
            line=self.node.lineno,
            col=self.node.col_offset,
            sources=tuple(self.sources),
            calls=tuple(self.calls),
            returns_set=self._returns_set(),
            call_iterations=tuple(self.call_iterations),
            set_iterations=_set_iterations(self.node.args, list(self.body_nodes())),
        )

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
        self._record_source(node, ref, self._qualified(ref))
        if ref is not None:
            self.calls.append(CallSite(ref=ref, line=node.lineno, col=node.col_offset))

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


class _ModuleExtractor:
    """Summarizes one parsed module."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        self.module = module_name_of(path)
        self.package = package_of(path)
        self.aliases = import_aliases(tree)

    def run(self) -> ModuleSummary:
        functions: List[FunctionSummary] = []

        def walk_scope(
            body: Sequence[ast.stmt],
            prefix: str,
            class_name: Optional[str],
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
                    extractor = _FunctionExtractor(
                        module=self,
                        node=stmt,
                        qname=qname,
                        class_name=class_name,
                        local_defs=scope_defs,
                    )
                    functions.append(extractor.run())
                    walk_scope(stmt.body, qname, None, scope_defs)
                elif isinstance(stmt, ast.ClassDef):
                    walk_scope(stmt.body, f"{prefix}.{stmt.name}", stmt.name, scope_defs)

        walk_scope(list(self.tree.body), self.module, None, {})
        return ModuleSummary(
            path=self.path,
            module=self.module,
            package=self.package,
            aliases=self.aliases,
            functions=tuple(functions),
            set_iterations=_set_iterations(None, list(scope_nodes(self.tree.body))),
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
