"""Rule framework for ocdlint: diagnostics, registry, suppressions, runner.

A *rule* is a class with a stable code (``OCD001``…), a short name, the
Section 3.1 invariant it guards, and a package scope.  Per-file rules
(:class:`Rule`) inspect one parsed module at a time through a
:class:`LintContext`; whole-program rules (:class:`ProgramRule`) see
every module at once through a
:class:`repro.checks.program.ProgramIndex`.  The runner applies line-
and file-level suppression comments and emits the survivors in a
deterministic order.

Suppressions go on the offending line::

    x = draw()          # ocd: ignore[OCD010] -- vetted: test-only path
    y = helper()        # ocd: ignore -- every rule on this line

or, as ``# ocd: ignore-file[CODE]`` on a line of its own, anywhere in
the file to silence a code for the whole file.

The framework is dependency-free (``ast`` + ``re`` only) so the gate can
run on any machine that can run the code it checks.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.checks.program import ModuleSummary, ProgramIndex

__all__ = [
    "Diagnostic",
    "LintContext",
    "ProgramRule",
    "Rule",
    "all_rules",
    "expand_paths",
    "file_rules",
    "package_of",
    "program_rules",
    "register_rule",
    "run_file",
    "run_paths",
    "run_program_pass",
    "run_source",
    "suppressions_for",
]

#: Code used for files the linter itself cannot process (syntax errors).
INTERNAL_CODE = "OCD000"


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: where it is, which rule fired, and why."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class LintContext:
    """Everything a rule may look at for one module."""

    path: str
    source: str
    tree: ast.Module
    #: Top-level subpackage under ``repro`` ("core", "heuristics", …),
    #: "examples" for example scripts, or "" when unknown.
    package: str
    lines: Tuple[str, ...]


class Rule:
    """Base class for ocdlint rules.

    Subclasses set the class attributes and implement :meth:`check`.
    ``packages`` limits where the rule fires (``None`` = everywhere);
    ``exclude_packages`` carves out exemptions (e.g. ``core`` may mutate
    its own types during construction).
    """

    code: str = ""
    name: str = ""
    summary: str = ""
    #: Which Section 3.1 (or layering) invariant the rule guards.
    invariant: str = ""
    packages: Optional[FrozenSet[str]] = None
    exclude_packages: FrozenSet[str] = frozenset()

    def applies(self, ctx: LintContext) -> bool:
        if ctx.package in self.exclude_packages:
            return False
        if self.packages is not None and ctx.package not in self.packages:
            return False
        return True

    def check(self, ctx: LintContext) -> List[Diagnostic]:
        raise NotImplementedError

    def diagnostic(self, ctx: LintContext, node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(
            path=ctx.path,
            line=int(getattr(node, "lineno", 1)),
            col=int(getattr(node, "col_offset", 0)),
            code=self.code,
            message=f"[{self.name}] {message}",
        )


class ProgramRule:
    """Base class for whole-program rules.

    Program rules see the entire analyzed tree at once through a
    :class:`repro.checks.program.ProgramIndex` and may emit diagnostics
    in any module.  ``packages`` scopes which modules the rule *reports
    in* (evidence may come from anywhere — that is the point).
    """

    code: str = ""
    name: str = ""
    summary: str = ""
    invariant: str = ""
    packages: Optional[FrozenSet[str]] = None
    exclude_packages: FrozenSet[str] = frozenset()

    def reports_in(self, package: str) -> bool:
        if package in self.exclude_packages:
            return False
        if self.packages is not None and package not in self.packages:
            return False
        return True

    def check_program(self, index: "ProgramIndex") -> List[Diagnostic]:
        raise NotImplementedError

    def diagnostic(
        self, path: str, line: int, col: int, message: str
    ) -> Diagnostic:
        return Diagnostic(
            path=path,
            line=line,
            col=col,
            code=self.code,
            message=f"[{self.name}] {message}",
        )


_REGISTRY: Dict[str, Type[Rule] | Type[ProgramRule]] = {}

_CODE_RE = re.compile(r"^OCD\d{3}$")


def register_rule(rule_cls: Type) -> Type:
    """Class decorator adding a (file or program) rule to the registry."""
    if not _CODE_RE.match(rule_cls.code):
        raise ValueError(f"rule {rule_cls.__name__} has invalid code {rule_cls.code!r}")
    if rule_cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule_cls.code}")
    _REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


def _selected_codes(select: Optional[Iterable[str]]) -> List[str]:
    codes = sorted(_REGISTRY)
    if select is not None:
        wanted = {c.strip().upper() for c in select if c.strip()}
        if not wanted:
            raise ValueError("rule selection names no code")
        unknown = wanted - set(codes)
        if unknown:
            raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
        codes = [c for c in codes if c in wanted]
    return codes


def all_rules(select: Optional[Iterable[str]] = None) -> List[Rule | ProgramRule]:
    """Instances of every registered rule (or the selected codes), by code."""
    return [_REGISTRY[c]() for c in _selected_codes(select)]


def file_rules(select: Optional[Iterable[str]] = None) -> List[Rule]:
    """The per-file rules among the selection."""
    return [r for r in all_rules(select) if isinstance(r, Rule)]


def program_rules(select: Optional[Iterable[str]] = None) -> List[ProgramRule]:
    """The whole-program rules among the selection."""
    return [r for r in all_rules(select) if isinstance(r, ProgramRule)]


# ----------------------------------------------------------------------
# Package identification
# ----------------------------------------------------------------------
def package_of(path: str) -> str:
    """Map a file path to its lint package scope.

    ``src/repro/heuristics/base.py`` → ``"heuristics"``;
    ``src/repro/cli.py`` → ``"cli"``; ``examples/quickstart.py`` →
    ``"examples"``; anything else → ``""``.  Works on path strings alone,
    so fixtures can impersonate any location.
    """
    parts = Path(path).parts
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        rest = parts[idx + 1 :]
        if len(rest) >= 2:
            return rest[0]
        if len(rest) == 1:
            return Path(rest[0]).stem
        return ""
    if "examples" in parts:
        return "examples"
    if "tests" in parts:
        return "tests"
    return ""


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
#: ``# ocd: ignore[OCD010, OCD011] -- reason`` (codes optional — bare
#: ``# ocd: ignore`` silences every rule on the line).
_LINE_IGNORE_RE = re.compile(
    r"#\s*ocd:\s*ignore(?:\[([A-Za-z0-9_,\s]+?)\])?\s*(?:--.*)?$"
)
_FILE_IGNORE_RE = re.compile(
    r"#\s*ocd:\s*ignore-file(?:\[([A-Za-z0-9_,\s]+?)\])?\s*(?:--.*)?$"
)

_ALL_CODES = "*"


def _parse_codes(group: Optional[str]) -> Set[str]:
    if group is None:
        return {_ALL_CODES}
    return {c.strip().upper() for c in group.split(",") if c.strip()}


def suppressions_for(
    lines: Sequence[str],
) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Per-line and whole-file suppressed codes from magic comments."""
    per_line: Dict[int, Set[str]] = {}
    whole_file: Set[str] = set()
    for i, line in enumerate(lines, start=1):
        if "ocd:" in line:
            file_match = _FILE_IGNORE_RE.search(line)
            if file_match:
                whole_file |= _parse_codes(file_match.group(1))
                continue
            line_match = _LINE_IGNORE_RE.search(line)
            if line_match:
                per_line.setdefault(i, set()).update(
                    _parse_codes(line_match.group(1))
                )
    return per_line, whole_file


def _is_suppressed(
    diag: Diagnostic, per_line: Dict[int, Set[str]], whole_file: Set[str]
) -> bool:
    if diag.code in whole_file or _ALL_CODES in whole_file:
        return True
    codes = per_line.get(diag.line)
    if codes is None:
        return False
    return diag.code in codes or _ALL_CODES in codes


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
def run_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """Lint one module given as source text.

    ``path`` determines the package scope (see :func:`package_of`) and is
    echoed in diagnostics; the file need not exist on disk.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Diagnostic(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code=INTERNAL_CODE,
                message=f"[syntax-error] cannot lint file: {exc.msg}",
            )
        ]
    lines = tuple(source.splitlines())
    ctx = LintContext(
        path=path,
        source=source,
        tree=tree,
        package=package_of(path),
        lines=lines,
    )
    per_line, whole_file = suppressions_for(lines)
    diagnostics: List[Diagnostic] = []
    for rule in file_rules(select):
        if not rule.applies(ctx):
            continue
        for diag in rule.check(ctx):
            if not _is_suppressed(diag, per_line, whole_file):
                diagnostics.append(diag)
    return sorted(diagnostics)


def run_file(path: str, select: Optional[Iterable[str]] = None) -> List[Diagnostic]:
    """Lint one file on disk (per-file rules only)."""
    source = Path(path).read_text(encoding="utf-8")
    return run_source(source, path=str(path), select=select)


def expand_paths(paths: Sequence[str]) -> List[str]:
    """Files and/or directory trees -> sorted, de-duplicated file list.

    Directories are walked recursively for ``*.py`` files in sorted order
    so output is stable across filesystems.
    """
    files: List[str] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(str(f) for f in sorted(p.rglob("*.py")))
        elif p.is_file():
            files.append(str(p))
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return sorted(dict.fromkeys(files))


def run_program_pass(
    summaries: Sequence["ModuleSummary"],
    suppressions: Dict[str, Tuple[Dict[int, Set[str]], Set[str]]],
    select: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """Run the whole-program rules over pre-extracted module summaries.

    ``suppressions`` maps each path to its (per-line, whole-file)
    suppressed-code sets, so ``# ocd: ignore[...]`` comments silence
    program diagnostics exactly like per-file ones.
    """
    from repro.checks.program import ProgramIndex

    rules = program_rules(select)
    if not rules or not summaries:
        return []
    index = ProgramIndex(list(summaries))
    diagnostics: List[Diagnostic] = []
    for rule in rules:
        for diag in rule.check_program(index):
            per_line, whole_file = suppressions.get(diag.path, ({}, set()))
            if not _is_suppressed(diag, per_line, whole_file):
                diagnostics.append(diag)
    return diagnostics


def run_paths(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    *,
    program: bool = True,
) -> List[Diagnostic]:
    """Lint files and/or directory trees; returns sorted diagnostics.

    Runs the per-file rules on each file, then — unless ``program`` is
    false — the whole-program passes (set iteration and call-chain
    taint) over all of them together.  This is the whole linter: the
    CLI renders what it returns.  A ``select`` that is empty, names an
    unknown code, or (without ``program``) names no per-file rule
    raises :class:`ValueError` before any file is read.
    """
    from repro.checks.program import summarize_source

    _selected_codes(select)
    if not program and not file_rules(select):
        raise ValueError(
            "the selection has no per-file rule, so --no-program leaves "
            "nothing to run"
        )
    diagnostics: List[Diagnostic] = []
    summaries = []
    suppressions: Dict[str, Tuple[Dict[int, Set[str]], Set[str]]] = {}
    for f in expand_paths(paths):
        source = Path(f).read_text(encoding="utf-8")
        diagnostics.extend(run_source(source, path=f, select=select))
        if program:
            summary = summarize_source(source, f)
            if summary is not None:
                summaries.append(summary)
                suppressions[f] = suppressions_for(source.splitlines())
    if program:
        diagnostics.extend(run_program_pass(summaries, suppressions, select=select))
    return sorted(diagnostics)
