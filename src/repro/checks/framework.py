"""Rule framework for ocdlint: diagnostics, registry, suppressions, runner.

A *rule* is a class with a stable code (``OCD001``…), a short name, the
Section 3.1 invariant it guards, and a package scope.  Each rule
(:class:`Rule`) inspects one parsed module at a time through a
:class:`LintContext`.  The runner applies line- and file-level
suppression comments and emits the survivors in a deterministic order.

Suppressions go on the offending line::

    x = draw()          # ocd: ignore[OCD001] -- vetted: test-only path
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

__all__ = [
    "Diagnostic",
    "LintContext",
    "Rule",
    "all_rules",
    "expand_paths",
    "package_of",
    "register_rule",
    "run_file",
    "run_paths",
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


_REGISTRY: Dict[str, Type[Rule]] = {}

_CODE_RE = re.compile(r"^OCD\d{3}$")


def register_rule(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry."""
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


def all_rules(select: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instances of every registered rule (or the selected codes), by code."""
    return [_REGISTRY[c]() for c in _selected_codes(select)]


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
#: ``# ocd: ignore[OCD001, OCD004] -- reason`` (codes optional — bare
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
    for rule in all_rules(select):
        if not rule.applies(ctx):
            continue
        for diag in rule.check(ctx):
            if not _is_suppressed(diag, per_line, whole_file):
                diagnostics.append(diag)
    return sorted(diagnostics)


def run_file(path: str, select: Optional[Iterable[str]] = None) -> List[Diagnostic]:
    """Lint one file on disk."""
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


def run_paths(
    paths: Sequence[str], select: Optional[Iterable[str]] = None
) -> List[Diagnostic]:
    """Lint files and/or directory trees; returns sorted diagnostics.

    This is the whole linter: the CLI renders what it returns.  A
    ``select`` that is empty or names an unknown code raises
    :class:`ValueError` before any file is read.
    """
    _selected_codes(select)
    diagnostics: List[Diagnostic] = []
    for f in expand_paths(paths):
        diagnostics.extend(run_file(f, select=select))
    return sorted(diagnostics)
