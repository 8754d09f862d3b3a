"""Command-line front end for the static-analysis layer.

``python -m repro.checks [paths...]`` (or the ``ocdlint`` console script)
runs the AST rules over ``paths`` (:func:`repro.checks.framework.run_paths`)
and prints the findings::

    ocdlint --select OCD001,OCD004    # only these rules
    ocdlint --format json             # findings plus a summary block
    ocdlint --list-rules              # describe every rule and exit
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.checks.framework import all_rules, expand_paths, run_paths
from repro.checks.output import render_json, render_text

__all__ = ["main"]

DEFAULT_PATHS = ("src", "examples")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.checks",
        description="ocdlint: static checks for the OCD model invariants",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="files or directories to lint (default: src examples)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every registered rule and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="diagnostic output format",
    )
    return parser


def _list_rules() -> str:
    lines: List[str] = []
    for rule in all_rules():
        scope = (
            ", ".join(sorted(rule.packages)) if rule.packages is not None else "all"
        )
        lines.append(f"{rule.code} {rule.name}: {rule.summary}")
        lines.append(f"    guards : {rule.invariant}")
        lines.append(f"    scope  : {scope}")
        if rule.exclude_packages:
            lines.append(f"    except : {', '.join(sorted(rule.exclude_packages))}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run ocdlint; exit 0 when clean, 1 on diagnostics, 2 on usage errors."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    select = args.select.split(",") if args.select is not None else None
    try:
        files = expand_paths(args.paths)
        diagnostics = run_paths(files, select=select)
    except (FileNotFoundError, ValueError) as exc:
        print(f"ocdlint: error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(diagnostics, files_checked=len(files)))
    elif diagnostics:
        print(render_text(diagnostics))
    if diagnostics:
        print(f"ocdlint: {len(diagnostics)} diagnostic(s)", file=sys.stderr)
        return 1
    return 0
