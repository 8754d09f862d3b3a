"""Output formats for ocdlint: text and JSON.

Both render the same sorted diagnostics list:

* ``text`` — the classic ``path:line:col: CODE message`` listing.
* ``json`` — one object per finding plus a summary block; the shape the
  fixture tests and ad-hoc tooling read.

Rendering is deterministic: sorted findings, no timestamps, so two runs
over the same tree are byte-identical.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Sequence

from repro.checks.framework import Diagnostic

__all__ = [
    "render_json",
    "render_text",
]


def render_text(diagnostics: Sequence[Diagnostic]) -> str:
    """The classic ``path:line:col: CODE message`` listing."""
    return "\n".join(d.render() for d in diagnostics)


def render_json(
    diagnostics: Sequence[Diagnostic],
    *,
    files_checked: int = 0,
) -> str:
    """One JSON document: findings plus run summary."""
    payload: Dict[str, Any] = {
        "tool": "ocdlint",
        "findings": [
            {
                "path": d.path,
                "line": d.line,
                "col": d.col,
                "code": d.code,
                "message": d.message,
            }
            for d in sorted(diagnostics)
        ],
        "summary": {
            "count": len(diagnostics),
            "files_checked": files_checked,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=False)
