"""ocdlint — the repo's model-invariant static-analysis layer.

The simulator enforces the Section 3.1 constraints *dynamically*
(:class:`repro.sim.HeuristicViolation` fires when a heuristic cheats at
runtime), but a violation is only caught if some test happens to execute
the offending path.  This package is the static counterpart: per-file
AST rules (``OCD001``, ``OCD002``, ``OCD004``, ``OCD005``, ``OCD016``)
over one module at a time — seeded randomness, :class:`~repro.core.problem.Problem`
immutability, integral timesteps, engine/heuristic layering, and trace
reading through the canonical readers of :mod:`repro.obs.events`.

Determinism across modules is tested, not linted:
``tests/test_determinism_env.py`` runs every experiment driver,
heuristic and LOCD algorithm in two processes with different hash
seeds, working directories, clocks and directory-listing orders, and
requires byte-identical outputs.  Type annotations (mypy), bare
``print()`` (ruff ``T20``) and the vector-path RNG stream
(``tests/heuristics/test_vector_rng_stream.py``) are enforced by those
tools and tests, not here.  Nor is the trace contract:
:func:`repro.obs.events.make_event` refuses any event that breaks
:data:`repro.obs.events.EVENT_SCHEMAS`, and serial-vs-parallel sweep
identity is asserted by ``tests/experiments/test_sweep.py``.

Run it as ``python -m repro.checks [paths...]`` (defaults to ``src`` and
``examples``) or via the ``ocdlint`` console script; the tier-1 test
suite runs the same gate over the tree.  ``docs/CHECKS.md`` documents
every rule, the suppression syntax and the two output formats (text and
JSON).

Suppressions: append ``# ocd: ignore[OCD001] -- <justification>`` to the
offending line, or ``# ocd: ignore-file[OCD001]`` on its own line for a
whole file.
"""

from __future__ import annotations

from repro.checks.framework import (
    Diagnostic,
    LintContext,
    Rule,
    all_rules,
    expand_paths,
    package_of,
    register_rule,
    run_file,
    run_paths,
    run_source,
)

# Importing the rule module populates the registry as a side effect.
from repro.checks import rules as _rules  # noqa: F401

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
]
