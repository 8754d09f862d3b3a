"""ocdlint — the repo's model-invariant static-analysis layer.

The simulator enforces the Section 3.1 constraints *dynamically*
(:class:`repro.sim.HeuristicViolation` fires when a heuristic cheats at
runtime), but a violation is only caught if some test happens to execute
the offending path.  This package is the static counterpart, in two
layers:

* Per-file rules (``OCD001``, ``OCD002``, ``OCD004``, ``OCD005``,
  ``OCD016``): AST checks over one module at a time — seeded
  randomness, :class:`~repro.core.problem.Problem` immutability,
  integral timesteps, engine/heuristic layering, and trace reading
  through the canonical readers of :mod:`repro.obs.events`.
* Whole-program rules (``OCD003``, ``OCD010``, ``OCD011``): a symbol
  table and call graph over the whole tree (:mod:`repro.checks.program`)
  powering deterministic set iteration across call boundaries and taint
  analysis (nondeterminism reaching model code through any call chain).

Type annotations (mypy), bare ``print()`` (ruff ``T20``) and the
vector-path RNG stream (``tests/heuristics/test_vector_rng_stream.py``)
are enforced by those tools and tests, not here.  Nor is the trace
contract: :func:`repro.obs.events.make_event` refuses any event that
breaks :data:`repro.obs.events.EVENT_SCHEMAS`, and serial-vs-parallel
sweep identity is asserted by ``tests/experiments/test_sweep.py``.

Run it as ``python -m repro.checks [paths...]`` (defaults to ``src`` and
``examples``) or via the ``ocdlint`` console script; the tier-1 test
suite runs the same gate over the tree.  ``docs/CHECKS.md`` documents
every rule, the suppression syntax and the two output formats (text and
JSON).

Suppressions: append ``# ocd: ignore[OCD003] -- <justification>`` to the
offending line, or ``# ocd: ignore-file[OCD003]`` on its own line for a
whole file.
"""

from __future__ import annotations

# NOTE: the *function* framework.program_rules is not re-exported here —
# the submodule of the same name would shadow it on the package object;
# import it from repro.checks.framework when you need the rule instances.
from repro.checks.framework import (
    Diagnostic,
    LintContext,
    ProgramRule,
    Rule,
    all_rules,
    expand_paths,
    file_rules,
    package_of,
    register_rule,
    run_file,
    run_paths,
    run_source,
)
from repro.checks.program import (
    ModuleSummary,
    ProgramIndex,
    summarize_source,
)

# Importing the rule modules populates the registry as a side effect.
from repro.checks import rules as _rules  # noqa: F401
from repro.checks import program_rules as _program_rules  # noqa: F401

__all__ = [
    "Diagnostic",
    "LintContext",
    "ModuleSummary",
    "ProgramIndex",
    "ProgramRule",
    "Rule",
    "all_rules",
    "expand_paths",
    "file_rules",
    "package_of",
    "register_rule",
    "run_file",
    "run_paths",
    "run_source",
    "summarize_source",
]
