"""Which module may reference what, checked from the source.

Each row of ``RULES`` names a set of modules under ``src/repro`` and a
pattern that no dotted name those modules reference may match.  A
module references every module it imports, every name it imports from
one, and every attribute chain it reads through an imported name
(``import json as j; j.loads`` references ``json.loads``).

* ``kernel-free``: the replay validator and its run grouping
  re-implement the paper's §2 semantics from the raw JSON, so that a
  kernel bug cannot hide by also corrupting the checker; they import
  nothing from the kernel.
* ``no-clock``: the model packages run in synchronous integer rounds
  (§3.1) and read no clock; timing lives in :mod:`repro.obs.metrics`.
* ``no-engine``: the engine validates what a heuristic proposes, never
  the reverse, so heuristics reach the simulator only through its
  public surface: not ``repro.sim.engine``, not a driver, not a private
  name.
* ``events-only``: trace lines are parsed only by the readers in
  :mod:`repro.obs.events`, which enforce the schema envelope.
* ``core-first``: the core model imports nothing from the packages
  built on it (importing :mod:`repro.sim` from core would run its
  ``__init__``, whose engine imports core: a cycle).
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import FrozenSet, NamedTuple, Tuple

import pytest

REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"

MODEL_PACKAGES = (
    "core",
    "sim",
    "heuristics",
    "locd",
    "exact",
    "extensions",
    "topology",
    "workloads",
    "reductions",
)


class Rule(NamedTuple):
    name: str
    #: Globs relative to ``src/repro`` selecting the modules in scope.
    scope: Tuple[str, ...]
    #: Dotted names no module in scope may reference (``re.fullmatch``).
    forbidden: str
    #: Modules in scope that the rule exempts.
    exempt: Tuple[str, ...] = ()


RULES = (
    Rule(
        "kernel-free",
        ("obs/runs.py", "obs/analyze/runs.py", "obs/analyze/validate.py", "obs/analyze/causal.py"),
        r"repro\.(core|sim|heuristics)(\..*)?",
    ),
    Rule(
        "no-clock",
        tuple(f"{package}/**/*.py" for package in MODEL_PACKAGES),
        r"(time|datetime)(\..*)?",
    ),
    Rule(
        "no-engine",
        ("heuristics/**/*.py",),
        r"repro\.sim\.engine(\..*)?|repro\.sim(\.\w+)*\.(Engine|run_heuristic|_\w*)",
    ),
    Rule(
        "events-only",
        ("obs/**/*.py",),
        r"json\.loads",
        exempt=("obs/events.py",),
    ),
    Rule(
        "core-first",
        ("core/**/*.py",),
        r"repro\.(?!core(\.|$)).*",
    ),
)


def references(source: str) -> FrozenSet[str]:
    """Every dotted name a module's source references."""
    tree = ast.parse(source)
    aliases = {}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.name)
                if alias.asname is None:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
                else:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            names.add(node.module)
            for alias in node.names:
                names.add(f"{node.module}.{alias.name}")
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            names.add(".".join([aliases[node.id], *reversed(chain)]))
    return frozenset(names)


@lru_cache(maxsize=None)
def _module_references(module: str) -> FrozenSet[str]:
    return references((REPRO / module).read_text(encoding="utf-8"))


def _scope(rule: Rule):
    return sorted(
        {
            path.relative_to(REPRO).as_posix()
            for pattern in rule.scope
            for path in REPRO.glob(pattern)
        }
        - set(rule.exempt)
    )


def _violations(rule: Rule, names) -> list:
    return sorted(name for name in names if re.fullmatch(rule.forbidden, name))


@pytest.mark.parametrize(
    "rule, module",
    [(rule, module) for rule in RULES for module in _scope(rule)],
    ids=lambda value: value.name if isinstance(value, Rule) else value,
)
def test_layer(rule, module):
    assert _violations(rule, _module_references(module)) == []


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_every_rule_has_a_scope(rule):
    assert _scope(rule)


#: (rule, source, whether the rule flags it): each rule catches every
#: spelling of its violation and lets its neighbours through.
EXAMPLES = (
    ("kernel-free", "import repro.core.problem", True),
    ("kernel-free", "from repro.sim import Engine", True),
    ("kernel-free", "from repro.heuristics.base import Heuristic", True),
    ("kernel-free", "from repro.obs.events import iter_events", False),
    ("no-clock", "import time", True),
    ("no-clock", "from time import perf_counter", True),
    ("no-clock", "import datetime; datetime.datetime.now()", True),
    ("no-clock", "import time as t; t.time()", True),
    ("no-clock", "from repro.obs import MetricsRegistry", False),
    ("no-clock", "import timeit", False),
    ("no-engine", "import repro.sim.engine", True),
    ("no-engine", "from repro.sim.engine import Engine", True),
    ("no-engine", "from repro.sim import Engine", True),
    ("no-engine", "from repro.sim import run_heuristic", True),
    ("no-engine", "from repro.sim.state import _private", True),
    ("no-engine", "import repro.sim; repro.sim.Engine", True),
    ("no-engine", "from repro.sim import Proposal, StepContext", False),
    ("no-engine", "from repro.sim.state import SimState, VectorProposal", False),
    ("events-only", "import json; json.loads(line)", True),
    ("events-only", "import json as j; j.loads(line)", True),
    ("events-only", "from json import loads", True),
    ("events-only", "from json import loads as parse", True),
    ("events-only", "import json; json.load(f); json.dumps(x)", False),
    ("core-first", "from repro.sim.state import SimState", True),
    ("core-first", "import repro.sim.state", True),
    ("core-first", "from repro.obs import MetricsRegistry", True),
    ("core-first", "from repro.corex import thing", True),
    ("core-first", "from repro.core.bitplanes import np", False),
    ("core-first", "import repro.core.problem", False),
    ("core-first", "import numpy", False),
)


@pytest.mark.parametrize("name, source, flagged", EXAMPLES)
def test_example(name, source, flagged):
    (rule,) = [rule for rule in RULES if rule.name == name]
    assert bool(_violations(rule, references(source))) is flagged
