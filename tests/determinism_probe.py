"""Print a digest of every seeded output the package produces.

``tests/test_determinism_env.py`` runs this script in two processes that
differ in ``PYTHONHASHSEED``, working directory and, with ``--perturb``,
in what the clock and directory listings return.  A schedule must be a
function of (instance, seed) alone, so every digest must agree.

Traces go to ``determinism-probe/`` under the working directory::

    PYTHONPATH=src python tests/determinism_probe.py [--perturb]

It prints one JSON object: ``env`` holds four readings that the
perturbations must change (string hash, working directory, wall clock,
a directory listing) and ``digests`` maps each driver or run to the
sha256 of its rows, notes, schedule and trace bytes.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict

HERE = Path(__file__).resolve().parent

#: Seconds added to every clock reading under ``--perturb``.
CLOCK_OFFSET = 1.0e6

#: Where traces are written, relative to the working directory.
OUT = Path("determinism-probe")


class _ReversedScandir:
    """An ``os.scandir`` iterator yielding its entries in reverse."""

    def __init__(self, entries: Any) -> None:
        with entries:
            self._entries = iter(list(entries)[::-1])

    def __iter__(self) -> "_ReversedScandir":
        return self

    def __next__(self) -> os.DirEntry:
        return next(self._entries)

    def __enter__(self) -> "_ReversedScandir":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def close(self) -> None:
        pass


def _offset(clock: Callable[[], float]) -> Callable[[], float]:
    return lambda: clock() + CLOCK_OFFSET


def install_perturbations() -> None:
    """Shift the clocks and reverse directory listings, process-wide.

    Must run before ``repro`` is imported, so that a module binding
    ``from time import time`` at import picks up the shifted clock too.
    """
    for name in ("time", "monotonic", "perf_counter"):
        setattr(time, name, _offset(getattr(time, name)))
    listdir, scandir, globber = os.listdir, os.scandir, glob.glob
    os.listdir = lambda *args: listdir(*args)[::-1]
    os.scandir = lambda *args: _ReversedScandir(scandir(*args))
    glob.glob = lambda *args, **kwargs: globber(*args, **kwargs)[::-1]


def _sha(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _file_digests(root: Path) -> Dict[str, str]:
    if not root.exists():
        return {}
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _traced(key: str, run: Callable[[Any], Any]) -> str:
    """Digest of one traced run: its schedule and its trace bytes."""
    from repro.obs import JsonlTracer

    path = OUT / "runs" / f"{key.replace('/', '-')}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with JsonlTracer(path=str(path)) as tracer:
        result = run(tracer)
    return _sha(
        {
            "schedule": result.schedule.to_dict(),
            "success": result.success,
            "trace": hashlib.sha256(path.read_bytes()).hexdigest(),
        }
    )


def digests() -> Dict[str, str]:
    """One digest per experiment driver, heuristic run and LOCD run."""
    import random

    from repro.experiments import ALL_EXPERIMENTS, Executor, ExecutorConfig
    from repro.heuristics import HEURISTIC_FACTORIES, SequentialHeuristic
    from repro.locd import (
        FloodThenOptimal,
        LocalRandom,
        LocalRarest,
        LocalRoundRobin,
        StaleBandwidth,
        StaleGreedy,
        run_local,
    )
    from repro.sim import run_heuristic
    from repro.topology import random_graph
    from repro.topology.generators import random_instance
    from repro.workloads import single_file

    sys.path.insert(0, str(HERE.parent))
    from tests.conftest import scalar_only
    from tests.experiments.test_sweep import TINY

    out: Dict[str, str] = {}
    for name in sorted(ALL_EXPERIMENTS):
        trace_dir = OUT / "traces" / name
        config = ExecutorConfig(trace_dir=str(trace_dir))
        result = ALL_EXPERIMENTS[name](TINY, executor=Executor(config))
        out[f"driver/{name}"] = _sha(
            {
                "rows": result.rows,
                "notes": result.notes,
                "traces": _file_digests(trace_dir),
            }
        )

    problem = random_instance(random.Random(7), max_vertices=16, max_tokens=8)
    factories = dict(HEURISTIC_FACTORIES, sequential=SequentialHeuristic)
    for name in sorted(factories):
        for path, wrap in (("scalar", scalar_only), ("vector", lambda h: h)):
            key = f"heuristic/{name}/{path}"
            out[key] = _traced(
                key,
                lambda tracer: run_heuristic(
                    problem, wrap(factories[name]()), seed=3, tracer=tracer
                ),
            )

    broadcast = single_file(random_graph(14, random.Random(5)), file_tokens=6)
    algorithms = (
        FloodThenOptimal,
        LocalRandom,
        LocalRarest,
        LocalRoundRobin,
        StaleBandwidth,
        StaleGreedy,
    )
    for algo in algorithms:
        key = f"locd/{algo.__name__}"
        out[key] = _traced(
            key, lambda tracer: run_local(broadcast, algo(), seed=3, tracer=tracer)
        )
    return out


def environment() -> Dict[str, Any]:
    """Readings that differ between the two processes if the setup took."""
    return {
        "hash": hash("ocd"),
        "cwd": os.getcwd(),
        "time": time.time(),
        "listdir": os.listdir(HERE),
    }


def main(argv: list) -> int:
    if "--perturb" in argv:
        install_perturbations()
    print(json.dumps({"env": environment(), "digests": digests()}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
