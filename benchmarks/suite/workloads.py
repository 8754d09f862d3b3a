"""The suite's four workloads.

Each workload builds its inputs from the seed in ``__init__`` (the
set-up, outside the timed region) and then serves operations, which one
closed-loop client issues back to back:

* ``run(k)`` — operation ``k`` exactly as a user runs it;
* ``run_traced(k, spans)`` — the same work, replayed layer by layer
  through the same public calls with a span around each;
* ``check(k, out)`` — the invariants operation ``k`` must satisfy
  (run after the timer stops);
* ``digest(out)`` — a hash of the operation's outputs, compared with the
  committed default-seed digests;
* ``summary(out)`` — a small form of the outputs, on which the traced
  replay must agree with the operation.

The sweep workloads replay a trial in ``run_trial``'s order through a
point function registered here, so the replay runs under the same
executor (pool, tracer, trace files) as the real points.  The executor
forks its workers, which inherit that registration.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import random
import shutil
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from spans import Spans

from repro.core.bounds import remaining_bandwidth, remaining_timesteps
from repro.core.problem import Problem
from repro.core.pruning import prune_schedule
from repro.experiments.runner import (
    TrialRecord,
    records_to_dicts,
    trial_stats,
)
from repro.experiments.sweep import Executor, ExecutorConfig, PointSpec, point_function
from repro.heuristics import HEURISTIC_FACTORIES
from repro.locd import LocalEngine, LocalRarest, run_local
from repro.obs import MetricsRegistry, current_tracer
from repro.obs.analyze import (
    attribute_events,
    attribute_trace,
    blocking_table,
    build_forest,
    critical_path,
    split_runs,
    transfer_slack,
    validate_events,
    validate_trace,
)
from repro.obs.events import read_events
from repro.sim.engine import Engine, RunResult, resolve_state_factory
from repro.topology import Topology, random_graph, sparse_random_graph
from repro.topology.weights import unit_capacity
from repro.workloads import file_subdivision, single_file

Out = Dict[str, Any]

#: Input sizes.  ``full`` keeps the paper's vertex counts where one
#: operation still fits a few seconds on a 2-core machine; ``smoke`` is
#: the sub-second size the smoke test runs.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "fig2-n1000": {"n": 1000, "file_tokens": 8},
        "fig5-traced": {"n": 200, "total_tokens": 32, "file_counts": [1, 8, 32]},
        "swarm-batch": {
            "rr_n": 10000,
            "rr_tokens": 50,
            "local_n": 2000,
            "local_tokens": 256,
        },
        "locd-gossip": {"n": 200, "tokens": 3, "instances": 8},
    },
    "smoke": {
        "fig2-n1000": {"n": 60, "file_tokens": 8},
        "fig5-traced": {"n": 30, "total_tokens": 16, "file_counts": [1, 4, 16]},
        "swarm-batch": {
            "rr_n": 400,
            "rr_tokens": 20,
            "local_n": 200,
            "local_tokens": 64,
        },
        "locd-gossip": {"n": 20, "tokens": 3, "instances": 2},
    },
}

#: Executor workers for the fig5 sweep: two, but never more than cores.
FIG5_WORKERS = min(2, os.cpu_count() or 1)


def label_rng(*parts: Any) -> random.Random:
    """An RNG keyed by a label: stable across processes and versions."""
    digest = hashlib.sha256("/".join(map(str, parts)).encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def median_degree_source(topology: Topology) -> int:
    """The lowest-numbered vertex of median out-degree.

    A single-file broadcast is paced by its source's fan-out, which for
    vertex 0 of a random graph varies by 2x between seeds.  Placing the
    file at a median-degree vertex keeps the work per seed comparable.
    """
    degree = [0] * topology.num_vertices
    for arc in topology.arcs:
        degree[arc.src] += 1
    median = sorted(degree)[len(degree) // 2]
    return degree.index(median)


def center_source(topology: Topology) -> int:
    """The lowest-numbered vertex of minimum eccentricity.

    A broadcast needs at least the source's eccentricity in steps; from
    a center, with a file no larger than the smallest arc capacity,
    that is the whole makespan, the same on every seed.
    """
    adjacency: List[List[int]] = [[] for _ in range(topology.num_vertices)]
    for arc in topology.arcs:
        adjacency[arc.src].append(arc.dst)

    def eccentricity(source: int) -> int:
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for u in adjacency[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        return max(dist.values())

    ecc = [eccentricity(v) for v in range(topology.num_vertices)]
    return ecc.index(min(ecc))


def sha256_json(value: Any) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_digest(result: RunResult) -> str:
    """Makespan, bandwidth and the per-step send masks of one run.

    Sends are keyed by arc and sorted, so the digest does not depend on
    the order a kernel proposes them in.
    """
    n = result.problem.num_vertices
    h = hashlib.sha256(b"%d:%d:" % (result.makespan, result.bandwidth))
    for step in result.schedule.steps:
        stream = getattr(step, "iter_sends_masks", None)
        if stream is not None:
            sends = stream()
        else:
            sends = ((arc, tokens.mask) for arc, tokens in step.sends.items())
        masks = {src * n + dst: mask for (src, dst), mask in sends}
        arcs = sorted(masks)
        h.update(repr(arcs).encode())
        h.update(repr([masks[a] for a in arcs]).encode())
    return h.hexdigest()


def record_failures(records: Sequence[Dict[str, Any]]) -> List[str]:
    """The sweep-record invariants: success and both §5 bounds hold."""
    failures = []
    for r in records:
        where = f"{r['heuristic']} trial {r['trial']}"
        if not r["success"]:
            failures.append(f"{where}: run did not succeed")
        if r["makespan"] < r["bound_timesteps"]:
            failures.append(
                f"{where}: makespan {r['makespan']} below the timestep "
                f"bound {r['bound_timesteps']}"
            )
        if not r["bound_bandwidth"] <= r["pruned_bandwidth"] <= r["bandwidth"]:
            failures.append(
                f"{where}: bandwidth bound {r['bound_bandwidth']} <= pruned "
                f"{r['pruned_bandwidth']} <= bandwidth {r['bandwidth']} fails"
            )
    return failures


# ----------------------------------------------------------------------
# Layer-by-layer engine replay
# ----------------------------------------------------------------------


def traced_engine_run(
    spans: Spans,
    make_engine: Callable[..., Any],
    kernel: Optional[str],
    phase_layers: Dict[str, str],
    deficit: int,
) -> RunResult:
    """Run one engine inside a span, its phases split by ``metrics=``.

    ``make_engine(metrics=..., kernel=...)`` builds the engine.  The
    state factory is wrapped to time state construction, which the
    engine does outside its phase timers; it counts as kernel time.  A
    run made while a tracer is active is recorded as ``obs.emit``: what
    is left of it after the phases is trace emission.
    """
    registry = MetricsRegistry()
    factory = resolve_state_factory(kernel)
    state_init = [0.0]

    def timed_factory(problem: Problem) -> Any:
        started = time.monotonic()
        state = factory(problem)
        state_init[0] += time.monotonic() - started
        return state

    name = "obs.emit" if current_tracer().enabled else "sim.engine"
    with spans.span(name) as span:
        result = make_engine(metrics=registry, kernel=timed_factory).run()
    snap = registry.snapshot()
    for phase, layer in phase_layers.items():
        seconds = snap["phases"].get(phase, {}).get("seconds", 0.0)
        span["phases"][layer] = span["phases"].get(layer, 0.0) + seconds
    span["phases"]["sim.apply"] = span["phases"].get("sim.apply", 0.0) + state_init[0]
    counters = snap["counters"]
    span["counts"].update(
        {
            "sim.steps": counters.get("steps", 0),
            "sim.moves": result.bandwidth,
            "sim.deficit": deficit,
            "locd.facts_learned": counters.get("facts_learned", 0),
        }
    )
    if phase_layers["heuristic_select"] == "heuristics.select":
        calls = snap["phases"].get("heuristic_select", {}).get("calls", 0)
        span["counts"]["heuristics.select_calls"] = calls
    return result


ENGINE_PHASES = {"heuristic_select": "heuristics.select", "kernel_apply": "sim.apply"}
LOCD_PHASES = {
    "heuristic_select": "locd.decide",
    "kernel_apply": "sim.apply",
    "knowledge_flood": "locd.flood",
}


def replay_trial(
    spec: PointSpec, build: Callable[[PointSpec, random.Random, Spans], Problem]
) -> Out:
    """``run_trial`` layer by layer, with the same seeds, under spans."""
    spans = Spans()
    records: List[TrialRecord] = []
    base_seed, trial = spec.seed, spec.param("trial")
    with spans.span("experiments.point"):
        problem = build(spec, random.Random(base_seed + trial), spans)
        with spans.span("core.bounds") as span:
            bound_bw = remaining_bandwidth(problem)
            span["counts"]["core.bounds.calls"] = 1
        with spans.span("core.bounds") as span:
            bound_ts = remaining_timesteps(problem)
            span["counts"]["core.bounds.calls"] = 1
        for h_index, name in enumerate(HEURISTIC_FACTORIES):
            rng = random.Random(base_seed * 31 + trial * 7 + h_index * 101)

            def make_engine(
                name: str = name, rng: random.Random = rng, **hooks: Any
            ) -> Engine:
                return Engine(problem, HEURISTIC_FACTORIES[name](), rng=rng, **hooks)

            result = traced_engine_run(spans, make_engine, None, ENGINE_PHASES, bound_bw)
            with spans.span("core.pruning") as span:
                pruned, _stats = prune_schedule(problem, result.schedule)
                span["counts"]["core.pruning.moves"] = result.bandwidth
                span["counts"]["core.pruning.kept"] = pruned.bandwidth
            records.append(
                TrialRecord(
                    heuristic=name,
                    trial=trial,
                    makespan=result.makespan,
                    bandwidth=result.bandwidth,
                    pruned_bandwidth=pruned.bandwidth,
                    success=result.success,
                    bound_bandwidth=bound_bw,
                    bound_timesteps=bound_ts,
                )
            )
    return {
        "records": records_to_dicts(records),
        "stats": trial_stats(records),
        "spans": spans.records,
    }


def _fig2_instance(spec: PointSpec, rng: random.Random, spans: Spans) -> Problem:
    with spans.span("topology.gen"):
        topo = random_graph(spec.param("n"), rng)
    with spans.span("workloads.build"):
        return single_file(topo, file_tokens=spec.param("file_tokens"))


def _fig5_instance(spec: PointSpec, rng: random.Random, spans: Spans) -> Problem:
    with spans.span("topology.gen"):
        topo = random_graph(spec.param("n"), rng)
    with spans.span("workloads.build"):
        return file_subdivision(
            topo,
            spec.param("num_files"),
            rng=rng,
            total_tokens=spec.param("total_tokens"),
            multi_sender=spec.param("multi_sender"),
        )


@point_function("suite-fig2")
def _replay_fig2(spec: PointSpec) -> Out:
    return replay_trial(spec, _fig2_instance)


@point_function("suite-fig5")
def _replay_fig5(spec: PointSpec) -> Out:
    return replay_trial(spec, _fig5_instance)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    """Set-up in ``__init__``; see the module docstring for the rest."""

    name = ""

    def __init__(self, seed: int, size: str, tmp: str, spans: Spans) -> None:
        self.seed = seed
        self.size = SIZES[size][self.name]
        self.tmp = tmp

    def run(self, k: int) -> Out:
        raise NotImplementedError

    def run_traced(self, k: int, spans: Spans) -> Out:
        raise NotImplementedError

    def check(self, k: int, out: Out) -> List[str]:
        raise NotImplementedError

    def digest(self, out: Out) -> str:
        raise NotImplementedError

    def summary(self, out: Out) -> Any:
        """A small JSON-able form of the outputs; the traced replay of
        operation ``k`` must produce the same one as the operation."""
        raise NotImplementedError


class _Sweep(Workload):
    """A figure sweep through the executor: one trial per operation."""

    kind = ""
    workers = 1

    def points(self, k: int, kind: str) -> List[PointSpec]:
        raise NotImplementedError

    def executor(self, k: int) -> Executor:
        return Executor(ExecutorConfig(workers=self.workers))

    def run(self, k: int) -> Out:
        executor = self.executor(k)
        outputs = executor.run(self.points(k, self.kind))
        return {
            "records": [r for o in outputs for r in o["records"]],
            "moves": sum(o["stats"]["bandwidth"] for o in outputs),
        }

    def run_traced(self, k: int, spans: Spans) -> Out:
        executor = self.executor(k)
        with spans.span("experiments.sweep") as sweep:
            outputs = executor.run(self.points(k, "suite-" + self.kind))
        for output in outputs:
            spans.adopt(output.pop("spans"), sweep)
        point_walls = [o.wall_s for o in executor.outcomes]
        sweep["counts"].update(
            {
                "experiments.sweep.points": len(point_walls),
                "experiments.sweep.worker_idle_s": self.workers
                * (sweep["end"] - sweep["start"])
                - sum(point_walls),
            }
        )
        return {
            "records": [r for o in outputs for r in o["records"]],
            "moves": sum(o["stats"]["bandwidth"] for o in outputs),
            "point_walls": point_walls,
        }

    def check(self, k: int, out: Out) -> List[str]:
        return record_failures(out["records"])

    def digest(self, out: Out) -> str:
        return sha256_json(out["records"])

    def summary(self, out: Out) -> Any:
        return {"records": out["records"], "traces": out.get("trace_bodies")}


class Fig2(_Sweep):
    """One Figure 2 trial at the paper's largest graph size, n=1000,
    through the serial executor: the §5 timestep bound dominates."""

    name = "fig2-n1000"
    kind = "fig2"

    def points(self, k: int, kind: str) -> List[PointSpec]:
        params = {
            "n": self.size["n"],
            "file_tokens": self.size["file_tokens"],
            "config": 0,
            "trial": k,
        }
        return [PointSpec.make("fig2", kind, 0, params=params, seed=self.seed)]


class Fig5(_Sweep):
    """A Figure 5 grid on two executor workers writing run traces, then
    what ``trace-verify`` and ``trace-attribute`` do with every trace."""

    name = "fig5-traced"
    kind = "fig5"
    workers = FIG5_WORKERS

    def points(self, k: int, kind: str) -> List[PointSpec]:
        return [
            PointSpec.make(
                "fig5",
                kind,
                i,
                params={
                    "n": self.size["n"],
                    "num_files": files,
                    "total_tokens": self.size["total_tokens"],
                    "multi_sender": False,
                    "config": i,
                    "trial": k,
                },
                seed=self.seed + i * 1000,
            )
            for i, files in enumerate(self.size["file_counts"])
        ]

    def _trace_dir(self, k: int) -> str:
        return os.path.join(self.tmp, f"traces-{k}")

    def _trace_paths(self, k: int) -> List[str]:
        return sorted(glob.glob(os.path.join(self._trace_dir(k), "*.jsonl")))

    def executor(self, k: int) -> Executor:
        shutil.rmtree(self._trace_dir(k), ignore_errors=True)
        config = ExecutorConfig(workers=self.workers, trace_dir=self._trace_dir(k))
        return Executor(config)

    def run(self, k: int) -> Out:
        out = super().run(k)
        paths = self._trace_paths(k)
        out["verdicts"] = [validate_trace(p) for p in paths]
        out["attributions"] = [attribute_trace(p) for p in paths]
        out["trace_dir"] = self._trace_dir(k)
        return out

    def run_traced(self, k: int, spans: Spans) -> Out:
        out = super().run_traced(k, spans)
        verdicts, attributions = [], []
        for path in self._trace_paths(k):
            # trace-verify: read, then replay-validate.
            with spans.span("obs.analyze.read"):
                events = read_events(path)
            with spans.span("obs.analyze.validate"):
                verdicts.append(validate_events(events, path=path))
            # trace-attribute: read, then validate + attribute.
            with spans.span("obs.analyze.read"):
                events = read_events(path)
            with spans.span("obs.analyze.attribute"):
                attributions.append(attribute_events(events, path=path))
            # The public parts of attribution, timed one by one; the
            # bound curve is what attribution spends beyond them.
            with spans.span("obs.analyze.forest"):
                forests = [build_forest(run) for run in split_runs(events)[1]]
            for forest in forests:
                with spans.span("obs.analyze.blocking"):
                    blocking_table(forest)
                with spans.span("obs.analyze.critical_path"):
                    critical_path(forest)
                with spans.span("obs.analyze.slack"):
                    transfer_slack(forest)
        out["verdicts"] = verdicts
        out["attributions"] = attributions
        out["trace_dir"] = self._trace_dir(k)
        return out

    def check(self, k: int, out: Out) -> List[str]:
        failures = super().check(k, out)
        for verdict in out["verdicts"]:
            if not verdict.ok:
                failures.append(f"{verdict.path}: {verdict.violations[0].render()}")
        runs_expected = len(HEURISTIC_FACTORIES)
        for report in out["attributions"]:
            if report.skipped or len(report.runs) != runs_expected:
                failures.append(f"{report.path}: not every run was attributed")
            for run in report.runs:
                if run.path.length != run.makespan:
                    failures.append(
                        f"{report.path} run {run.run}: critical path "
                        f"{run.path.length} != makespan {run.makespan}"
                    )
                if sum(run.gap_terms.values()) != run.gap:
                    failures.append(
                        f"{report.path} run {run.run}: gap terms sum to "
                        f"{sum(run.gap_terms.values())}, gap is {run.gap}"
                    )
        if len(out["verdicts"]) != len(self.size["file_counts"]):
            failures.append("a sweep point wrote no trace")
        # Trace bodies (everything after the header, which names the
        # point kind) must not depend on which point function ran.
        bodies, events, size = [], 0, 0
        for path in self._trace_paths(k):
            with open(path, "rb") as handle:
                data = handle.read()
            size += len(data)
            events += data.count(b"\n")
            bodies.append(hashlib.sha256(data.split(b"\n", 1)[1]).hexdigest())
        out["trace_bodies"] = bodies
        out["trace_events"] = events
        out["trace_bytes"] = size
        shutil.rmtree(out.pop("trace_dir"), ignore_errors=True)
        return failures


class Swarm(Workload):
    """Round-robin and local-rarest on sparse swarms with the numpy batch
    kernel's vector paths; no bounds, pruning, gossip or tracing."""

    name = "swarm-batch"

    def __init__(self, seed: int, size: str, tmp: str, spans: Spans) -> None:
        super().__init__(seed, size, tmp, spans)
        s = self.size
        with spans.span("topology.gen"):
            rr_topo = sparse_random_graph(s["rr_n"], label_rng(self.name, seed, "rr"))
            local_topo = sparse_random_graph(
                s["local_n"], label_rng(self.name, seed, "local"), capacity=unit_capacity
            )
        with spans.span("workloads.build"):
            self.rr_problem = single_file(
                rr_topo, file_tokens=s["rr_tokens"], source=median_degree_source(rr_topo)
            )
            self.local_problem = single_file(
                local_topo,
                file_tokens=s["local_tokens"],
                source=median_degree_source(local_topo),
            )
        self._deficits: Optional[Dict[str, int]] = None
        self._rr_first: Optional[str] = None

    def deficits(self) -> Dict[str, int]:
        if self._deficits is None:
            self._deficits = {
                "rr": remaining_bandwidth(self.rr_problem),
                "local": remaining_bandwidth(self.local_problem),
            }
        return self._deficits

    def run(self, k: int) -> Out:
        rr = Engine(
            self.rr_problem, HEURISTIC_FACTORIES["round_robin"](), kernel="batch"
        ).run()
        local = Engine(
            self.local_problem,
            HEURISTIC_FACTORIES["local"](),
            rng=random.Random(k + 1),
            kernel="batch",
        ).run()
        return {"runs": {"rr": rr, "local": local}, "moves": rr.bandwidth + local.bandwidth}

    def run_traced(self, k: int, spans: Spans) -> Out:
        deficits = self.deficits()
        runs = {}
        for key, problem, name, rng in (
            ("rr", self.rr_problem, "round_robin", None),
            ("local", self.local_problem, "local", random.Random(k + 1)),
        ):

            def make_engine(
                problem: Problem = problem, name: str = name, rng: Any = rng, **hooks: Any
            ) -> Engine:
                return Engine(problem, HEURISTIC_FACTORIES[name](), rng=rng, **hooks)

            runs[key] = traced_engine_run(
                spans, make_engine, "batch", ENGINE_PHASES, deficits[key]
            )
        return {"runs": runs, "moves": sum(r.bandwidth for r in runs.values())}

    def check(self, k: int, out: Out) -> List[str]:
        failures = []
        deficits = self.deficits()
        for key, result in out["runs"].items():
            if not result.success:
                failures.append(f"{key}: run did not succeed")
            if result.bandwidth < deficits[key]:
                failures.append(
                    f"{key}: bandwidth {result.bandwidth} below the deficit "
                    f"{deficits[key]}"
                )
        # Round-robin draws no randomness: every operation repeats it.
        rr = out["runs"]["rr"]
        summary = f"{rr.makespan}:{rr.bandwidth}"
        if self._rr_first is None:
            self._rr_first = summary
        elif summary != self._rr_first:
            failures.append(f"rr: run {summary} differs from the first {self._rr_first}")
        return failures

    def digest(self, out: Out) -> str:
        return sha256_json({key: run_digest(r) for key, r in out["runs"].items()})

    def summary(self, out: Out) -> Any:
        return {key: [r.makespan, r.bandwidth] for key, r in out["runs"].items()}


class Locd(Workload):
    """LocalRarest under the LOCD runner on paper random graphs: the only
    driver with knowledge gossip, applying whole timesteps at once.

    The file is small and starts at a graph center, so every instance
    takes exactly its radius in steps (see :func:`center_source`).
    """

    name = "locd-gossip"

    def __init__(self, seed: int, size: str, tmp: str, spans: Spans) -> None:
        super().__init__(seed, size, tmp, spans)
        s = self.size
        self.problems = []
        for i in range(s["instances"]):
            with spans.span("topology.gen"):
                topo = random_graph(s["n"], label_rng(self.name, seed, i))
            with spans.span("workloads.build"):
                source = center_source(topo)
                self.problems.append(
                    single_file(topo, file_tokens=s["tokens"], source=source)
                )
        self._bounds: Dict[int, Any] = {}

    def problem(self, k: int) -> Problem:
        return self.problems[k % len(self.problems)]

    def bounds(self, k: int) -> Any:
        i = k % len(self.problems)
        if i not in self._bounds:
            problem = self.problems[i]
            self._bounds[i] = (remaining_bandwidth(problem), remaining_timesteps(problem))
        return self._bounds[i]

    def run(self, k: int) -> Out:
        result = run_local(self.problem(k), LocalRarest(), seed=k)
        return {"result": result, "moves": result.bandwidth}

    def run_traced(self, k: int, spans: Spans) -> Out:
        problem = self.problem(k)

        def make_engine(**hooks: Any) -> LocalEngine:
            return LocalEngine(problem, LocalRarest(), rng=random.Random(k), **hooks)

        deficit = self.bounds(k)[0]
        result = traced_engine_run(spans, make_engine, None, LOCD_PHASES, deficit)
        return {"result": result, "moves": result.bandwidth}

    def check(self, k: int, out: Out) -> List[str]:
        result: RunResult = out["result"]
        bound_bw, bound_ts = self.bounds(k)
        pruned, _stats = prune_schedule(self.problem(k), result.schedule)
        record = {
            "heuristic": result.heuristic_name,
            "trial": k,
            "success": result.success,
            "makespan": result.makespan,
            "bandwidth": result.bandwidth,
            "pruned_bandwidth": pruned.bandwidth,
            "bound_bandwidth": bound_bw,
            "bound_timesteps": bound_ts,
        }
        return record_failures([record])

    def digest(self, out: Out) -> str:
        return run_digest(out["result"])

    def summary(self, out: Out) -> Any:
        result = out["result"]
        return [result.makespan, result.bandwidth, result.knowledge_cost]


WORKLOADS: Dict[str, type] = {w.name: w for w in (Fig2, Fig5, Swarm, Locd)}

