#!/usr/bin/env python3
"""Trace a swarm, then inspect it: events, timelines, the rendered report.

The observability layer (``repro.obs``, see ``docs/OBSERVABILITY.md``)
records what the end-of-run aggregates hide: per-timestep token
movement, stalls, rarest-token starvation, arc utilization, and where
the wall-clock time went.  This script traces every standard heuristic
on one swarm into a schema-versioned JSONL file, analyses the raw
events programmatically, and renders the same file as the
``ocd-repro report`` timeline.
"""

import os
import random
import tempfile

from repro import run_heuristic
from repro.heuristics import standard_heuristics
from repro.obs import (
    JsonlTracer,
    MetricsRegistry,
    read_events,
    render_trace_file,
    split_runs,
)
from repro.workloads import single_file
from repro.topology import random_graph


def main() -> None:
    # One seed, a 24-vertex swarm downloading a 12-token file.
    problem = single_file(random_graph(24, random.Random(7)), file_tokens=12)
    metrics = MetricsRegistry()

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "swarm.trace.jsonl")
        with JsonlTracer(path=path) as tracer:
            tracer.emit("trace_header", {"scenario": "trace_inspect", "seed": 7})
            for heuristic in standard_heuristics():
                run_heuristic(
                    problem, heuristic, seed=7, tracer=tracer, metrics=metrics
                )

        # --- the raw events: one JSON object per line, schema-versioned
        events = read_events(path)
        kinds = sorted({e["event"] for e in events})
        print(f"trace: {len(events)} schema-versioned events of kinds {kinds}")

        # Programmatic analysis straight off the event stream: how close
        # did each heuristic come to starving on its rarest token?
        print(f"\n{'heuristic':<12} {'makespan':>8} {'rarest-token holders':>21}")
        _header, runs = split_runs(events)
        for run in runs:
            rarest = min(
                count
                for step in run.steps
                for count, _freq in step["holder_hist"]
            )
            makespan = run.end["makespan"]
            print(f"{run.heuristic:<12} {makespan:>8} {rarest:>21}")

        # --- the same file as the `ocd-repro report` timeline
        print("\n" + render_trace_file(path), end="")

    # Metrics are kept apart from traces (they hold wall-clock time and
    # would break byte-identical determinism): phase breakdown + counters.
    print("\nphase profile across all five runs:")
    print(metrics.render())


if __name__ == "__main__":
    main()
