#!/usr/bin/env python3
"""Figure 1's time/bandwidth tension, explained by trace attribution.

The paper's Figure 1 gadget is the smallest witness that minimum-time
and minimum-bandwidth content distribution are different objectives:
the 2-timestep optimum spends 6 units of bandwidth, while the 4-unit
bandwidth optimum needs 3 timesteps.  This script computes both exact
schedules, re-traces them through the trace schema
(:func:`repro.obs.analyze.retrace_run`), and lets the causal
attribution layer explain the tension from the traces alone:

* both critical paths tile their makespans exactly (2 hops vs 3);
* the fast schedule meets the Section 5 lower bound (gap 0) by paying
  both relay shortcuts — every transfer it makes has zero slack;
* the cheap schedule's extra timestep surfaces as a +1 gap charged to
  the steps its receivers spent ``waiting-for-token`` while the single
  copy crawled down the shared tree.

Nothing below re-runs a simulation to answer "why": everything after
the two exact solves is a pure function of the trace file.
"""

import os
import tempfile

from repro.exact import min_bandwidth_exact, min_makespan_ilp, solve_eocd_ilp
from repro.obs import JsonlTracer
from repro.obs.analyze import attribute_trace, dot_forest, retrace_run
from repro.obs.events import read_events
from repro.topology import figure1_gadget


def exact_schedules(problem):
    """The two Figure 1 optima, solved exactly (as in fig1's pipeline)."""
    tau_star = min_makespan_ilp(problem)
    assert tau_star is not None, "the gadget is satisfiable by construction"
    fastest = solve_eocd_ilp(problem, tau_star)
    cheapest_bw = min_bandwidth_exact(problem)
    assert cheapest_bw is not None
    horizon = tau_star
    while True:
        cheapest = solve_eocd_ilp(problem, horizon)
        if cheapest.feasible and cheapest.bandwidth == cheapest_bw:
            return fastest, cheapest
        horizon += 1


def main() -> None:
    problem = figure1_gadget()
    fastest, cheapest = exact_schedules(problem)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fig1.trace.jsonl")
        with JsonlTracer(path=path) as tracer:
            tracer.emit("trace_header", {"scenario": "trace_attribute", "seed": 0})
            retrace_run(
                tracer, problem, fastest.schedule,
                "exact-min-time", engine="reference",
            )
            retrace_run(
                tracer, problem, cheapest.schedule,
                "exact-min-bandwidth", engine="reference",
            )

        # Validate-then-attribute both runs from the file alone (what
        # `ocd-repro trace-attribute` does).
        report = attribute_trace(path)
        print(report.render())

        fast, cheap = report.runs
        assert (fast.makespan, len(fast.path.hops)) == (2, 2)
        assert (cheap.makespan, len(cheap.path.hops)) == (3, 3)
        assert fast.gap == 0, "the time optimum meets the lower bound"
        assert cheap.gap == 1, "the bandwidth optimum pays one extra step"
        print(
            f"\n=> same instance, same lower bound (floor "
            f"{fast.bound_floor}): the {fast.makespan}-step schedule "
            f"closes the gap with bandwidth, the {cheap.makespan}-step "
            f"schedule trades it back — its +1 gap is attributed to "
            f"{cheap.dominant_cause!r} ({cheap.gap_terms})"
        )

        # The same causal structure renders for external viewers; the
        # critical-path edges arrive pre-highlighted.
        dot = dot_forest(read_events(path), path=path)
        out = os.path.join(tmp, "fig1.forest.dot")
        with open(out, "w") as handle:
            handle.write(dot)
        print(
            f"\nwrote {os.path.basename(out)} "
            f"({dot.count(chr(10)) + 1} lines; render with `dot -Tsvg`)"
        )


if __name__ == "__main__":
    main()
