"""Figure 7 — the Dominating Set → FOCD reduction, exercised end-to-end.

The paper's Figure 7 illustrates the NP-hardness reduction.  This driver
*runs* it: for a family of small graphs it compares the brute-force
minimum dominating set size against the reduction (does the FOCD
instance admit a 2-step schedule?) for every k, and extracts a
dominating-set witness from the schedule when one exists.

Graph generation is serial (it is a pure, cheap RNG walk); the per-graph
equivalence check — brute force plus one decision procedure per k — is
the expensive part and is one sweep point per graph.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from repro.experiments.config import QUICK, Scale
from repro.experiments.report import FigureResult
from repro.experiments.sweep import Executor, PointSpec, point_function
from repro.reductions import DominatingSetInstance

__all__ = ["run", "sample_graphs"]


def sample_graphs(
    rng: random.Random, count: int, max_vertices: int = 5
) -> List[DominatingSetInstance]:
    """Random small undirected graphs for the equivalence check."""
    graphs = []
    for _ in range(count):
        n = rng.randint(2, max_vertices)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        graphs.append(DominatingSetInstance.build(n, edges))
    return graphs


@point_function("fig7")
def _point(spec: PointSpec) -> Dict[str, Any]:
    """Full equivalence check (every k) for one graph."""
    from repro.exact import decide_dfocd
    from repro.reductions import (
        brute_force_min_dominating_set,
        extract_dominating_set,
        reduce_to_focd,
    )

    graph = DominatingSetInstance.build(
        spec.param("n"), [tuple(edge) for edge in spec.param("edges")]
    )
    index = spec.param("graph")
    opt = len(brute_force_min_dominating_set(graph))
    rows: List[Dict[str, Any]] = []
    mismatches = 0
    for k in range(graph.num_vertices + 1):
        expected = opt <= k
        schedule = decide_dfocd(reduce_to_focd(graph, k), 2)
        got = schedule is not None
        witness = ""
        if got:
            witness = ",".join(
                map(str, sorted(extract_dominating_set(graph, k, schedule)))
            )
        if expected != got:
            mismatches += 1
        rows.append(
            {
                "graph": index,
                "n": graph.num_vertices,
                "edges": len(graph.edges),
                "k": k,
                "ds_opt": opt,
                "expected": expected,
                "focd_2step": got,
                "witness": witness,
                "match": expected == got,
            }
        )
    return {"rows": rows, "stats": {"mismatches": mismatches, "ds_opt": opt}}


def run(
    scale: Scale = QUICK, executor: Optional[Executor] = None
) -> FigureResult:
    executor = executor or Executor()
    count = 20 if scale.name == "quick" else 60
    result = FigureResult(
        figure="fig7",
        title=f"Dominating Set <-> 2-step FOCD equivalence ({count} random graphs)",
    )
    rng = random.Random(scale.base_seed)
    points = [
        PointSpec.make(
            "fig7",
            "fig7",
            index,
            params={
                "graph": index,
                "n": graph.num_vertices,
                "edges": [list(edge) for edge in graph.edges],
            },
            seed=scale.base_seed,
        )
        for index, graph in enumerate(sample_graphs(rng, count))
    ]
    mismatches = 0
    for output in executor.run(points):
        result.rows.extend(output["rows"])
        mismatches += output["stats"]["mismatches"]
    result.add_note(f"mismatches: {mismatches} (the theorem predicts 0)")
    return result
