#!/usr/bin/env python3
"""Quickstart: define an OCD instance, run heuristics, find the optimum.

The Overlay Network Content Distribution problem: tokens start at some
vertices (``have``), must reach others (``want``), moving across
capacitated arcs one timestep at a time.  This script builds a small
instance by hand, runs all five of the paper's heuristics on it, prunes
their schedules, and compares against the exact optima.
"""

from repro import Problem, evaluate_schedule, prune_schedule, run_heuristic
from repro.core import remaining_bandwidth, remaining_timesteps
from repro.exact import min_bandwidth_exact, solve_focd_bnb
from repro.heuristics import standard_heuristics


def main() -> None:
    # A 6-vertex overlay: vertex 0 seeds a 4-token file, everyone wants it.
    #
    #        0 --- 1 --- 2
    #        |     |     |
    #        3 --- 4 --- 5
    #
    # Horizontal links are fat (capacity 2), vertical links thin (capacity 1).
    edges = [
        (0, 1, 2), (1, 2, 2), (3, 4, 2), (4, 5, 2),  # horizontal
        (0, 3, 1), (1, 4, 1), (2, 5, 1),             # vertical
    ]
    arcs = [(u, v, c) for u, v, c in edges] + [(v, u, c) for u, v, c in edges]
    problem = Problem.build(
        num_vertices=6,
        num_tokens=4,
        arcs=arcs,
        have={0: [0, 1, 2, 3]},
        want={v: [0, 1, 2, 3] for v in range(1, 6)},
        name="quickstart-grid",
    )

    print(f"instance: {problem}")
    print(f"  satisfiable: {problem.is_satisfiable()}")
    print(f"  lower bounds: >= {remaining_timesteps(problem)} timesteps, "
          f">= {remaining_bandwidth(problem)} moves of bandwidth\n")

    print(f"{'heuristic':<12} {'makespan':>8} {'bandwidth':>9} {'pruned_bw':>9}")
    for heuristic in standard_heuristics():
        result = run_heuristic(problem, heuristic, seed=2005)
        assert result.success, f"{heuristic.name} failed to finish"
        pruned, _ = prune_schedule(problem, result.schedule)
        metrics = evaluate_schedule(problem, result.schedule)
        print(f"{heuristic.name:<12} {metrics.makespan:>8} "
              f"{metrics.bandwidth:>9} {pruned.bandwidth:>9}")

    optimum_time, witness = solve_focd_bnb(problem)
    optimum_bw = min_bandwidth_exact(problem)
    print(f"\nexact optimum: {optimum_time} timesteps "
          f"(witness bandwidth {witness.bandwidth}); "
          f"minimum possible bandwidth {optimum_bw}")


if __name__ == "__main__":
    main()
