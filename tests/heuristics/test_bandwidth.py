"""Behavioral tests for the Bandwidth heuristic."""

import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import Problem
from repro.core.tokenset import TokenSet
from repro.heuristics import BandwidthHeuristic, LocalRarestHeuristic
from repro.sim import StepContext, run_heuristic
from repro.sim.reference import ReferenceBandwidth
from repro.topology import path_topology, random_graph
from repro.workloads import receiver_density, single_file


def _context(problem, possession=None, seed=0):
    possession = tuple(possession if possession is not None else problem.have)
    counts = [0] * problem.num_tokens
    for tokens in possession:
        for t in tokens:
            counts[t] += 1
    return StepContext(problem, 0, possession, tuple(counts), random.Random(seed))


class TestEventualUseFilter:
    def test_needer_pulls_directly(self):
        p = Problem.build(2, 1, [(0, 1, 1)], {0: [0]}, {1: [0]})
        h = BandwidthHeuristic()
        h.reset(p, random.Random(0))
        proposal = h.propose(_context(p))
        assert proposal[(0, 1)] == TokenSet.of(0)

    def test_non_wanter_not_flooded(self):
        """A vertex that neither wants the token nor relays toward a
        needer receives nothing — the defining restraint."""
        # 0 -> 1 dead end; 0 -> 2 wanter.
        p = Problem.build(
            3, 1, [(0, 1, 1), (0, 2, 1)], {0: [0]}, {2: [0]}
        )
        h = BandwidthHeuristic()
        h.reset(p, random.Random(0))
        proposal = h.propose(_context(p))
        assert (0, 1) not in proposal
        assert proposal[(0, 2)] == TokenSet.of(0)

    def test_relay_pull_for_far_needer(self):
        """On 0 -> 1 -> 2 with only vertex 2 wanting, vertex 1 is the
        closest one-hop-knowledge vertex and pulls as a relay."""
        p = Problem.build(3, 1, [(0, 1, 1), (1, 2, 1)], {0: [0]}, {2: [0]})
        h = BandwidthHeuristic()
        h.reset(p, random.Random(0))
        proposal = h.propose(_context(p))
        assert proposal[(0, 1)] == TokenSet.of(0)

    def test_single_relay_chosen_among_ties(self):
        """Two equally-close one-hop relays: only one pulls (smallest id,
        deterministically), halving the flood."""
        # 0 -> {1, 2} -> 3; only 3 wants.
        p = Problem.build(
            4, 1, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)], {0: [0]}, {3: [0]}
        )
        h = BandwidthHeuristic()
        h.reset(p, random.Random(0))
        proposal = h.propose(_context(p))
        pulls = [arc for arc in proposal if arc[0] == 0]
        assert pulls == [(0, 1)]

    def test_token_fully_distributed_goes_quiet(self):
        p = Problem.build(2, 1, [(0, 1, 1)], {0: [0], 1: [0]}, {1: [0]})
        h = BandwidthHeuristic()
        h.reset(p, random.Random(0))
        assert h.propose(_context(p)) == {}


class TestEndToEnd:
    def test_completes_sparse_demand_cheaply(self):
        """At low receiver density the bandwidth heuristic undercuts the
        flooding Local heuristic by a wide margin (Figure 4)."""
        rng = random.Random(8)
        topo = random_graph(40, rng)
        problem = receiver_density(topo, 0.2, rng, file_tokens=20)
        bw = run_heuristic(problem, BandwidthHeuristic(), seed=0)
        local = run_heuristic(problem, LocalRarestHeuristic(), seed=0)
        assert bw.success and local.success
        assert bw.bandwidth < 0.6 * local.bandwidth

    def test_no_savings_when_everyone_wants_everything(self):
        """The paper: with all receivers, the bandwidth heuristic shows
        no savings over flooding (everything is eventually used)."""
        problem = single_file(path_topology(5, capacity=2), file_tokens=6)
        bw = run_heuristic(problem, BandwidthHeuristic(), seed=0)
        local = run_heuristic(problem, LocalRarestHeuristic(), seed=0)
        assert bw.success and local.success
        assert bw.bandwidth >= local.bandwidth * 0.9

    def test_moves_only_eventually_used_tokens(self):
        """Every pruned-away move is at most a small fraction: pruning a
        bandwidth-heuristic schedule removes little, because it only
        moved tokens toward eventual use."""
        from repro.core.pruning import prune_schedule

        rng = random.Random(9)
        topo = random_graph(30, rng)
        problem = receiver_density(topo, 0.3, rng, file_tokens=15)
        result = run_heuristic(problem, BandwidthHeuristic(), seed=1)
        assert result.success
        pruned, stats = prune_schedule(problem, result.schedule)
        assert stats.total_removed <= 0.25 * result.bandwidth


@st.composite
def _graph_and_one_hop(draw):
    """A random directed or undirected graph (isolated and unreachable
    vertices allowed, arcs in a drawn order) and a vertex set ``U``."""
    n = draw(st.integers(min_value=1, max_value=14))
    pairs = [(u, v) for u in range(n) for v in range(n) if u < v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    arcs = []
    undirected = draw(st.booleans())
    for u, v in chosen:
        if undirected:
            arcs += [(u, v), (v, u)]
        else:
            arcs.append(draw(st.sampled_from([(u, v), (v, u)])))
    arcs = draw(st.permutations(arcs))
    one_hop = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    problem = Problem.build(n, 1, [(u, v, 1) for u, v in arcs], {}, {})
    return problem, sorted(one_hop)


class TestRelayLabel:
    """The out-ball relay equals the id-ordered FIFO BFS label that the
    reference oracle computes, for every vertex outside ``U``."""

    @settings(max_examples=300, deadline=None)
    @given(_graph_and_one_hop())
    def test_matches_reference_bfs_label(self, case):
        problem, one_hop = case
        labels = ReferenceBandwidth._closest_one_hop_labels(
            ReferenceBandwidth(), SimpleNamespace(problem=problem), one_hop
        )
        h = BandwidthHeuristic()
        h.reset(problem, random.Random(0))
        for x in range(problem.num_vertices):
            if x in one_hop:
                continue
            expected = [] if labels[x] == -1 else [labels[x]]
            assert h._relays(one_hop, 1 << x) == expected
        far = [x for x in range(problem.num_vertices) if x not in one_hop]
        assert h._relays(one_hop, sum(1 << x for x in far)) == sorted(
            {labels[x] for x in far} - {-1}
        )
