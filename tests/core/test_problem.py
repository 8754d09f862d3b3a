"""Unit tests for Problem/Arc: validation, adjacency, graph queries,
satisfiability, theorem bounds, serialization."""

import re

import networkx as nx
import pytest
from hypothesis import given

from repro.core.problem import Arc, Problem, ProblemValidationError
from repro.core.tokenset import TokenSet

from tests.conftest import problems


class TestArc:
    def test_valid(self):
        arc = Arc(0, 1, 3)
        assert (arc.src, arc.dst, arc.capacity) == (0, 1, 3)

    def test_self_arc_rejected(self):
        with pytest.raises(ProblemValidationError):
            Arc(2, 2, 1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ProblemValidationError):
            Arc(0, 1, 0)

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ProblemValidationError):
            Arc(-1, 0, 1)


class TestValidation:
    def test_no_vertices(self):
        with pytest.raises(ProblemValidationError):
            Problem(0, 1, [], [], [])

    def test_have_length_mismatch(self):
        with pytest.raises(ProblemValidationError):
            Problem(2, 1, [], [TokenSet()], [TokenSet(), TokenSet()])

    def test_want_length_mismatch(self):
        with pytest.raises(ProblemValidationError):
            Problem(2, 1, [], [TokenSet(), TokenSet()], [TokenSet()])

    def test_token_out_of_universe(self):
        with pytest.raises(ProblemValidationError):
            Problem.build(2, 1, [(0, 1, 1)], {0: [1]}, {})
        with pytest.raises(ProblemValidationError):
            Problem.build(2, 1, [(0, 1, 1)], {}, {1: [5]})

    def test_arc_vertex_out_of_range(self):
        with pytest.raises(ProblemValidationError):
            Problem.build(2, 1, [(0, 5, 1)], {}, {})

    def test_duplicate_arc_rejected(self):
        with pytest.raises(ProblemValidationError):
            Problem.build(2, 1, [(0, 1, 1), (0, 1, 2)], {}, {})

    def test_antiparallel_arcs_allowed(self):
        p = Problem.build(2, 1, [(0, 1, 1), (1, 0, 2)], {}, {})
        assert p.capacity(0, 1) == 1
        assert p.capacity(1, 0) == 2


class TestAdjacency:
    def test_out_in_arcs(self, path_problem):
        assert [a.dst for a in path_problem.out_arcs(0)] == [1]
        assert [a.src for a in path_problem.in_arcs(2)] == [1]
        assert path_problem.out_arcs(2) == ()
        assert path_problem.in_arcs(0) == ()

    def test_neighbors_bidirectional(self, path_problem):
        # Gossip neighbors span both arc directions.
        assert path_problem.neighbors(1) == (0, 2)
        assert path_problem.neighbors(0) == (1,)

    def test_capacity_lookup(self, path_problem):
        assert path_problem.capacity(0, 1) == 1
        with pytest.raises(KeyError):
            path_problem.capacity(1, 0)

    def test_has_arc(self, path_problem):
        assert path_problem.has_arc(0, 1)
        assert not path_problem.has_arc(2, 1)

    def test_in_out_capacity(self):
        p = Problem.build(3, 1, [(0, 2, 3), (1, 2, 4)], {}, {})
        assert p.in_capacity(2) == 7
        assert p.out_capacity(0) == 3
        assert p.in_capacity(0) == 0

    def test_supplier_table_follows_in_arcs(self):
        p = Problem.build(3, 1, [(1, 2, 4), (0, 2, 3), (2, 0, 1)], {}, {})
        table = p.suppliers()
        for v in range(3):
            arcs = p.in_arcs(v)
            assert table.srcs[v] == tuple(a.src for a in arcs)
            assert table.keys[v] == tuple((a.src, a.dst) for a in arcs)
            assert table.caps[v] == tuple(a.capacity for a in arcs)
        assert table.srcs[2] == (1, 0)
        assert p.suppliers() is table

    def test_arc_arrays_follow_arcs_and_are_shared(self):
        p = Problem.build(3, 1, [(1, 2, 4), (0, 2, 3), (2, 0, 1)], {}, {})
        arrays = p.arc_arrays()
        assert arrays.src.tolist() == [1, 0, 2]
        assert arrays.dst.tolist() == [2, 2, 0]
        assert arrays.cap.tolist() == [4, 3, 1]
        assert arrays.keys == ((1, 2), (0, 2), (2, 0))
        assert p.arc_arrays() is arrays
        for column in (arrays.src, arrays.dst, arrays.cap):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 7


class TestDistances:
    def test_distances_from(self, diamond_problem):
        assert diamond_problem.distances_from(0) == [0, 1, 1, 2]

    def test_unreachable_is_minus_one(self, path_problem):
        assert path_problem.distances_from(2) == [-1, -1, 0]

    def test_distance_pair(self, diamond_problem):
        assert diamond_problem.distance(0, 3) == 2
        assert diamond_problem.distance(3, 0) == -1

    def test_distances_from_any_takes_nearest_source(self, diamond_problem):
        assert diamond_problem.distances_from_any([1, 2]) == [-1, 0, 0, 1]
        assert diamond_problem.distances_from_any([]) == [-1, -1, -1, -1]

    def test_diameter(self, diamond_problem):
        assert diamond_problem.diameter() == 2

    def test_diameter_single_vertex(self):
        assert Problem.build(1, 0, [], {}, {}).diameter() == 0

    def test_distance_cache_consistency(self, diamond_problem):
        first = diamond_problem.distances_from(0)
        second = diamond_problem.distances_from(0)
        assert first == second


class TestQueries:
    def test_holders_wanters(self, path_problem):
        assert path_problem.holders(0) == [0]
        assert path_problem.wanters(1) == [2]

    def test_missing(self, path_problem):
        assert sorted(path_problem.missing(2)) == [0, 1]
        assert not path_problem.missing(0)

    def test_total_demand(self, path_problem):
        assert path_problem.total_demand() == 2

    def test_trivially_satisfied(self, trivial_problem, path_problem):
        assert trivial_problem.is_trivially_satisfied()
        assert not path_problem.is_trivially_satisfied()

    def test_all_tokens(self, path_problem):
        assert sorted(path_problem.all_tokens()) == [0, 1]


class TestSatisfiability:
    def test_satisfiable_path(self, path_problem):
        assert path_problem.is_satisfiable()

    def test_unreachable_wanter(self):
        # 1 -> 0 only: token at 0 can never reach 1.
        p = Problem.build(2, 1, [(1, 0, 1)], {0: [0]}, {1: [0]})
        assert not p.is_satisfiable()

    def test_token_without_holder(self):
        p = Problem.build(2, 1, [(0, 1, 1)], {}, {1: [0]})
        assert not p.is_satisfiable()

    def test_wanter_already_has(self):
        p = Problem.build(2, 1, [(1, 0, 1)], {1: [0]}, {1: [0]})
        assert p.is_satisfiable()

    def test_no_demand_always_satisfiable(self):
        p = Problem.build(3, 2, [], {0: [0, 1]}, {})
        assert p.is_satisfiable()


class TestTheoremBounds:
    def test_move_bound(self, path_problem):
        assert path_problem.move_bound() == 2 * (3 - 1)

    def test_encoding_bits_bound_positive(self, path_problem):
        assert path_problem.encoding_bits_bound() > 0

    def test_encoding_bits_bound_degenerate(self):
        assert Problem.build(1, 0, [], {}, {}).encoding_bits_bound() == 0

    def test_encoding_bound_scales_near_nm(self):
        small = Problem.build(4, 2, [(0, 1, 1)], {0: [0]}, {}).encoding_bits_bound()
        big = Problem.build(8, 4, [(0, 1, 1)], {0: [0]}, {}).encoding_bits_bound()
        # nm log terms: 8*4/(4*2) = 4x more moves, slightly wider fields.
        assert big > 4 * small


class TestSerialization:
    def test_dict_roundtrip(self, path_problem):
        assert Problem.from_dict(path_problem.to_dict()) == path_problem

    def test_dict_roundtrip_preserves_name(self):
        p = Problem.build(2, 1, [(0, 1, 2)], {0: [0]}, {1: [0]}, name="x")
        assert Problem.from_dict(p.to_dict()).name == "x"

    @given(problems())
    def test_dict_roundtrip_random(self, problem):
        assert Problem.from_dict(problem.to_dict()) == problem

    #: (a change to a valid payload, the field the refusal names)
    REFUSED = [
        ({"num_vertices": 2.9}, "num_vertices"),
        ({"num_vertices": 2.0}, "num_vertices"),
        ({"num_tokens": True}, "num_tokens"),
        ({"arcs": [[0, 1, 1.5]]}, "arcs[0] capacity"),
        ({"arcs": [[0, True, 1]]}, "arcs[0] dst"),
        ({"arcs": [[0, 1]]}, "arcs[0]"),
        ({"arcs": [[0, 1, True]]}, "arcs[0] capacity must be an integer, got True"),
        ({"arcs": [[0, 1, 1], [1.0, 0, 1]]}, "arcs[1] src"),
        ({"have": {"0": [0.0]}}, "have[0] token"),
        ({"have": {"0": [True]}}, "have[0] token must be an integer, got True"),
        ({"want": {"1": [False]}}, "want[1] token"),
        ({"want": {"1": [0, 0.5]}}, "want[1] token must be an integer, got 0.5"),
        ({"want": {"1": 0}}, "want[1]"),
        ({"have": {"x": [0]}}, "have vertex id"),
        ({"have": {"2": [0]}}, "have names vertex 2"),
        ({"name": 3}, "name"),
        # Several bad fields: the refusal names the first in payload order.
        (
            {"arcs": [[0, 1, 1], [1, 0, 2.0], [0, True]]},
            "arcs[1] capacity must be an integer, got 2.0",
        ),
        ({"arcs": [(0, 1, 1), [1, 0]]}, "arcs[1] must be [src, dst, capacity], got [1, 0]"),
        (
            {"have": {"0": [0, 1.5]}, "want": {"1": [True]}},
            "have[0] token must be an integer, got 1.5",
        ),
        ({"want": {"0": [0], "1": [False]}}, "want[1] token must be an integer, got False"),
    ]

    @pytest.mark.parametrize("change, field", REFUSED, ids=[f for _, f in REFUSED])
    def test_from_dict_refuses(self, change, field):
        payload = {**Problem.build(2, 1, [(0, 1, 1)], {0: [0]}, {1: [0]}).to_dict(), **change}
        with pytest.raises(ProblemValidationError, match=re.escape(field)):
            Problem.from_dict(payload)

    def test_from_dict_reads_tuples_and_int_subclasses(self):
        class Id(int):
            pass

        payload = {
            "num_vertices": 2,
            "num_tokens": 1,
            "arcs": [(0, Id(1), 1)],
            "have": {"0": (Id(0),)},
        }
        assert Problem.from_dict(payload) == Problem.build(2, 1, [(0, 1, 1)], {0: [0]}, {})

    @pytest.mark.parametrize("missing", ["num_vertices", "num_tokens", "arcs"])
    def test_from_dict_names_a_missing_field(self, missing):
        payload = Problem.build(2, 1, [(0, 1, 1)], {0: [0]}, {1: [0]}).to_dict()
        del payload[missing]
        with pytest.raises(ProblemValidationError, match=missing):
            Problem.from_dict(payload)

    def test_from_dict_refuses_a_non_object(self):
        with pytest.raises(ProblemValidationError, match="not an object"):
            Problem.from_dict([1, 2])

    def test_to_networkx(self, path_problem):
        g = path_problem.to_networkx()
        assert g.number_of_nodes() == 3
        assert g[0][1]["capacity"] == 1
        assert g.nodes[0]["have"] == [0, 1]
        assert g.nodes[2]["want"] == [0, 1]

    def test_from_networkx_directed(self):
        g = nx.DiGraph()
        g.add_edge(0, 1, capacity=4)
        p = Problem.from_networkx(g, 1, {0: [0]}, {1: [0]})
        assert p.capacity(0, 1) == 4
        assert not p.has_arc(1, 0)

    def test_from_networkx_undirected_symmetrizes(self):
        g = nx.Graph()
        g.add_edge(0, 1, capacity=2)
        p = Problem.from_networkx(g, 1, {0: [0]}, {1: [0]})
        assert p.capacity(0, 1) == 2
        assert p.capacity(1, 0) == 2

    def test_from_networkx_default_capacity(self):
        g = nx.DiGraph()
        g.add_edge(0, 1)
        p = Problem.from_networkx(g, 1, {}, {}, default_capacity=7)
        assert p.capacity(0, 1) == 7

    def test_from_networkx_bad_labels(self):
        g = nx.DiGraph()
        g.add_edge("a", "b")
        with pytest.raises(ProblemValidationError):
            Problem.from_networkx(g, 1, {}, {})


class TestDunder:
    def test_equality_ignores_arc_order(self):
        a = Problem.build(3, 1, [(0, 1, 1), (1, 2, 1)], {0: [0]}, {2: [0]})
        b = Problem.build(3, 1, [(1, 2, 1), (0, 1, 1)], {0: [0]}, {2: [0]})
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self, path_problem, diamond_problem):
        assert path_problem != diamond_problem
        assert path_problem != "not a problem"

    def test_repr(self, path_problem):
        assert "n=3" in repr(path_problem)
        assert "m=2" in repr(path_problem)
