"""Road network invariants and the reversed line-graph construction."""

import pytest

from fleetlab.roadnet import RoadNetwork, build_dual_graph, successors, validate

from conftest import random_network, two_path_pairs


def action_rows(dual):
    return [dual.actions[a:b].tolist() for a, b in zip(dual.indptr[:-1], dual.indptr[1:])]


def chain_abc():
    return RoadNetwork.from_edges(["a", "b", "c"], [("a", "b", 1000.0), ("b", "c", 800.0)])


class TestValidate:
    def test_valid_two_road_network(self):
        assert validate(chain_abc()) == []

    def test_dangling_node_reported(self):
        net = RoadNetwork.from_edges(["a", "b"], [("a", "b", 100.0), ("b", "zz", 100.0)])
        problems = validate(net)
        assert len(problems) == 1
        assert "dangling node" in problems[0]

    def test_non_positive_length_reported(self):
        net = RoadNetwork.from_edges(["a", "b"], [("a", "b", 0.0)])
        problems = validate(net)
        assert len(problems) == 1
        assert "non-positive length" in problems[0]

    def test_empty_network_invalid(self):
        assert validate(RoadNetwork((), ())) == ["network has no roads"]


class TestSuccessors:
    def test_chain(self):
        net = chain_abc()
        assert successors(net, 0) == [1]

    def test_dead_end(self):
        net = chain_abc()
        assert successors(net, 1) == []

    def test_junction_lists_all_outgoing(self):
        # roads 0,1 end at c; roads 2,3 leave c
        net = RoadNetwork.from_edges(
            ["a", "b", "c", "d", "e"],
            [("a", "c", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("c", "e", 1.0)],
        )
        assert successors(net, 0) == [2, 3]
        assert successors(net, 1) == [2, 3]

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            successors(chain_abc(), 5)

    def test_sorted_and_duplicate_free(self, rng):
        for _ in range(30):
            net = random_network(rng)
            for road in range(net.n_roads):
                succ = successors(net, road)
                assert succ == sorted(set(succ))


class TestBuildDualGraph:
    def test_two_road_chain(self):
        dual = build_dual_graph(chain_abc())
        assert dual.node_count == 2
        assert set(dual.edges) == {(1, 0), (0, 0), (1, 1)}
        assert action_rows(dual) == [[1], [1]]  # the dead end stays

    def test_merge_then_split_has_five_edges(self):
        # e1=(a,c), e2=(b,c), e3=(c,d): expected dual edges e3->e1, e3->e2 + 3 self-loops
        net = RoadNetwork.from_edges(
            ["a", "b", "c", "d"], [("a", "c", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)]
        )
        dual = build_dual_graph(net)
        assert set(dual.edges) == {(2, 0), (2, 1), (0, 0), (1, 1), (2, 2)}
        assert len(dual.edges) == 5

    def test_single_isolated_road(self):
        net = RoadNetwork.from_edges(["a", "b"], [("a", "b", 10.0)])
        dual = build_dual_graph(net)
        assert dual.node_count == 1
        assert dual.edges == ((0, 0),)

    def test_invalid_network_rejected(self):
        net = RoadNetwork.from_edges(["a", "b"], [("a", "b", -1.0)])
        with pytest.raises(ValueError):
            build_dual_graph(net)

    def test_parallel_roads_stay_distinct(self):
        net = RoadNetwork.from_edges(
            ["a", "b", "c"], [("a", "b", 1.0), ("a", "b", 2.0), ("b", "c", 3.0)]
        )
        dual = build_dual_graph(net)
        assert dual.node_count == 3
        assert action_rows(dual) == [[2], [2], [2]]
        assert set(dual.edges) == {(0, 0), (1, 1), (2, 2), (2, 0), (2, 1)}

    def test_loop_road_is_own_successor_deduplicated(self):
        # a road from b back to b succeeds itself; its dual edge merges with the self-loop
        net = RoadNetwork.from_edges(["a", "b"], [("a", "b", 1.0), ("b", "b", 1.0)])
        dual = build_dual_graph(net)
        assert action_rows(dual) == [[1], [1]]
        assert set(dual.edges) == {(0, 0), (1, 1), (1, 0)}

    def test_edge_count_matches_two_path_enumeration(self, rng):
        # loop-free random networks: |dual edges| = #2-paths + n_roads
        for _ in range(60):
            net = random_network(rng)
            dual = build_dual_graph(net)
            pairs = two_path_pairs(net)
            assert dual.node_count == net.n_roads
            assert len(dual.edges) == len(pairs) + net.n_roads

    def test_reversing_and_dropping_self_loops_recovers_successors(self, rng):
        for _ in range(40):
            net = random_network(rng)
            dual = build_dual_graph(net)
            recovered = {(dst, src) for src, dst in dual.edges if src != dst}
            expected = two_path_pairs(net) - {(j, j) for j in range(net.n_roads)}
            assert recovered == expected

    def test_action_rows_match_successors(self, rng):
        for _ in range(20):
            net = random_network(rng)
            dual = build_dual_graph(net)
            rows = action_rows(dual)
            assert len(rows) == net.n_roads
            for road in range(net.n_roads):
                assert rows[road] == (successors(net, road) or [road])
            assert not dual.indptr.flags.writeable and not dual.actions.flags.writeable
