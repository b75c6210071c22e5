from __future__ import annotations

import pytest

import oracles
from evograph import (
    InactiveRootError,
    TemporalNode,
    bfs,
    build_graph,
    distance,
    is_reachable,
)
from evograph.generator import random_graph
from tests_util import random_spec, triples_of


GOLDEN_FROM_FIRST = {
    TemporalNode(1, 1): 0,
    TemporalNode(2, 1): 1, TemporalNode(1, 2): 1,
    TemporalNode(3, 2): 2, TemporalNode(2, 3): 2,
    TemporalNode(3, 3): 3,
}


def test_bfs_golden_mid_root(demo):
    rm = bfs(demo, (1, 2))
    assert rm.entries == {
        TemporalNode(1, 2): 0,
        TemporalNode(3, 2): 1,
        TemporalNode(3, 3): 2,
    }
    assert rm.root == TemporalNode(1, 2)


def test_bfs_golden_first_root(demo):
    rm = bfs(demo, (1, 1))
    assert rm.entries == GOLDEN_FROM_FIRST
    assert rm.iterations == 4  # three levels found, one empty sweep


def test_bfs_inactive_root_raises(demo):
    # inactive, unknown node, unknown time: all the same rule
    for root in [(3, 1), (99, 1), (1, 99)]:
        with pytest.raises(InactiveRootError):
            bfs(demo, root)


def test_bfs_entry_iteration_is_sorted(demo):
    rm = bfs(demo, (1, 1))
    items = list(rm.entries.items())
    assert items == sorted(items, key=lambda kv: (kv[1], kv[0]))


def test_reached_map_helpers(demo):
    rm = bfs(demo, (1, 1))
    assert (3, 3) in rm and (3, 1) not in rm
    assert len(rm) == 6
    assert rm.distance_to((2, 3)) == 2
    assert rm.distance_to((9, 9)) is None
    assert rm.frontier(2) == [TemporalNode(3, 2), TemporalNode(2, 3)]
    assert rm.max_distance() == 3
    assert rm.earliest_times() == {1: 1, 2: 1, 3: 2}


def test_distance_golden(demo):
    assert distance(demo, (1, 1), (3, 3)) == 3
    assert distance(demo, (1, 1), (1, 1)) == 0
    assert distance(demo, (1, 2), (2, 3)) is None
    assert is_reachable(demo, (1, 1), (2, 3))
    assert not is_reachable(demo, (1, 2), (2, 3))


def test_inactive_source_reaches_nothing(demo):
    assert distance(demo, (3, 1), (3, 1)) is None
    assert distance(demo, (3, 1), (3, 3)) is None
    assert not is_reachable(demo, (3, 1), (3, 1))


def test_no_time_regression():
    for i in range(20):
        g = random_graph(random_spec(200 + i))
        for root in g.active_nodes():
            rm = bfs(g, root)
            assert all(tn.time >= root.time for tn in rm.entries)


def test_bfs_matches_bruteforce_distances():
    for i in range(40):
        spec = random_spec(300 + i, max_nodes=12, max_times=4)
        g = random_graph(spec)
        triples = triples_of(g)
        for root in g.active_nodes():
            got = {(tn.node, tn.time): d for tn, d in bfs(g, root).entries.items()}
            want = oracles.distances(triples, g.directed, root.node, root.time)
            assert got == want, (spec, root)


def test_every_reached_node_has_a_witness_path():
    for i in range(10):
        g = random_graph(random_spec(400 + i, max_nodes=10, max_times=4))
        for root in g.active_nodes():
            rm = bfs(g, root)
            by_dist = {}
            for tn, d in rm.entries.items():
                by_dist.setdefault(d, []).append(tn)
            for tn, d in rm.entries.items():
                path = [tn]
                cur, k = tn, d
                while k > 0:
                    pred = next(
                        p for p in by_dist[k - 1]
                        if cur in g.forward_neighbors(p)
                    )
                    path.append(pred)
                    cur, k = pred, k - 1
                path.reverse()
                assert len(path) == d + 1
                assert g.is_temporal_path(path)


def test_iterations_is_levels_plus_one():
    for i in range(15):
        g = random_graph(random_spec(500 + i))
        for root in g.active_nodes()[:5]:
            rm = bfs(g, root)
            assert rm.iterations == rm.max_distance() + 1


def test_leaves_are_reached_and_final_frontier_is_leaf():
    for i in range(15):
        g = random_graph(random_spec(600 + i))
        for root in g.active_nodes()[:5]:
            rm = bfs(g, root)
            assert set(rm.leaves) <= set(rm.entries)
            last = set(rm.frontier(rm.max_distance()))
            assert last <= set(rm.leaves)


def test_reverse_time_golden(demo):
    r = demo.time_reversed()
    assert r.time_labels == (-3, -2, -1)
    rm = bfs(r, (3, -3))
    got = {(tn.node, -tn.time) for tn in rm.entries}
    assert got == {(3, 3), (3, 2), (2, 3), (1, 2), (2, 1), (1, 1)}


def test_reverse_time_is_involution(demo):
    assert demo.time_reversed().time_reversed() == demo
    g = random_graph(random_spec(3))
    assert g.time_reversed().time_reversed() == g


def test_reverse_time_flips_reachability():
    for i in range(25):
        g = random_graph(random_spec(700 + i, max_nodes=8, max_times=3))
        r = g.time_reversed()
        actives = g.active_nodes()
        for dst in actives:
            back = {(tn.node, -tn.time) for tn in bfs(r, (dst.node, -dst.time)).entries}
            fwd = {
                (src.node, src.time)
                for src in actives
                if is_reachable(g, src, dst)
            }
            assert back == fwd, (i, dst)


def test_undirected_bfs_walks_both_ways():
    g = build_graph([(1, 2, 1), (2, 3, 1)], directed=False)
    rm = bfs(g, (3, 1))
    assert rm.entries == {
        TemporalNode(3, 1): 0,
        TemporalNode(2, 1): 1,
        TemporalNode(1, 1): 2,
    }


def test_bfs_accepts_temporal_node_objects(demo):
    assert bfs(demo, TemporalNode(1, 2)).entries == bfs(demo, (1, 2)).entries
