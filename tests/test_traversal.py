from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import DEMO_TRIPLES, TOY_CITATIONS
from evograph import traversal
from evograph import (
    EvolvingGraph,
    InactiveRootError,
    ReachedMap,
    TemporalNode,
    bfs,
    build_graph,
    distance,
    is_reachable,
)
from evograph.citenet import community_report
from evograph.generator import GenSpec, random_graph
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


def test_bfs_matches_oracle_on_many_stamps():
    # few nodes over up to 25 stamps: a later level often reaches an earlier
    # stamp of a node that already jumped, which the jump watermark must skip
    # past without losing a distance or a leaf
    late = 0
    for i in range(20):
        rng = np.random.Generator(np.random.PCG64(0x57A + i))
        n = int(rng.integers(2, 6))
        nt = int(rng.integers(10, 26))
        spec = GenSpec(n, nt, 1, seed=800 + i, directed=bool(i % 2))
        cap = min(spec.capacity(), n * nt)
        spec = replace(spec, n_static_edges=int(rng.integers(cap // 3, cap + 1)))
        g = random_graph(spec)
        triples = triples_of(g)
        adj = oracles.expansion_adjacency(triples, g.directed)
        for root in g.active_nodes():
            rm = bfs(g, root)
            got = {(tn.node, tn.time): d for tn, d in rm.entries.items()}
            assert got == oracles.distances(triples, g.directed, root.node, root.time), (
                spec, root)
            _, leaves = oracles.bfs_with_leaves(adj, (root.node, root.time))
            assert {(tn.node, tn.time) for tn in rm.leaves} == leaves, (spec, root)
            late += sum(1 for (a, s), d in got.items() for (b, t), e in got.items()
                        if a == b and s < t and d > e)
    assert late > 100


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


def test_leaf_ids_encode_the_leaves(demo):
    rm = bfs(demo, (1, 1))
    ids = rm.leaf_ids(demo)
    assert sorted(demo.temporal_nodes(ids)) == sorted(rm.leaves)
    # another graph, even an equal one, encodes the decoded leaves
    twin = build_graph(DEMO_TRIPLES)
    assert rm.leaf_ids(twin) == sorted(ids)
    assert ReachedMap((1, 1), entries=dict(rm.entries)).leaf_ids(demo) == []


def test_bfs_accepts_temporal_node_objects(demo):
    assert bfs(demo, TemporalNode(1, 2)).entries == bfs(demo, (1, 2)).entries


def test_temporal_nodes_are_built_only_when_read(monkeypatch):
    built = []

    class Counting(TemporalNode):
        def __init__(self, node, time):
            built.append(1)
            super().__init__(node, time)

    g = random_graph(random_spec(11, max_nodes=8, max_times=12, density=6.0))
    root = g.active_nodes()[0]
    decode = EvolvingGraph.temporal_nodes

    def counted_decode(self, aids):
        tns = decode(self, aids)
        built.extend([1] * len(tns))
        return tns

    monkeypatch.setattr(traversal, "TemporalNode", Counting)  # roots
    monkeypatch.setattr(EvolvingGraph, "temporal_nodes", counted_decode)  # results
    rm = bfs(g, root)
    built.clear()  # the root
    n = len(rm.entries)
    assert len(built) == n
    leaves = rm.leaves
    assert 0 < len(leaves) < n
    assert len(built) == n + len(leaves)

    # a citation report reads its backward walk and its leaves as active ids
    # and makes no forward walk, so the walk's root is all it builds
    cites = build_graph(TOY_CITATIONS)
    built.clear()
    rep = community_report(cites, "E", 3)
    assert len(rep.entries) == 6 and len(rep.community) == 5
    assert len(built) == 1


def test_distance_decodes_no_reached_entry(monkeypatch):
    g = random_graph(random_spec(13, max_nodes=12, max_times=8, density=5.0))
    actives = g.active_nodes()
    want = {(src, dst): bfs(g, src).entries.get(dst) for src in actives for dst in actives}
    assert sum(d is not None for d in want.values()) > 2 * len(actives)
    built = []
    init = TemporalNode.__init__

    def counted_init(self, node, time):
        built.append(1)
        init(self, node, time)

    monkeypatch.setattr(TemporalNode, "__init__", counted_init)
    monkeypatch.setattr(EvolvingGraph, "temporal_nodes",
                        lambda self, aids: pytest.fail("distance decoded entries"))
    for (src, dst), d in want.items():
        assert distance(g, src, dst) == d
        assert is_reachable(g, src, dst) == (d is not None)
    assert distance(g, actives[0], (actives[0].node, 10**6)) is None
    assert built == []


def test_distances_are_bfs_rows_and_reject_a_bad_id(demo):
    ids = range(demo.num_active())
    dist = traversal.distances(demo, ids)
    assert dist.dtype == np.int32 and dist.shape == (6, 6)
    for a, root in enumerate(demo.active_nodes()):
        order, dists = bfs(demo, root).encoded(demo)
        assert sorted(zip(order, dists)) == [(b, int(d)) for b, d in enumerate(dist[a]) if d >= 0]
    assert traversal.distances(demo, []).shape == (0, 6)
    for bad in ([0, 6], [-1]):
        with pytest.raises(InactiveRootError):
            traversal.distances(demo, bad)
