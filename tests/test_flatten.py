from __future__ import annotations

import io

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from evograph import InactiveRootError, TemporalNode, bfs, build_graph
from evograph.flatten import expand, static_bfs, static_distances, write_edge_list
from evograph.generator import random_graph
from tests_util import random_spec

TN = TemporalNode


def test_expand_golden(demo):
    x = expand(demo)
    assert x.nodes == (TN(1, 1), TN(2, 1), TN(1, 2), TN(3, 2), TN(2, 3), TN(3, 3))
    assert x.static_edges == {
        (TN(1, 1), TN(2, 1)), (TN(1, 2), TN(3, 2)), (TN(2, 3), TN(3, 3)),
    }
    assert x.causal_edges == {
        (TN(1, 1), TN(1, 2)), (TN(2, 1), TN(2, 3)), (TN(3, 2), TN(3, 3)),
    }
    assert x.num_nodes == 6 and x.num_edges == 6
    assert x.index_of[TN(1, 2)] == 2


def test_expand_single_directed_edge():
    x = expand(build_graph([(1, 2, 1)]))
    assert len(x.static_edges) == 1
    assert len(x.causal_edges) == 0


def test_expand_undirected_doubles_static():
    x = expand(build_graph([(1, 2, 1)], directed=False))
    assert x.static_edges == {(TN(1, 1), TN(2, 1)), (TN(2, 1), TN(1, 1))}


def test_causal_edges_are_all_ordered_pairs():
    # one node active at three stamps: 3 choose 2 jumps
    g = build_graph([(1, 2, 1), (1, 2, 2), (1, 2, 3)])
    x = expand(g)
    mine = {(a, b) for a, b in x.causal_edges if a.node == 1}
    assert mine == {
        (TN(1, 1), TN(1, 2)), (TN(1, 1), TN(1, 3)), (TN(1, 2), TN(1, 3)),
    }


def test_edge_kinds_partition(demo):
    for i in range(15):
        g = random_graph(random_spec(800 + i))
        x = expand(g)
        assert not (x.static_edges & x.causal_edges)
        assert all(a.time == b.time and a.node != b.node for a, b in x.static_edges)
        assert all(a.node == b.node and a.time < b.time for a, b in x.causal_edges)
        # successor lists cover exactly the union
        total = sum(len(s) for s in x.successors.values())
        assert total == x.num_edges


def test_static_bfs_golden(demo):
    x = expand(demo)
    rm = static_bfs(x, (1, 1))
    assert rm.entries == bfs(demo, (1, 1)).entries
    assert rm.root == TN(1, 1)


def test_static_bfs_rejects_inactive_root(demo):
    with pytest.raises(InactiveRootError):
        static_bfs(expand(demo), (3, 1))


def test_static_bfs_equals_traversal_everywhere():
    for i in range(30):
        g = random_graph(random_spec(900 + i))
        x = expand(g)
        for root in g.active_nodes():
            assert static_bfs(x, root).entries == bfs(g, root).entries


def test_static_distances_match_scipy_shortest_path():
    # scipy's own unweighted search over the same CSR, from every root
    undirected = 0
    for i in range(300):
        g = random_graph(random_spec(1300 + i))
        x = expand(g)
        roots = np.arange(x.num_nodes)
        want = shortest_path(x.matrix, unweighted=True, indices=roots)
        got = static_distances(x, roots)
        assert got.shape == want.shape
        assert np.array_equal(got, np.where(np.isinf(want), -1, want))
        undirected += not g.directed
    assert undirected > 100


def test_static_distances_batches_agree(demo):
    x = expand(demo)
    every = static_distances(x, range(x.num_nodes))
    for a in range(x.num_nodes):
        assert np.array_equal(static_distances(x, [a]), every[a:a + 1])


def test_successors_are_the_forward_neighbors():
    for i in range(15):
        g = random_graph(random_spec(1700 + i))
        x = expand(g)
        assert x.successors == {tn: tuple(g.forward_neighbors(tn)) for tn in x.nodes}


def test_write_edge_list_golden(demo):
    buf = io.StringIO()
    n = write_edge_list(expand(demo), buf)
    assert n == 6
    assert buf.getvalue() == (
        "1@1\t2@1\tSTATIC\n"
        "1@2\t3@2\tSTATIC\n"
        "2@3\t3@3\tSTATIC\n"
        "1@1\t1@2\tCAUSAL\n"
        "2@1\t2@3\tCAUSAL\n"
        "3@2\t3@3\tCAUSAL\n"
    )


def test_static_distances_reject_a_bad_id(demo):
    x = expand(demo)
    for bad in ([0, 6], [-1]):
        with pytest.raises(InactiveRootError):
            static_distances(x, bad)
