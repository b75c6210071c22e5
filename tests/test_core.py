from __future__ import annotations

import random

import pytest

import oracles
from evograph import (
    EdgeRecord,
    EmptyGraphError,
    EvographError,
    InactiveRootError,
    KeyTypeError,
    TemporalNode,
    build_graph,
)
from evograph.generator import GenSpec, random_graph
from tests_util import random_spec, triples_of


def test_build_assigns_dense_sorted_ids(demo):
    assert demo.nodes == (1, 2, 3)
    assert demo.time_labels == (1, 2, 3)
    assert demo.num_static_edges == 3
    assert demo.directed


def test_build_accepts_edge_records():
    g = build_graph([EdgeRecord(1, 2, 5), (2, 3, 7)])
    assert g.time_labels == (5, 7)
    assert g.num_static_edges == 2


def test_build_is_order_invariant(demo):
    rng = random.Random(0)
    for _ in range(10):
        shuffled = [(1, 2, 1), (1, 3, 2), (2, 3, 3)]
        rng.shuffle(shuffled)
        assert build_graph(shuffled) == demo


def test_duplicates_are_dropped():
    g = build_graph([(1, 2, 1), (1, 2, 1), (1, 2, 1), (2, 3, 1)])
    assert g.num_static_edges == 2


def test_undirected_edges_are_canonical():
    g = build_graph([(1, 2, 1), (2, 1, 1)], directed=False)
    assert g.num_static_edges == 1
    assert [(e.src, e.dst, e.time) for e in g.edges()] == [(1, 2, 1)]
    assert g.has_edge(1, 2, 1) and g.has_edge(2, 1, 1)


def test_self_loops_never_activate():
    g = build_graph([(5, 5, 1)])
    assert g.num_static_edges == 0
    assert not g.is_active(5, 1)
    assert g.nodes == (5,)  # the node and stamp still register


def test_self_loops_dropped_among_real_edges():
    g = build_graph([(1, 1, 1), (1, 2, 1)])
    assert g.num_static_edges == 1
    assert g.is_active(1, 1)


def test_empty_edge_list_raises():
    with pytest.raises(EmptyGraphError):
        build_graph([])


def test_non_integer_time_raises():
    with pytest.raises(TypeError):
        build_graph([(1, 2, "t1")])
    with pytest.raises(KeyTypeError, match="time labels must be integers"):
        build_graph([(1, 2, "t1")])


@pytest.mark.parametrize("directed", [True, False])
def test_mixed_node_keys_raise(directed):
    for edges in ([(1, "a", 1)], [(1, 2, 1), ("a", "b", 2)]):
        with pytest.raises(KeyTypeError, match="mutually ordered") as e:
            build_graph(edges, directed=directed)
        assert isinstance(e.value, EvographError) and isinstance(e.value, TypeError)


def test_is_active_golden(demo):
    expected = {(1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (3, 3)}
    for v in (1, 2, 3):
        for t in (1, 2, 3):
            assert demo.is_active(v, t) == ((v, t) in expected)


def test_is_active_unknown_is_false(demo):
    assert not demo.is_active(99, 1)
    assert not demo.is_active(1, 99)


def test_require_active(demo):
    assert demo.require_active((3, 2)) == (1, 2)  # (time index, node id)
    assert demo.require_active(TemporalNode(1, 1)) == (0, 0)
    for tn in [(3, 1), (99, 1), (1, 99)]:
        with pytest.raises(InactiveRootError):
            demo.require_active(tn)


def test_active_nodes_order(demo):
    assert demo.active_nodes() == [
        TemporalNode(1, 1), TemporalNode(2, 1),
        TemporalNode(1, 2), TemporalNode(3, 2),
        TemporalNode(2, 3), TemporalNode(3, 3),
    ]
    assert demo.num_active() == 6


def test_active_time_labels(demo):
    assert demo.active_time_labels(1) == (1, 2)
    assert demo.active_time_labels(2) == (1, 3)
    assert demo.active_time_labels(3) == (2, 3)
    assert demo.active_time_labels(99) == ()


def test_forward_neighbors_golden(demo):
    assert demo.forward_neighbors((1, 1)) == [TemporalNode(2, 1), TemporalNode(1, 2)]
    assert demo.forward_neighbors((2, 1)) == [TemporalNode(2, 3)]
    assert demo.forward_neighbors((3, 1)) == []  # inactive
    assert demo.forward_neighbors(TemporalNode(3, 3)) == []


def test_forward_neighbors_jump_to_every_later_time():
    # node 1 active at all three stamps: jumps from the first reach both
    g = build_graph([(1, 2, 1), (1, 2, 2), (1, 2, 3)])
    got = set(g.forward_neighbors((1, 1)))
    assert {TemporalNode(1, 2), TemporalNode(1, 3)} <= got


def test_forward_neighbors_undirected_sees_both_ends():
    g = build_graph([(1, 2, 1)], directed=False)
    assert TemporalNode(1, 1) in g.forward_neighbors((2, 1))
    assert TemporalNode(2, 1) in g.forward_neighbors((1, 1))


def test_forward_neighbors_matches_bruteforce():
    for i in range(40):
        spec = random_spec(i, max_nodes=10, max_times=4)
        g = random_graph(spec)
        triples = triples_of(g)
        for tn in g.active_nodes():
            got = {(x.node, x.time) for x in g.forward_neighbors(tn)}
            want = oracles.forward_neighbors(triples, g.directed, tn.node, tn.time)
            assert got == want, (spec, tn)


def test_temporal_path_golden(demo):
    assert demo.is_temporal_path([])
    assert demo.is_temporal_path([(1, 1)])
    assert not demo.is_temporal_path([(3, 1)])  # inactive singleton
    # the two 4-node routes from (1,1) to (3,3)
    assert demo.is_temporal_path([(1, 1), (2, 1), (2, 3), (3, 3)])
    assert demo.is_temporal_path([(1, 1), (1, 2), (3, 2), (3, 3)])
    # broken steps
    assert not demo.is_temporal_path([(1, 1), (3, 2)])   # node and time both change
    assert not demo.is_temporal_path([(2, 1), (1, 1)])   # edge points the other way
    assert not demo.is_temporal_path([(1, 2), (1, 1)])   # time going backwards
    assert not demo.is_temporal_path([(1, 1), (1, 1)])   # no self step
    assert not demo.is_temporal_path([(1, 1), (2, 1), (2, 2)])  # 2 inactive at t2


def test_temporal_path_matches_bruteforce():
    rng = random.Random(7)
    for i in range(25):
        spec = random_spec(100 + i, max_nodes=8, max_times=3)
        g = random_graph(spec)
        triples = triples_of(g)
        pool = [(v, t) for v in range(spec.n_nodes) for t in range(spec.n_times)]
        for _ in range(40):
            seq = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
            assert g.is_temporal_path(seq) == oracles.is_temporal_path(
                triples, g.directed, seq
            ), (spec, seq)


def test_temporal_node_ordering():
    assert TemporalNode(9, 1) < TemporalNode(1, 2)  # time dominates
    assert TemporalNode(1, 2) < TemporalNode(2, 2)
    assert sorted([TemporalNode(2, 2), TemporalNode(9, 1)]) == [
        TemporalNode(9, 1), TemporalNode(2, 2)
    ]


def test_edges_iterates_sorted(demo):
    assert [(e.src, e.dst, e.time) for e in demo.edges()] == [
        (1, 2, 1), (1, 3, 2), (2, 3, 3)
    ]


def test_neighbors_and_has_edge(demo):
    assert demo.neighbors(1, 1) == (2,)
    assert demo.neighbors(2, 1) == ()
    assert demo.has_edge(1, 2, 1)
    assert not demo.has_edge(2, 1, 1)
    assert not demo.has_edge(1, 2, 99)


def test_transposed_flips_edges_keeps_activity(demo):
    t = demo.transposed()
    assert t.has_edge(2, 1, 1) and not t.has_edge(1, 2, 1)
    assert t.active_nodes() == demo.active_nodes()
    assert t.transposed() == demo


def test_transpose_and_time_reversal_commute():
    for i in range(25):
        g = random_graph(random_spec(900 + i, directed=True))
        a = g.transposed().time_reversed()
        b = g.time_reversed().transposed()
        assert a == b, i
        assert a.active_nodes() == b.active_nodes(), i


def test_time_mirrored_keeps_edges_and_negates_times():
    for i in range(25):
        g = random_graph(random_spec(950 + i))
        m = g.time_mirrored()
        assert m.time_labels == tuple(sorted(-t for t in g.time_labels)), i
        assert sorted((e.src, e.dst, -e.time) for e in m.edges()) == sorted(
            (e.src, e.dst, e.time) for e in g.edges()), i
        assert m.active_nodes() == sorted(
            TemporalNode(tn.node, -tn.time) for tn in g.active_nodes()), i
        for v in g.nodes:
            assert m.active_time_labels(v) == tuple(
                -t for t in reversed(g.active_time_labels(v))), (i, v)
        assert m.time_mirrored() == g, i


def test_derived_graphs_are_made_once():
    for i in range(10):
        g = random_graph(random_spec(970 + i))
        assert g.transposed() is g.transposed(), i
        assert g.time_mirrored() is g.time_mirrored(), i
        assert g.time_reversed() is g.time_reversed(), i
        assert g.time_reversed().time_reversed() == g, i
        if not g.directed:
            assert g.transposed() is g, i


def test_graph_equality():
    a = build_graph([(1, 2, 1)])
    b = build_graph([(1, 2, 1)])
    c = build_graph([(2, 1, 1)])
    assert a == b
    assert a != c
    assert a != build_graph([(1, 2, 1)], directed=False)
