from __future__ import annotations

import io

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

import oracles
from evograph import (
    InactiveRootError,
    PathCountOverflowError,
    ShapeError,
    TemporalNode,
    TimeOrderError,
    TooLargeError,
    bfs,
    build_graph,
)
from evograph.algebra import (
    BlockMatrix,
    BlockVector,
    algebraic_bfs,
    causal_propagate,
    count_temporal_paths,
    dense_reference_matvec,
    naive_path_sum,
    naive_sum_report,
    nilpotency_index,
    odot,
    slice_matrices,
    write_matrix_market,
)
from evograph.generator import random_graph
from tests_util import dag_slice_triples, random_spec, triples_of

TN = TemporalNode

# the 6x6 active-restricted adjacency of the demo graph, rows and columns in
# (time, node) order: (1,1) (2,1) (1,2) (3,2) (2,3) (3,3)
DEMO_DENSE = np.array([
    [0, 1, 1, 0, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0],
])


def test_slice_matrix_golden(demo):
    first, _, last = slice_matrices(demo)
    assert (first.time_index, first.time_label) == (0, 1)
    assert isinstance(first.matrix, sp.csc_matrix)
    assert first.matrix.toarray().tolist() == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    assert last.matrix.toarray().tolist() == [
        [0, 0, 0], [0, 0, 1], [0, 0, 0]
    ]


def test_slice_matrix_undirected_is_symmetric():
    g = build_graph([(1, 2, 1)], directed=False)
    (sm,) = slice_matrices(g)
    m = sm.matrix.toarray()
    assert (m == m.T).all() and m.sum() == 2


def test_causal_propagate_golden(demo):
    e1 = np.array([1, 0, 0])
    e3 = np.array([0, 0, 1])
    assert causal_propagate(demo, e1, 1, 2).tolist() == [1, 0, 0]
    assert causal_propagate(demo, e1, 1, 3).tolist() == [0, 0, 0]  # 1 idle at t3
    assert causal_propagate(demo, e3, 1, 2).tolist() == [0, 0, 0]  # 3 idle at t1


def test_causal_propagate_rejects_bad_times(demo):
    b = np.zeros(3)
    with pytest.raises(TimeOrderError):
        causal_propagate(demo, b, 2, 2)
    with pytest.raises(TimeOrderError):
        causal_propagate(demo, b, 3, 1)
    with pytest.raises(ShapeError):
        causal_propagate(demo, np.zeros(4), 1, 2)


def test_odot_golden(demo):
    e1 = np.array([1, 0, 0])
    assert odot(demo, 2, e1).tolist() == [1, 0, 0]
    assert odot(demo, 3, e1).tolist() == [0, 0, 0]
    assert odot(demo, 1, np.array([5, 7, 9])).tolist() == [5, 7, 0]


def test_block_matvec_iterate_sequence(demo):
    bv = BlockVector.unit(demo, (1, 1))
    assert bv.nonzeros() == {TN(1, 1): 1}
    op = BlockMatrix(demo)
    seq = []
    for _ in range(4):
        bv = op.matvec(bv)
        seq.append(bv.nonzeros())
    assert seq == [
        {TN(2, 1): 1, TN(1, 2): 1},
        {TN(3, 2): 1, TN(2, 3): 1},
        {TN(3, 3): 2},    # both routes merge here
        {},
    ]
    assert bv.is_zero()


def test_block_matvec_annihilates_inactive_support(demo):
    bv = BlockVector.zeros(demo)
    bv.blocks[0][demo.node_id(3)] = 5  # node 3 is idle at the first stamp
    assert BlockMatrix(demo).matvec(bv).is_zero()


def test_block_matvec_shape_check(demo):
    other = build_graph([(1, 2, 1), (3, 4, 2)])
    with pytest.raises(ShapeError):
        BlockMatrix(demo).matvec(BlockVector.zeros(other))


def test_block_vector_basics(demo):
    bv = BlockVector.unit(demo, TN(2, 3))
    assert bv.nonzeros() == {TN(2, 3): 1}
    assert not bv.is_zero() and bv.max_entry() == 1
    other = bv.copy()
    other.blocks[0][0] = 9
    assert bv.blocks[0][0] == 0  # deep copy
    assert bv == BlockVector.unit(demo, (2, 3))


def test_matvec_matches_dense_reference():
    rng = np.random.Generator(np.random.PCG64(5))
    for i in range(25):
        g = random_graph(random_spec(1000 + i, max_nodes=10, max_times=4))
        bv = BlockVector.zeros(g)
        for blk in bv.blocks:
            blk[:] = rng.integers(0, 4, size=len(blk))
        assert BlockMatrix(g).matvec(bv) == dense_reference_matvec(g, bv)


def test_dense_golden(demo):
    assert (BlockMatrix(demo).dense(restricted=True) == DEMO_DENSE).all()


def test_dense_full_space_blocks(demo):
    m = BlockMatrix(demo).dense(restricted=False)
    assert m.shape == (9, 9)
    # first slice block and the jump block from stamp 1 to stamp 2
    assert m[0:3, 0:3].tolist() == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    assert m[0:3, 3:6].tolist() == [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert m[3:6, 6:9].tolist() == [[0, 0, 0], [0, 0, 0], [0, 0, 1]]
    # restricting to active rows/cols recovers the 6x6 form
    active_idx = [0, 1, 3, 5, 7, 8]
    assert (m[np.ix_(active_idx, active_idx)] == DEMO_DENSE).all()


def test_dense_guard():
    n = 5001
    g = build_graph([(i, i + 1, 1) for i in range(0, n - 1)])
    assert g.num_active() > 5000
    with pytest.raises(TooLargeError):
        BlockMatrix(g).dense(restricted=True)
    with pytest.raises(TooLargeError):
        dense_reference_matvec(g, BlockVector.zeros(g))


def test_matrix_market_roundtrip(demo):
    buf = io.BytesIO()
    write_matrix_market(demo, buf, restricted=True)
    buf.seek(0)
    m = scipy.io.mmread(buf)
    assert (m.toarray() == DEMO_DENSE).all()
    buf = io.BytesIO()
    write_matrix_market(demo, buf, restricted=False)
    buf.seek(0)
    assert scipy.io.mmread(buf).shape == (9, 9)


def test_algebraic_bfs_golden(demo):
    rm = algebraic_bfs(demo, (1, 1))
    assert rm.entries == bfs(demo, (1, 1)).entries
    assert rm.iterations == 4
    rm = algebraic_bfs(demo, (1, 2))
    assert rm.entries == {TN(1, 2): 0, TN(3, 2): 1, TN(3, 3): 2}


def test_algebraic_bfs_rejects_inactive_root(demo):
    with pytest.raises(InactiveRootError):
        algebraic_bfs(demo, (3, 1))
    with pytest.raises(InactiveRootError):
        algebraic_bfs(demo, (99, 7))


def test_algebraic_bfs_equals_traversal():
    for i in range(30):
        g = random_graph(random_spec(1100 + i))
        op = BlockMatrix(g)
        for root in g.active_nodes():
            a = algebraic_bfs(op, root)
            b = bfs(g, root)
            assert a.entries == b.entries
            assert a.iterations == b.iterations
            assert a.iterations <= g.num_active() + 1


def test_count_paths_golden(demo):
    assert count_temporal_paths(demo, (1, 1), (3, 3), 3) == 2
    assert count_temporal_paths(demo, (1, 1), (3, 3), 2) == 0
    assert count_temporal_paths(demo, (1, 1), (1, 1), 0) == 1
    assert count_temporal_paths(demo, (1, 1), (2, 1), 0) == 0
    assert count_temporal_paths(demo, (3, 1), (3, 1), 0) == 0  # inactive
    assert count_temporal_paths(demo, (1, 1), (3, 1), 5) == 0
    with pytest.raises(ValueError):
        count_temporal_paths(demo, (1, 1), (3, 3), -1)


def test_count_paths_stops_once_the_vector_vanishes(demo, monkeypatch):
    # the demo vector is zero after 4 products; a huge hop count must not
    # keep multiplying
    calls = []
    orig = BlockMatrix._matvec_blocks

    def counting(self, blocks):
        calls.append(1)
        return orig(self, blocks)

    monkeypatch.setattr(BlockMatrix, "_matvec_blocks", counting)
    assert count_temporal_paths(demo, (1, 1), (3, 3), 200_000) == 0
    assert len(calls) == 4


def test_count_paths_matches_walk_enumeration():
    for i in range(25):
        spec = random_spec(1200 + i, max_nodes=8, max_times=3, density=2.0)
        g = random_graph(spec)
        triples = triples_of(g)
        op = BlockMatrix(g)
        actives = g.active_nodes()
        for src in actives:
            want = oracles.walk_counts(triples, g.directed, src.node, src.time, 4)
            for dst in actives:
                for hops in range(5):
                    got = count_temporal_paths(op, src, dst, hops)
                    assert got == want.get(((dst.node, dst.time), hops), 0), (
                        spec, src, dst, hops,
                    )


def test_count_paths_overflow_guard():
    # complete directed slice on 26 nodes: counts multiply by 25 per hop and
    # blow past 2^63 near hop 14
    n = 26
    g = build_graph([(u, v, 1) for u in range(n) for v in range(n) if u != v])
    assert count_temporal_paths(g, (0, 1), (1, 1), 3) > 0
    with pytest.raises(PathCountOverflowError):
        count_temporal_paths(g, (0, 1), (1, 1), 20)


def test_naive_path_sum_golden(demo):
    s = naive_path_sum(demo)
    assert s.tolist() == [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
    assert (naive_path_sum(demo, 2) == 0).all()  # vanishes one stamp earlier


def test_naive_path_sum_single_stamp():
    g = build_graph([(1, 2, 7)])
    assert (naive_path_sum(g) == 0).all()
    rep = naive_sum_report(g)
    assert any("single time stamp" in n for n in rep.notes)
    # the true column still counts within-slice paths
    assert (1, 2, 0, 1) in rep.rows
    assert (1, 1, 0, 1) in rep.rows  # the trivial single-node path


def test_naive_path_sum_guard():
    g = build_graph([(1, 2, t) for t in range(13)])
    with pytest.raises(TooLargeError):
        naive_path_sum(g)


def test_naive_path_sum_closed_form():
    # the subset enumeration equals A_first (I + A_mid)... A_last
    for i in range(15):
        g = random_graph(random_spec(1300 + i, max_nodes=8, max_times=5))
        mats = [sm.matrix.toarray() for sm in slice_matrices(g)]
        if len(mats) < 2:
            continue
        ident = np.eye(g.num_nodes, dtype=np.int64)
        prod = mats[0]
        for m in mats[1:-1]:
            prod = prod @ (ident + m)
        assert (naive_path_sum(g) == prod @ mats[-1]).all()


def test_naive_sum_report_golden(demo):
    rep = naive_sum_report(demo)
    assert rep.first_label == 1 and rep.last_label == 3
    assert (1, 3, 1, 2) in rep.rows
    assert rep.mismatches() == rep.rows  # every row undercounts here
    assert rep.notes == []


def test_naive_sum_never_overcounts():
    # on DAG-sliced graphs true counts are exact, and the product sum only
    # sees a restricted path shape
    for i in range(20):
        triples = dag_slice_triples(1400 + i, max_nodes=8, max_times=4)
        g = build_graph(triples)
        rep = naive_sum_report(g)
        for _, _, naive, true in rep.rows:
            assert naive <= true


def test_nilpotency_golden(demo):
    assert nilpotency_index(demo) == 4  # longest route has three hops


def test_nilpotency_edge_cases():
    assert nilpotency_index(build_graph([(1, 1, 1)])) == 1  # nothing active
    assert nilpotency_index(build_graph([(1, 2, 1)])) == 2
    assert nilpotency_index(build_graph([(1, 2, 1), (2, 1, 1)])) is None  # 2-cycle
    assert nilpotency_index(build_graph([(1, 2, 1)], directed=False)) is None


def test_nilpotency_matches_dense_powers():
    for i in range(25):
        triples = dag_slice_triples(1500 + i)
        g = build_graph(triples)
        assert nilpotency_index(g) == oracles.nilpotency_index(triples, True)
    for i in range(25):
        g = random_graph(random_spec(1600 + i, max_nodes=8, max_times=3))
        triples = triples_of(g)
        assert nilpotency_index(g) == oracles.nilpotency_index(triples, g.directed)


def test_nilpotency_bounds_algebraic_iterations():
    for i in range(15):
        g = build_graph(dag_slice_triples(1700 + i))
        idx = nilpotency_index(g)
        assert idx is not None
        assert idx <= g.num_active() + 1
        op = BlockMatrix(g)
        for root in g.active_nodes():
            assert algebraic_bfs(op, root).iterations <= idx
