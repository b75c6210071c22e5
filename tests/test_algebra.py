from __future__ import annotations

import io
import random
from time import perf_counter

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
    algebraic_bfs_many,
    algebraic_distances,
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
from evograph import algebra
from evograph.flatten import expand, static_bfs, static_distances
from evograph.generator import random_graph
from tests_util import dag_slice_triples, random_spec, triples_of, wide_sparse_rows

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


def _same_as_bfs(g, maps):
    roots = g.active_nodes()
    assert len(maps) == len(roots)
    for root, rm in zip(roots, maps):
        want = bfs(g, root)
        assert rm.root == root
        assert list(rm.entries.items()) == list(want.entries.items())
        assert rm.iterations == want.iterations
        assert rm.leaves == frozenset()


@pytest.mark.parametrize("directed", [True, False])
def test_algebraic_bfs_many_equals_bfs(directed):
    for i in range(25):
        g = random_graph(random_spec(1800 + i, directed=directed))
        _same_as_bfs(g, algebraic_bfs_many(g, g.active_nodes()))
    assert algebraic_bfs_many(g, []) == []


@pytest.mark.parametrize("roots_per_batch", [1, 3])
def test_algebraic_bfs_many_across_batches(monkeypatch, roots_per_batch):
    batches = 0
    real = algebra._batch_distances

    def counting(*args):
        nonlocal batches
        batches += 1
        return real(*args)

    monkeypatch.setattr(algebra, "_batch_distances", counting)
    for i in range(10):
        g = random_graph(random_spec(1900 + i, max_nodes=12))
        monkeypatch.setattr(algebra, "_BATCH_CELLS", roots_per_batch * g.num_active())
        batches = 0
        roots = g.active_nodes()
        _same_as_bfs(g, algebraic_bfs_many(g, roots))
        assert batches == -(-len(roots) // roots_per_batch)


def test_algebraic_bfs_many_rejects_a_bad_root_before_any_product(demo, monkeypatch):
    def no_product(self, front):
        raise AssertionError("a product ran before the roots were checked")

    monkeypatch.setattr(BlockMatrix, "_reach", no_product)
    for bad in ((3, 1), (99, 7), (1, 99)):
        with pytest.raises(InactiveRootError):
            algebraic_bfs_many(demo, [(1, 1), (2, 3), bad])


def test_count_paths_golden(demo):
    assert count_temporal_paths(demo, (1, 1), (3, 3), 3) == 2
    assert count_temporal_paths(demo, (1, 1), (3, 3), 2) == 0
    assert count_temporal_paths(demo, (1, 1), (1, 1), 0) == 1
    assert count_temporal_paths(demo, (1, 1), (2, 1), 0) == 0
    assert count_temporal_paths(demo, (3, 1), (3, 1), 0) == 0  # inactive
    assert count_temporal_paths(demo, (1, 1), (3, 1), 5) == 0
    with pytest.raises(ValueError):
        count_temporal_paths(demo, (1, 1), (3, 3), -1)


def counted_products(monkeypatch) -> list:
    calls = []
    orig = BlockMatrix._count

    def counting(self, x):
        calls.append(1)
        return orig(self, x)

    monkeypatch.setattr(BlockMatrix, "_count", counting)
    return calls


def test_count_paths_stops_once_the_vector_vanishes(demo, monkeypatch):
    # the demo vector is zero after 4 products; a huge hop count must not
    # keep multiplying
    calls = counted_products(monkeypatch)
    assert count_temporal_paths(demo, (1, 1), (3, 3), 200_000) == 0
    assert len(calls) == 4


def test_count_paths_work_budget(demo, monkeypatch):
    # a 2-node cycle keeps every count at 0 or 1, so only the budget stops it;
    # each hop costs 2 active ids + 2 steps + the hop's own array calls
    cycle = build_graph([(1, 2, 1), (2, 1, 1)])
    hop_cost = 4 + algebra.PATH_COUNT_HOP_COST
    assert algebra.path_count_hop_cost(BlockMatrix(cycle)) == hop_cost
    monkeypatch.setattr(algebra, "MAX_PATH_COUNT_WORK", 1001 * hop_cost)
    assert count_temporal_paths(cycle, (1, 1), (2, 1), 1001) == 1
    with pytest.raises(TooLargeError, match="at most 1001 hops"):
        count_temporal_paths(cycle, (1, 1), (2, 1), 1002)
    monkeypatch.undo()
    # an acyclic graph still answers any hop count: its vector vanishes first
    assert count_temporal_paths(demo, (1, 1), (3, 3), 10**12) == 0
    # graphs of the benchmark's engine size, asked for twice their nilpotency
    # index, use a small share of the budget
    rng = random.Random(7)
    edges = [tuple(sorted(rng.sample(range(100), 2))) + (rng.randrange(5),) for _ in range(200)]
    g = build_graph(edges)
    hops = 2 * nilpotency_index(g)
    assert hops * algebra.path_count_hop_cost(BlockMatrix(g)) < algebra.MAX_PATH_COUNT_WORK // 100
    root = g.active_nodes()[0]
    for dst in g.active_nodes()[:5]:
        count_temporal_paths(g, root, dst, hops)  # within the budget: no TooLargeError


def test_count_paths_budget_counts_what_a_hop_touches(monkeypatch):
    # a cycle beside a long path whose nodes are each active at one or two
    # stamps of 40: a hop touches every active id and every step, so the
    # budget counts those, and a hop's cost does not grow with the stamps
    times, nodes = 40, 20_000
    g = build_graph([(1, 2, 0), (2, 1, 0)] + [(i, i + 1, i % times) for i in range(3, nodes)])
    assert g.num_active() < 3 * nodes
    op = BlockMatrix(g)
    assert algebra.path_count_hop_cost(op) == (
        g.num_active() + len(g.layout.indices) + algebra.PATH_COUNT_HOP_COST)
    calls = counted_products(monkeypatch)
    start = perf_counter()
    with pytest.raises(TooLargeError):
        count_temporal_paths(g, (1, 0), (2, 0), 10**9)
    assert len(calls) == algebra.MAX_PATH_COUNT_WORK // algebra.path_count_hop_cost(op)
    assert len(calls) <= algebra.MAX_PATH_COUNT_WORK // (g.num_active() + len(g.layout.indices))
    assert perf_counter() - start < 10  # about 0.3 s on a 2-core VM; loose for a loaded one


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


def test_count_paths_overflow_guard_counts_time_jumps():
    # a 2-node cycle at each of 64 stamps: most of a count arrives by time
    # jumps, so a guard that counted only step in-degrees would let it wrap
    rows = [(u, v, t) for t in range(64) for u, v in ((1, 2), (2, 1))]
    g = build_graph(rows)
    op = BlockMatrix(g)
    adj = oracles.expansion_adjacency(rows)
    vec = {(1, 0): 1}  # exact counts in Python ints
    dst = (2, 63)
    for hops in range(1, 40):
        nxt = {}
        for x, c in vec.items():
            for y in adj[x]:
                nxt[y] = nxt.get(y, 0) + c
        vec = nxt
        try:
            got = count_temporal_paths(op, (1, 0), dst, hops)
        except PathCountOverflowError:
            break
        assert got == vec.get(dst, 0), hops
    else:
        pytest.fail("the counts never reached the guard")
    assert max(vec.values()) > 2**40


# one node active at each of these stamp counts covers every shift of the
# reach scan: its first shift makes the scan exclusive, and each later one
# doubles the span it covers (1, 2, 4, 8 earlier stamps)
SCAN_RUNS = (1, 2, 3, 4, 5, 8, 9, 17)


def scan_case_rows(k: int) -> list:
    """Node 0 active at exactly k of 20 stamps, a cycle among nodes 1-3
    across those stamps, and two nodes with no active stamp at all, one
    with the smallest and one with the largest key."""
    rng = random.Random(k)
    stamps = sorted(rng.sample(range(20), k))
    rows = [(0, 1 + i % 3, t) for i, t in enumerate(stamps)]
    rows += [(1, 2, stamps[0]), (2, 3, stamps[-1]), (3, 1, stamps[k // 2]), (2, 0, stamps[-1])]
    return rows + [(-1, -1, stamps[0]), (99, 99, 25)]


def scan_cases():
    for k in SCAN_RUNS:
        for directed in (True, False):
            yield f"run of {k}", directed, scan_case_rows(k)
    for directed in (True, False):
        yield "single stamp", directed, [(1, 2, 5), (2, 3, 5), (3, 1, 5), (4, 4, 5)]


def test_scan_edge_cases_agree_three_ways_and_with_walk_counts():
    for name, directed, rows in scan_cases():
        g = build_graph(rows, directed=directed)
        actives = g.active_nodes()
        assert g.num_nodes > len({tn.node for tn in actives})  # idle nodes
        op = BlockMatrix(g)
        x = expand(g)
        many = algebraic_bfs_many(op, actives)
        for root, rm in zip(actives, many):
            want = bfs(g, root)
            for got in (rm, static_bfs(x, root), algebraic_bfs(op, root)):
                assert list(got.entries.items()) == list(want.entries.items()), (name, root)
                assert got.iterations == want.iterations, (name, root)
        for src in actives:
            counts = oracles.walk_counts(rows, directed, src.node, src.time, 4)
            bv = BlockVector.unit(g, src)
            for hops in range(5):
                want = {TN(*dst): c for (dst, h), c in counts.items() if h == hops}
                assert bv.nonzeros() == want, (name, src, hops)
                dst = max(want, key=want.get, default=src)
                assert count_temporal_paths(op, src, dst, hops) == want.get(dst, 0)
                bv = op.matvec(bv)


def test_a_graph_with_no_active_node():
    g = build_graph([(1, 1, 1), (2, 2, 3)])
    assert g.num_active() == 0
    assert algebraic_distances(g, []).shape == (0, 0)
    assert algebraic_bfs_many(g, []) == []
    assert count_temporal_paths(g, (1, 1), (1, 1), 2) == 0
    assert BlockMatrix(g).matvec(BlockVector.zeros(g)).is_zero()


def test_algebraic_distances_equal_the_expansion_and_bfs():
    for i in range(20):
        g = random_graph(random_spec(2200 + i))
        ids = range(g.num_active())
        dist = algebraic_distances(g, ids)
        assert dist.dtype == np.int32 and dist.shape == (g.num_active(), g.num_active())
        assert (dist == static_distances(expand(g), ids)).all()
        for a, root in enumerate(g.active_nodes()):
            order, dists = bfs(g, root).encoded(g)
            want = np.full(g.num_active(), -1)
            want[order] = dists
            assert (dist[a] == want).all()


def test_algebraic_distances_reject_a_bad_id_before_any_product(demo, monkeypatch):
    def no_product(self, front):
        raise AssertionError("a product ran before the roots were checked")

    monkeypatch.setattr(BlockMatrix, "_reach", no_product)
    for bad in ([0, 6], [-1], [3, 99]):
        with pytest.raises(InactiveRootError):
            algebraic_distances(demo, bad)


def test_a_wide_sparse_graph_counts_paths(monkeypatch):
    # 10**5 nodes x 10**3 stamps registered by self-loops, about 2000 active
    # ids among the first 400 nodes: 10**8 cells, as many units as the whole
    # budget, but a hop touches only the active ids and the steps
    rows, loops = wide_sparse_rows()
    g = build_graph(rows + loops)
    small = build_graph(rows)
    assert (g.num_nodes, g.num_times) == (100_000, 1000)
    assert g.num_nodes * g.num_times >= algebra.MAX_PATH_COUNT_WORK
    assert 1800 < g.num_active() == small.num_active() < 2100
    op = BlockMatrix(g)
    assert algebra.path_count_hop_cost(op) < algebra.MAX_PATH_COUNT_WORK // 10**4
    calls = counted_products(monkeypatch)
    # the earliest sources have the most later stamps to jump to
    for src in small.active_nodes()[:3]:
        walks = oracles.walk_counts(rows, True, src.node, src.time, 4)
        assert any(hops == 4 for _, hops in walks)
        for (dst, hops), want in walks.items():
            del calls[:]
            assert count_temporal_paths(op, src, dst, hops) == want, (src, dst, hops)
            assert len(calls) == hops
            assert count_temporal_paths(small, src, dst, hops) == want


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
