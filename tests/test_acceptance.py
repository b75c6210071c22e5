"""End-to-end checks for the package's headline guarantees.

Each test prints one ``[acceptance] <name>: PASS|FAIL`` line on the live
terminal (bypassing capture) so a suite run doubles as a checklist.
"""

from __future__ import annotations

import gc
import timeit
from contextlib import contextmanager

import numpy as np

import oracles
from conftest import DEMO_TRIPLES, TOY_CITATIONS
from evograph import TemporalNode, bfs, build_graph
from evograph.algebra import (
    BlockMatrix,
    algebraic_bfs,
    count_temporal_paths,
    naive_path_sum,
    nilpotency_index,
)
from evograph.citenet import community, influence_set, influencers_set
from evograph.cli import geometric_sizes, main, run_bench
from evograph.flatten import expand, static_bfs
from evograph.generator import random_graph
from tests_util import dag_slice_triples, random_spec, triples_of

TN = TemporalNode


@contextmanager
def criterion(capsys, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}")


def demo():
    return build_graph(DEMO_TRIPLES, directed=True)


def test_golden_bfs_mid_root(capsys):
    with criterion(capsys, "golden BFS from (1, t=2)"):
        g = demo()
        rm = bfs(g, (1, 2))
        assert rm.entries == {TN(1, 2): 0, TN(3, 2): 1, TN(3, 3): 2}
        best = min(timeit.repeat(lambda: bfs(g, (1, 2)), number=100, repeat=5)) / 100
        assert best < 1e-3, f"BFS took {best*1e3:.3f} ms"


def test_golden_bfs_first_root(capsys):
    with criterion(capsys, "golden BFS from (1, t=1)"):
        rm = bfs(demo(), (1, 1))
        assert rm.entries == {
            TN(1, 1): 0,
            TN(2, 1): 1, TN(1, 2): 1,
            TN(3, 2): 2, TN(2, 3): 2,
            TN(3, 3): 3,
        }


def test_product_sum_undercounts(capsys):
    with criterion(capsys, "matrix-product sum undercounts true paths"):
        g = demo()
        s = naive_path_sum(g)
        assert s[g.node_id(1), g.node_id(3)] == 1
        assert count_temporal_paths(g, (1, 1), (3, 3), 3) == 2
        assert main(["demo-naive-sum"]) == 0
        out = capsys.readouterr().out
        assert "1\t3\t1\t2" in out  # sum says 1, the true count is 2


def test_dense_block_matrix_golden(capsys):
    with criterion(capsys, "dense block matrix equals the worked 6x6 form"):
        want = np.array([
            [0, 1, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 0],
        ])
        assert (BlockMatrix(demo()).dense(restricted=True) == want).all()


def test_three_way_bfs_equivalence(capsys):
    with criterion(capsys, "frontier / expansion / algebraic BFS agree "
                           "(500 graphs, every active root)"):
        roots = 0
        for i in range(500):
            g = random_graph(random_spec(20_000 + i, max_nodes=50, max_times=6))
            x = expand(g)
            op = BlockMatrix(g)
            for root in g.active_nodes():
                a = bfs(g, root)
                b = static_bfs(x, root)
                c = algebraic_bfs(op, root)
                assert a.entries == b.entries == c.entries, (i, root)
                roots += 1
        assert roots > 500


def test_path_counts_match_enumeration(capsys):
    with criterion(capsys, "path counts equal brute-force enumeration "
                           "(200 graphs, hops <= 5)"):
        for i in range(200):
            g = random_graph(random_spec(
                30_000 + i, max_nodes=12, max_times=4, density=1.5))
            op = BlockMatrix(g)
            triples = triples_of(g)
            actives = g.active_nodes()
            for src in actives:
                want = oracles.walk_counts(triples, g.directed, src.node, src.time, 5)
                for dst in actives:
                    for hops in range(6):
                        got = count_temporal_paths(op, src, dst, hops)
                        assert got == want.get(((dst.node, dst.time), hops), 0), (
                            i, src, dst, hops)


def test_nilpotency_bounds_iterations(capsys):
    with criterion(capsys, "acyclic slices: nilpotency index exists and "
                           "bounds the algebraic iteration count (200 graphs)"):
        for i in range(200):
            triples = dag_slice_triples(40_000 + i)
            g = build_graph(triples)
            idx = nilpotency_index(g)
            assert idx is not None
            assert idx == oracles.nilpotency_index(triples, True)
            assert idx <= g.num_active() + 1
            op = BlockMatrix(g)
            for root in g.active_nodes():
                assert algebraic_bfs(op, root).iterations <= idx


def test_runtime_scales_linearly_in_edges(capsys):
    with criterion(capsys, "BFS wall time grows linearly with static edges "
                           "(10^4 active nodes, 10^5..10^6 edges)"):
        sizes = geometric_sizes(10**5, 10**6, 5)
        # three independent bench passes, elementwise best, to shield the
        # scaling law from scheduler noise on a shared machine
        secs = None
        for _ in range(3):
            gc.collect()
            rows = run_bench(n_nodes=10**3, n_times=10, sizes=sizes, seed=0, reps=5)
            pass_secs = np.array([r[1] for r in rows])
            secs = pass_secs if secs is None else np.minimum(secs, pass_secs)
        edges = np.array([r[0] for r in rows], dtype=float)
        assert list(edges) == sorted(set(edges)), "edge schedule must increase"

        design = np.vstack([edges, np.ones_like(edges)]).T
        coef, residual, *_ = np.linalg.lstsq(design, secs, rcond=None)
        r2 = 1.0 - residual[0] / ((secs - secs.mean()) ** 2).sum()
        assert r2 >= 0.95, f"R^2 = {r2:.4f}"
        for i in range(1, len(rows)):
            edge_ratio = edges[i] / edges[i - 1]
            time_ratio = secs[i] / secs[i - 1]
            assert edge_ratio / 1.6 <= time_ratio <= edge_ratio * 1.6, (
                f"step {i}: time ratio {time_ratio:.3f} vs edge ratio {edge_ratio:.3f}")


def stamp_growth_graph(n_nodes, n_times, seed):
    """One seeded out-edge per node per stamp: every node active at every stamp."""
    rng = np.random.Generator(np.random.PCG64(seed))
    shift = rng.integers(1, n_nodes, size=(n_times, n_nodes))
    return build_graph([(v, (v + int(shift[t, v])) % n_nodes, t)
                        for t in range(n_times) for v in range(n_nodes)])


def test_runtime_scales_linearly_in_stamps(capsys):
    with criterion(capsys, "BFS wall time grows linearly with stamps per node "
                           "(20 nodes, 250 and 1000 stamps)"):
        secs = []
        for n_times in (250, 1000):
            g = stamp_growth_graph(20, n_times, seed=n_times)
            root = g.active_nodes()[0]
            bfs(g, root)  # warm-up
            gc.collect()
            secs.append(min(timeit.repeat(lambda: bfs(g, root), number=1, repeat=5)))
        # linear in active temporal nodes reads 4, quadratic jumps read 16
        ratio = secs[1] / secs[0]
        assert ratio <= 8, f"time(1000) / time(250) = {ratio:.2f}"


def test_citation_queries_match_oracle(capsys):
    with criterion(capsys, "citation influence / influencers / community "
                           "match the reachability oracle"):
        g = build_graph(TOY_CITATIONS)
        checked = 0
        for tn in g.active_nodes():
            a, y = tn.node, tn.time
            assert influence_set(g, a, y).entries == oracles.influence_authors(
                TOY_CITATIONS, a, y)
            assert influencers_set(g, a, y).entries == oracles.influencer_authors(
                TOY_CITATIONS, a, y)
            assert community(g, a, y) == oracles.community_authors(
                TOY_CITATIONS, a, y)
            checked += 1
        assert checked == 11
