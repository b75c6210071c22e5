"""Small helpers shared by the test modules."""

from __future__ import annotations

import random

import numpy as np

from evograph.generator import GenSpec


def random_spec(seed, max_nodes=20, max_times=5, density=3.0, directed=None) -> GenSpec:
    """A varied but reproducible GenSpec for property loops.

    Edge counts stay at or below ``density * n_nodes`` (and capacity) so the
    brute-force oracles stay cheap.
    """
    rng = np.random.Generator(np.random.PCG64(0xBEEF + seed))
    n = int(rng.integers(2, max_nodes + 1))
    nt = int(rng.integers(1, max_times + 1))
    if directed is None:
        directed = bool(rng.integers(0, 2))
    cap = GenSpec(n, nt, 1, 0, directed).capacity()
    m = int(rng.integers(1, min(cap, max(int(density * n), 1)) + 1))
    return GenSpec(n, nt, m, seed=seed, directed=directed)


def triples_of(g) -> list:
    """Raw (src, dst, time) triples of a graph, for feeding the oracles."""
    return [(e.src, e.dst, e.time) for e in g.edges()]


def dag_slice_triples(seed, max_nodes=15, max_times=5, density=2.0):
    """Random triples whose slices are DAGs: edges only go up in node id."""
    rng = np.random.Generator(np.random.PCG64(0xDA6 + seed))
    n = int(rng.integers(2, max_nodes + 1))
    nt = int(rng.integers(1, max_times + 1))
    cap = n * (n - 1) // 2 * nt
    m = min(int(rng.integers(1, max(int(density * n), 2))), cap)
    triples = set()
    while len(triples) < m:
        u = int(rng.integers(0, n - 1))
        v = int(rng.integers(u + 1, n))
        t = int(rng.integers(0, nt))
        triples.add((u, v, t))
    return sorted(triples)


def wide_sparse_rows(seed=17) -> tuple[list, list]:
    """(edge rows, self-loop rows) of a wide, sparse graph: 1000 random
    edges among 400 nodes over 1000 stamps, about 2000 active ids, and a
    self-loop that registers each of 10**5 nodes at one of the stamps."""
    rng = random.Random(seed)
    rows = [(rng.randrange(400), rng.randrange(400), rng.randrange(1000)) for _ in range(1000)]
    return rows, [(v, v, v % 1000) for v in range(100_000)]
