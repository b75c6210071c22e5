"""Seeded random evolving graphs.

Edges are (src, dst, time) triples drawn uniformly without replacement from
the full triple space, using a fixed 64-bit generator (PCG64) so that a seed
pins down the graph on every platform.  ``grow`` adds fresh edges to an
existing graph while keeping its node universe and time stamps, which gives
the benchmark family where only the edge count moves.  Sampling works on
int64 triple codes, ``(t * n_nodes + u) * n_nodes + v`` for the triple
(u, v, t) of node and time ids, so no triple is ever a Python tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EvolvingGraph, _build_columns, _build_ids
from .errors import InfeasibleError, TooLargeError

# The most int64 triple codes one sampling array may hold (256 MiB).  The
# shuffle used near saturation holds every code of the n_nodes**2 * n_times
# space, and a rejection batch about 1.5 codes per wanted edge; a request
# past this raises TooLargeError before either is allocated.
MAX_SAMPLE_CODES = 1 << 25


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one random graph."""

    n_nodes: int
    n_times: int
    n_static_edges: int
    seed: int = 0
    directed: bool = True

    def capacity(self) -> int:
        """Number of distinct (src, dst, time) triples without self-loops."""
        pairs = self.n_nodes * (self.n_nodes - 1)
        if not self.directed:
            pairs //= 2
        return pairs * self.n_times

    def validate(self):
        if self.n_nodes < 0 or self.n_times < 0 or self.n_static_edges < 0:
            raise InfeasibleError("sizes must be nonnegative")
        if self.n_static_edges > self.capacity():
            raise InfeasibleError(
                f"{self.n_static_edges} edges requested but only "
                f"{self.capacity()} distinct triples exist"
            )
        if self.n_static_edges == 0:
            raise InfeasibleError("at least one edge is needed to build a graph")


def random_graph(spec: GenSpec) -> EvolvingGraph:
    """Draw the graph described by ``spec``.

    Nodes are 0..n_nodes-1 and time labels 0..n_times-1 (nodes that happen to
    miss every draw do not appear in the result).  Sampling is by rejection
    against the already-drawn set; above half capacity it switches to a
    shuffle of the full triple space so saturated requests terminate.
    """
    spec.validate()
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    codes = _sample(rng, spec.n_nodes, spec.n_times, spec.n_static_edges,
                    spec.directed, forbidden=np.empty(0, dtype=np.int64))
    u, v, t = _decode(codes, spec.n_nodes)
    return _build_columns(u.tolist(), v.tolist(), t.tolist(), spec.directed)


def grow(g: EvolvingGraph, extra_edges: int, seed: int = 0) -> EvolvingGraph:
    """A new graph with all of g's edges plus ``extra_edges`` fresh ones.

    Fresh edges are drawn over g's node set and time stamps, and the grown
    graph keeps both, so the grown family shares one universe.
    ``grow(g, 0)`` returns an equal graph.  Raises InfeasibleError when the
    remaining capacity is too small.
    """
    if extra_edges < 0:
        raise InfeasibleError("extra_edges must be nonnegative")
    n, n_times = g.num_nodes, g.num_times
    lay = g.layout
    src, dst = lay.steps()
    u, v, t = lay.node[src], lay.node[dst], lay.time[src]
    if not g.directed:
        once = u < v  # each undirected edge once, as the sampler draws it
        u, v, t = u[once], v[once], t[once]
    pairs = n * (n - 1) if g.directed else n * (n - 1) // 2
    capacity = pairs * n_times - len(u)
    if extra_edges > capacity:
        raise InfeasibleError(
            f"{extra_edges} extra edges requested but only {capacity} slots remain"
        )

    rng = np.random.Generator(np.random.PCG64(seed))
    fresh = _sample(rng, n, n_times, extra_edges, g.directed,
                    forbidden=np.sort((t * n + u) * n + v))
    fu, fv, ft = _decode(fresh, n)
    return _build_ids(g.nodes, g.time_labels, np.concatenate((u, fu)),
                      np.concatenate((v, fv)), np.concatenate((t, ft)), g.directed)


def _decode(codes: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, t) id columns of some triple codes."""
    tu, v = np.divmod(codes, n_nodes)
    t, u = np.divmod(tu, n_nodes)
    return u, v, t


def _sample(rng, n_nodes, n_times, count, directed, forbidden):
    """``count`` distinct triple codes, none in the sorted codes ``forbidden``.

    Each batch of draws is screened in draw order: a draw is taken unless it
    is a self-loop, forbidden, or taken already, until ``count`` are taken.
    """
    pairs = n_nodes * (n_nodes - 1) if directed else n_nodes * (n_nodes - 1) // 2
    capacity = pairs * n_times - len(forbidden)
    dense = count * 2 >= capacity
    codes = n_times * n_nodes * n_nodes if dense else max(64, int(count * 1.5))
    if codes > MAX_SAMPLE_CODES:
        raise TooLargeError(
            f"sampling {count} edges over {n_nodes} nodes x {n_times} times needs "
            f"{codes} triple codes at once; the limit is {MAX_SAMPLE_CODES}")
    if dense:
        return _sample_dense(rng, n_nodes, n_times, count, directed, forbidden)

    taken = forbidden
    out = []
    need = count
    while need > 0:
        batch = max(64, int(need * 1.5))
        us = rng.integers(0, n_nodes, size=batch)
        vs = rng.integers(0, n_nodes, size=batch)
        ts = rng.integers(0, n_times, size=batch)
        if not directed:
            us, vs = np.minimum(us, vs), np.maximum(us, vs)
        codes = ((ts * n_nodes + us) * n_nodes + vs)[us != vs]
        codes = codes[~np.isin(codes, taken)]
        _, first = np.unique(codes, return_index=True)
        codes = codes[np.sort(first)][:need]  # each code's first draw
        out.append(codes)
        taken = np.sort(np.concatenate((taken, codes)))  # the two are disjoint
        need -= len(codes)
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def _sample_dense(rng, n_nodes, n_times, count, directed, forbidden):
    """Shuffle the whole triple space; used near saturation."""
    codes = np.arange(n_times * n_nodes * n_nodes, dtype=np.int64)
    u, v = np.divmod(codes % (n_nodes * n_nodes), n_nodes)
    codes = codes[(u != v) if directed else (u < v)]  # in (t, u, v) order
    codes = codes[~np.isin(codes, forbidden)]
    perm = rng.permutation(len(codes))
    return codes[perm[:count]]
