"""Static expansion of an evolving graph.

The expansion is an ordinary digraph over the active temporal nodes: every
slice edge becomes a same-time edge, and every ordered pair of active times of
one node becomes a time-jump edge.  A classical BFS on this digraph reproduces
temporal-path traversal exactly, which makes it the reference oracle for the
frontier engine.  Here the expansion is one CSR over active ids, and that
BFS runs a batch of roots at once with scipy sparse products over it; it
shares no code with ``traversal``.

Time-jump edges number sum-over-nodes C(a_v, 2) for a node active a_v times,
so the expansion is quadratic in per-node activity.  Build it for verification
and export, not for large-scale traversal.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .core import EvolvingGraph, TemporalNode, TemporalNodeLike, _as_pair
from .errors import InactiveRootError
from .traversal import ReachedMap


class StaticExpansion:
    """Explicit static digraph equivalent to an evolving graph.

    ``matrix`` is its bool adjacency, a CSR over ``graph``'s active ids with
    each row's successors ascending.  The temporal-node views are built on
    first read: ``nodes`` are the active temporal nodes in (time, node)
    order and ``index_of`` maps each to its position; ``static_edges`` hold
    the same-time steps (both directions for undirected inputs),
    ``causal_edges`` the time jumps, and ``successors`` the combined sorted
    adjacency.
    """

    def __init__(self, graph: EvolvingGraph, matrix: sp.csr_matrix):
        self.graph = graph
        self.matrix = matrix

    @property
    def num_nodes(self):
        return self.matrix.shape[0]

    @property
    def num_edges(self):
        return self.matrix.nnz

    @cached_property
    def nodes(self) -> tuple[TemporalNode, ...]:
        return tuple(self.graph.active_nodes())

    @cached_property
    def index_of(self) -> dict:
        return {tn: i for i, tn in enumerate(self.nodes)}

    def _pairs(self, src, dst) -> frozenset:
        nodes = self.nodes
        return frozenset(zip(map(nodes.__getitem__, src.tolist()),
                             map(nodes.__getitem__, dst.tolist())))

    @cached_property
    def static_edges(self) -> frozenset:
        return self._pairs(*self.graph.layout.steps())

    @cached_property
    def causal_edges(self) -> frozenset:
        return self._pairs(*self.graph.layout.jumps())

    @cached_property
    def successors(self) -> dict:
        nodes = self.nodes
        ptr, succ = self.matrix.indptr.tolist(), self.matrix.indices.tolist()
        return {tn: tuple(map(nodes.__getitem__, succ[ptr[a]:ptr[a + 1]]))
                for a, tn in enumerate(nodes)}


def expand(g: EvolvingGraph) -> StaticExpansion:
    """Build the static expansion of ``g`` as one CSR over its active ids.

    Its same-time edges are the layout's steps and its time jumps the
    layout's jumps.
    """
    import scipy.sparse as sp  # on first use, so importing evograph does not load it

    lay = g.layout
    steps, jumps = lay.steps(), lay.jumps()
    src = np.concatenate((steps[0], jumps[0]))
    dst = np.concatenate((steps[1], jumps[1]))
    a = g.num_active()
    matrix = sp.csr_matrix((np.ones(len(src), dtype=bool), (src, dst)), shape=(a, a))
    return StaticExpansion(g, matrix)


def static_distances(x: StaticExpansion, roots) -> np.ndarray:
    """Hop distances on the expansion from a batch of root active ids.

    Returns an int32 matrix with one row per root and one column per active
    id, -1 where the root does not reach.  The batch is one level-synchronous
    BFS: the roots' frontiers are the columns of a bool matrix, and a level
    is one bool SpMM with the transposed CSR (whose sums are ORs), masked by
    the cells not yet seen.

    Raises InactiveRootError for an id that is not an active id of the
    graph, before any product.
    """
    roots = np.asarray(roots, dtype=np.int64)
    if len(roots) and not (0 <= roots.min() and roots.max() < x.num_nodes):
        raise InactiveRootError(f"root ids must be active ids, 0 to {x.num_nodes - 1}")
    cols = np.arange(len(roots))
    dist = np.full((x.num_nodes, len(roots)), -1, dtype=np.int32)
    dist[roots, cols] = 0
    front = np.zeros(dist.shape, dtype=bool)
    front[roots, cols] = True
    unseen = ~front
    k = 0
    while True:
        k += 1
        front = x.matrix.T @ front
        front &= unseen
        if not front.any():
            return dist.T
        unseen &= ~front
        dist[front] = k


def static_bfs(x: StaticExpansion, root: TemporalNodeLike) -> ReachedMap:
    """Classical BFS on the expansion digraph: a batch of one for
    :func:`static_distances`.

    Raises InactiveRootError when the root is not a node of the expansion.
    """
    root_tn = TemporalNode(*_as_pair(root))
    row = static_distances(x, [x.graph.active_id(root_tn)])[0]
    reached = np.flatnonzero(row >= 0)
    # active ids follow (time, node) order, so this is the entry order
    order = reached[np.argsort(row[reached], kind="stable")]
    dists = row[order].tolist()
    return ReachedMap._from_ids(x.graph, root_tn, order.tolist(), dists, dists[-1] + 1, ())


def write_edge_list(x: StaticExpansion, fileobj) -> int:
    """Write the expansion as tab-separated lines ``u@t  v@t  KIND``.

    Same-time edges come first, then time jumps, each block sorted by
    (source, target) in (time, node) order, which is active-id order.
    Returns the number of lines written.
    """
    g = x.graph
    lay = g.layout
    keys, labels = g.nodes, g.time_labels
    names = [f"{keys[v]}@{labels[t]}"
             for v, t in zip(lay.node.tolist(), lay.time.tolist())]
    n = 0
    for kind, (src, dst) in (("STATIC", lay.steps()), ("CAUSAL", lay.jumps())):
        order = np.lexsort((dst, src))
        for a, b in zip(src[order].tolist(), dst[order].tolist()):
            fileobj.write(f"{names[a]}\t{names[b]}\t{kind}\n")
            n += 1
    return n
