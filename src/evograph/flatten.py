"""Static expansion of an evolving graph.

The expansion is an ordinary digraph over the active temporal nodes: every
slice edge becomes a same-time edge, and every ordered pair of active times of
one node becomes a time-jump edge.  A classical BFS on this digraph reproduces
temporal-path traversal exactly, which makes it the reference oracle for the
frontier engine.

Time-jump edges number sum-over-nodes C(a_v, 2) for a node active a_v times,
so the expansion is quadratic in per-node activity.  Build it for verification
and export, not for large-scale traversal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import EvolvingGraph, TemporalNode, TemporalNodeLike, _as_pair
from .errors import InactiveRootError
from .traversal import ReachedMap


@dataclass(frozen=True, eq=False)
class StaticExpansion:
    """Explicit static digraph equivalent to an evolving graph.

    ``nodes`` are the active temporal nodes in (time, node) order;
    ``index_of`` maps each to its position.  ``static_edges`` hold the
    same-time steps (both directions for undirected inputs), ``causal_edges``
    the time jumps.  ``successors`` is the combined sorted adjacency.
    """

    nodes: tuple[TemporalNode, ...]
    index_of: dict
    static_edges: frozenset
    causal_edges: frozenset
    successors: dict

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def num_edges(self):
        return len(self.static_edges) + len(self.causal_edges)


def expand(g: EvolvingGraph) -> StaticExpansion:
    """Materialize the static expansion of ``g``.

    Its node positions are ``g``'s active ids, its same-time edges the
    layout's steps and its time jumps the layout's jumps; ``successors``
    are the ``forward_neighbors`` of each node.
    """
    nodes = tuple(g.active_nodes())
    index_of = {tn: i for i, tn in enumerate(nodes)}

    def pairs(src, dst):
        return frozenset(zip(map(nodes.__getitem__, src.tolist()),
                             map(nodes.__getitem__, dst.tolist())))

    lay = g.layout
    successors = {tn: tuple(g.forward_neighbors(tn)) for tn in nodes}
    return StaticExpansion(
        nodes=nodes,
        index_of=index_of,
        static_edges=pairs(*lay.steps()),
        causal_edges=pairs(*lay.jumps()),
        successors=successors,
    )


def static_bfs(x: StaticExpansion, root: TemporalNodeLike) -> ReachedMap:
    """Classical queue BFS on the expansion digraph.

    Raises InactiveRootError when the root is not a node of the expansion.
    """
    node, lab = _as_pair(root)
    root_tn = TemporalNode(node, lab)
    if root_tn not in x.index_of:
        raise InactiveRootError(f"{root_tn} is not an active temporal node")
    dist = {root_tn: 0}
    q = deque([root_tn])
    succ = x.successors
    while q:
        a = q.popleft()
        d = dist[a] + 1
        for b in succ[a]:
            if b not in dist:
                dist[b] = d
                q.append(b)
    # (distance, time, node) read from the fields: an index_of lookup would
    # hash every TemporalNode in Python, and TemporalNode.__lt__ is slower still
    entries = {
        tn: d for tn, d in sorted(dist.items(),
                                  key=lambda kv: (kv[1], kv[0].time, kv[0].node))
    }
    iterations = max(entries.values()) + 1
    return ReachedMap(root_tn, entries, iterations=iterations)


def write_edge_list(x: StaticExpansion, fileobj) -> int:
    """Write the expansion as tab-separated lines ``u@t  v@t  KIND``.

    Same-time edges come first, then time jumps, each block sorted.  Returns
    the number of lines written.
    """
    n = 0
    for kind, edges in (("STATIC", x.static_edges), ("CAUSAL", x.causal_edges)):
        for a, b in sorted(edges):
            fileobj.write(
                f"{a.node}@{a.time}\t{b.node}@{b.time}\t{kind}\n"
            )
            n += 1
    return n
