"""Breadth-first traversal over temporal paths.

The frontier algorithm below touches each active temporal node once and each
same-slice edge once.  Time jumps stay implicit: each node keeps a jump
watermark, the lowest position in its sorted active-time list from which
every later stamp is already reached, so a jump only scans the stamps below
it.  Each active stamp is scanned at most once per node, and each expansion
adds one bisect, so the jump work is linear in active temporal nodes instead
of quadratic in each node's stamp count.  The ``dist`` array still spans the
whole nodes x times universe, so a query also costs O(nodes x times) for its
allocation.  The hot loop works on integer-encoded temporal nodes
(time * num_nodes + node); the result builds its user-facing entries on first
read and its leaves on their own first read, so timing the traversal times
the traversal.
"""

from __future__ import annotations

from bisect import bisect_right

from .core import EvolvingGraph, TemporalNode, TemporalNodeLike, _as_pair
from .errors import InactiveRootError


class ReachedMap:
    """Result of a traversal: hop distance for every reached temporal node.

    ``iterations`` is the number of frontier expansions performed; ``leaves``
    are the reached nodes that discovered no new node when their turn came
    (the leaves of the traversal tree).  Only :func:`bfs` records leaves;
    maps built from ``entries`` have none.  Neither field takes part in
    equality.
    """

    __slots__ = ("root", "iterations", "_entries", "_leaves", "_ids", "_leaf_ids")

    def __init__(self, root, entries=None, iterations=0):
        self.root = root
        self.iterations = iterations
        self._entries = entries
        self._leaves = frozenset()
        self._ids = None
        self._leaf_ids = None

    @classmethod
    def _from_ids(cls, g, root, order, dists, iterations, leaf_ids):
        """Deferred form: parallel (encoded id, distance) lists plus leaf ids,
        each decoded on its first read."""
        rm = cls(root, iterations=iterations)
        rm._ids = (g, order, dists)
        rm._leaves = None
        rm._leaf_ids = (g, leaf_ids)
        return rm

    @property
    def entries(self) -> dict[TemporalNode, int]:
        """Reached temporal node -> hop distance, in (distance, time, node) order."""
        if self._ids is not None:
            g, order, dists = self._ids
            self._entries = dict(zip(_decode(g, order), dists))
            self._ids = None
        return self._entries

    @property
    def leaves(self) -> frozenset:
        if self._leaves is None:
            self.entries  # a first read of either field decodes the entries
            g, leaf_ids = self._leaf_ids
            self._leaves = frozenset(_decode(g, leaf_ids))
            self._leaf_ids = None
        return self._leaves

    def __eq__(self, other):
        if not isinstance(other, ReachedMap):
            return NotImplemented
        return self.root == other.root and self.entries == other.entries

    __hash__ = None

    def __repr__(self):
        return (f"ReachedMap(root={self.root!r}, reached={len(self.entries)}, "
                f"iterations={self.iterations})")

    def __contains__(self, tn):
        node, lab = _as_pair(tn)
        return TemporalNode(node, lab) in self.entries

    def __len__(self):
        return len(self.entries)

    def distance_to(self, tn) -> int | None:
        node, lab = _as_pair(tn)
        return self.entries.get(TemporalNode(node, lab))

    def frontier(self, k: int) -> list[TemporalNode]:
        """All nodes at distance exactly k, in (time, node) order."""
        return sorted(tn for tn, d in self.entries.items() if d == k)

    def max_distance(self) -> int:
        return max(self.entries.values())

    def earliest_times(self) -> dict:
        """node key -> earliest time label at which it was reached.

        Read before ``entries``, it builds no TemporalNode.
        """
        if self._ids is None:
            pairs = ((tn.node, tn.time) for tn in self._entries)
        else:
            g, order, _ = self._ids
            keys, labels, n = g.nodes, g.time_labels, g.num_nodes
            pairs = ((keys[tid % n], labels[tid // n]) for tid in order)
        out: dict = {}
        for node, time in pairs:
            if node not in out or time < out[node]:
                out[node] = time
        return out


def _decode(g: EvolvingGraph, tids) -> list[TemporalNode]:
    keys, labels, n = g.nodes, g.time_labels, g.num_nodes
    return [TemporalNode(keys[tid % n], labels[tid // n]) for tid in tids]


def bfs(g: EvolvingGraph, root: TemporalNodeLike) -> ReachedMap:
    """Hop distances from ``root`` along temporal paths.

    Raises InactiveRootError for an inactive or unknown root.  Frontier
    nodes are expanded in (time, node) order, so the result and the entry
    iteration order are deterministic.
    """
    root_tn = TemporalNode(*_as_pair(root))
    ti, rid = g.require_active(root_tn)

    n = g.num_nodes
    out = g._out
    atimes = g._active_times
    dist = [-1] * (n * g.num_times)
    mark = [-1] * n  # jump watermark per node; -1 until its first jump
    root_tid = ti * n + rid
    dist[root_tid] = 0
    order = [root_tid]
    dists = [0]
    leaf_ids = []
    frontier = [root_tid]
    k = 0
    iterations = 0
    while frontier:
        iterations += 1
        k += 1
        nxt = []
        for tid in frontier:
            t, v = divmod(tid, n)
            base = tid - v
            found_new = False
            nbrs = out[t].get(v)
            if nbrs:
                for u in nbrs:
                    tu = base + u
                    if dist[tu] < 0:
                        dist[tu] = k
                        nxt.append(tu)
                        found_new = True
            # every stamp of v from position mark[v] on is already reached
            ats = atimes[v]
            hi = mark[v]
            if hi < 0:
                hi = len(ats)
            lo = bisect_right(ats, t, 0, hi)
            if lo < hi:
                mark[v] = lo
                for t2 in ats[lo:hi]:
                    tu = t2 * n + v
                    if dist[tu] < 0:
                        dist[tu] = k
                        nxt.append(tu)
                        found_new = True
            if not found_new:
                leaf_ids.append(tid)
        nxt.sort()
        order.extend(nxt)
        dists.extend([k] * len(nxt))
        frontier = nxt

    return ReachedMap._from_ids(g, root_tn, order, dists, iterations, leaf_ids)


def distance(g: EvolvingGraph, src: TemporalNodeLike, dst: TemporalNodeLike) -> int | None:
    """Fewest hops on a temporal path from src to dst, or None.

    An inactive src reaches nothing, not even itself.
    """
    try:
        rm = bfs(g, src)
    except InactiveRootError:
        return None
    node, lab = _as_pair(dst)
    return rm.entries.get(TemporalNode(node, lab))


def is_reachable(g: EvolvingGraph, src: TemporalNodeLike, dst: TemporalNodeLike) -> bool:
    return distance(g, src, dst) is not None

