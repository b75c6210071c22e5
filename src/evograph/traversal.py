"""Breadth-first traversal over temporal paths.

The frontier algorithm below touches each active temporal node once and each
edge of the (implicit) expanded graph once: same-slice edges come straight
from the slice adjacency, time jumps are generated lazily from each node's
sorted active-time list.  Total cost is linear in the temporal-node universe
plus expanded edges.  The hot loop works on integer-encoded temporal nodes
(time * num_nodes + node) and defers building the user-facing map until it is
first read, so timing the traversal times the traversal.
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

    __slots__ = ("root", "iterations", "_entries", "_leaves", "_ids")

    def __init__(self, root, entries=None, iterations=0):
        self.root = root
        self.iterations = iterations
        self._entries = entries
        self._leaves = frozenset()
        self._ids = None

    @classmethod
    def _from_ids(cls, g, root, order, dists, iterations, leaf_ids):
        """Deferred form: parallel (encoded id, distance) lists plus leaf ids."""
        rm = cls(root, iterations=iterations)
        rm._leaves = None
        rm._ids = (g, order, dists, leaf_ids)
        return rm

    def _materialize(self):
        g, order, dists, leaf_ids = self._ids
        keys, labels, n = g._keys, g._labels, g.num_nodes
        self._entries = {
            TemporalNode(keys[tid % n], labels[tid // n]): d
            for tid, d in zip(order, dists)
        }
        self._leaves = frozenset(
            TemporalNode(keys[tid % n], labels[tid // n]) for tid in leaf_ids
        )
        self._ids = None

    @property
    def entries(self) -> dict[TemporalNode, int]:
        """Reached temporal node -> hop distance, in (distance, time, node) order."""
        if self._entries is None:
            self._materialize()
        return self._entries

    @property
    def leaves(self) -> frozenset:
        if self._leaves is None:
            self._materialize()
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
        """node key -> earliest time label at which it was reached."""
        out: dict = {}
        for tn in self.entries:
            if tn.node not in out or tn.time < out[tn.node]:
                out[tn.node] = tn.time
        return out


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
            ats = atimes[v]
            for t2 in ats[bisect_right(ats, t):]:
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

