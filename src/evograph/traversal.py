"""Breadth-first traversal over temporal paths.

The frontier algorithm below runs on the graph's layout (see
``core.Layout``): ``dist`` is indexed by active id, so a query allocates
O(active temporal nodes), never O(nodes x times).  It touches each reached
temporal node once and each same-slice edge out of it once.  Time jumps stay
implicit: a jump from an active id scans the later entries of its node's
active-id list, and a per-entry ``done`` flag, set on every entry a jump has
scanned or started from, stops the scan where every later stamp is already
reached.  Each entry is scanned at most once, so the jump work is linear in
active temporal nodes.  The hot loop reads tuples of ints made once per graph;
the result builds its user-facing entries on first read and its leaves on
their own first read, so timing the traversal times the traversal.
``distances`` runs the same search from a batch of root active ids into an
int32 matrix, and ``distance`` reads one entry of its distance list.
"""

from __future__ import annotations

import numpy as np

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

    __slots__ = ("root", "iterations", "_entries", "_leaves", "_ids", "_codes",
                 "_leaf_ids")

    def __init__(self, root, entries=None, iterations=0):
        self.root = root
        self.iterations = iterations
        self._entries = entries
        self._leaves = frozenset()
        self._ids = None
        self._codes = None
        self._leaf_ids = None

    @classmethod
    def _from_ids(cls, g, root, order, dists, iterations, leaf_ids):
        """Deferred form: parallel (active id, distance) lists plus leaf
        active ids, each decoded on its first read."""
        rm = cls(root, iterations=iterations)
        rm._ids = rm._codes = (g, order, dists)
        rm._leaves = None
        rm._leaf_ids = (g, leaf_ids)
        return rm

    def encoded(self, g: EvolvingGraph) -> tuple[list[int], list[int]]:
        """(active ids of ``g``, distances) of the entries, in entry order.

        A map made by a traversal of ``g`` returns its own lists and decodes
        nothing; a map built from ``entries`` encodes each temporal node
        through ``g.active_id``.
        """
        if self._codes is not None and self._codes[0] is g:
            return self._codes[1], self._codes[2]
        entries = self.entries
        return list(map(g.active_id, entries)), list(entries.values())

    @property
    def entries(self) -> dict[TemporalNode, int]:
        """Reached temporal node -> hop distance, in (distance, time, node) order."""
        if self._ids is not None:
            g, order, dists = self._ids
            self._entries = dict(zip(g.temporal_nodes(order), dists))
            self._ids = None
        return self._entries

    @property
    def leaves(self) -> frozenset:
        if self._leaves is None:
            self.entries  # a first read of either field decodes the entries
            g, leaf_ids = self._leaf_ids
            self._leaves = frozenset(g.temporal_nodes(leaf_ids))
        return self._leaves

    def leaf_ids(self, g: EvolvingGraph) -> list[int]:
        """Active ids of ``g`` of the leaves.

        A map made by a traversal of ``g`` returns its own list, in the order
        the traversal found them, and decodes nothing; any other map encodes
        ``leaves`` through ``g.active_id``, in ascending id order.
        """
        if self._leaf_ids is not None and self._leaf_ids[0] is g:
            return self._leaf_ids[1]
        return sorted(map(g.active_id, self.leaves))

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


def bfs(g: EvolvingGraph, root: TemporalNodeLike) -> ReachedMap:
    """Hop distances from ``root`` along temporal paths.

    Raises InactiveRootError for an inactive or unknown root.  Frontier
    nodes are expanded in (time, node) order, so the result and the entry
    iteration order are deterministic.
    """
    root_tn = TemporalNode(*_as_pair(root))
    _, order, dists, iterations, leaf_ids = _search(g, g.active_id(root_tn))
    return ReachedMap._from_ids(g, root_tn, order, dists, iterations, leaf_ids)


def distances(g: EvolvingGraph, root_ids) -> np.ndarray:
    """Hop distances from root active ids, one :func:`bfs` each.

    Returns an int32 matrix with one row per root and one column per active
    id, -1 where the root does not reach, as ``flatten.static_distances``
    does.  Nothing is decoded into temporal nodes, and only the reached
    entries are copied into the matrix.

    Raises InactiveRootError for an id that is not an active id of ``g``,
    before any search.
    """
    a = g.num_active()
    if len(root_ids) and not (0 <= min(root_ids) and max(root_ids) < a):
        raise InactiveRootError(f"root ids must be active ids, 0 to {a - 1}")
    ids, dists, lengths = [], [], []
    for root_id in root_ids:
        _, order, dist, _, _ = _search(g, root_id)
        ids += order
        dists += dist
        lengths.append(len(order))
    out = np.full((len(lengths), a), -1, dtype=np.int32)
    out[np.repeat(np.arange(len(lengths)), lengths), ids] = dists
    return out


def _search(g: EvolvingGraph, root_id: int):
    """The BFS from one active id: (dist, order, dists, iterations,
    leaf_ids), where ``dist`` is the distance of every active id, -1 for
    unreached, and ``order`` and ``dists`` list the reached ids and their
    distances in entry order."""
    lay = g.layout_lists
    indptr, indices = lay.indptr, lay.indices
    node, node_ptr, node_aids, pos = lay.node, lay.node_ptr, lay.node_aids, lay.pos
    dist = [-1] * len(node)
    # done[p]: every entry after position p of its node's list is reached
    done = bytearray(len(node))
    dist[root_id] = 0
    order = [root_id]
    dists = [0]
    leaf_ids = []
    frontier = [root_id]
    k = 0
    iterations = 0
    while frontier:
        iterations += 1
        k += 1
        nxt = []
        for a in frontier:
            found_new = False
            for b in indices[indptr[a]:indptr[a + 1]]:
                if dist[b] < 0:
                    dist[b] = k
                    nxt.append(b)
                    found_new = True
            p = pos[a]
            end = node_ptr[node[a] + 1]
            q = p + 1
            while q < end and not done[q]:
                done[q] = 1
                b = node_aids[q]
                if dist[b] < 0:
                    dist[b] = k
                    nxt.append(b)
                    found_new = True
                q += 1
            done[p] = 1
            if not found_new:
                leaf_ids.append(a)
        nxt.sort()
        order.extend(nxt)
        dists.extend([k] * len(nxt))
        frontier = nxt
    return dist, order, dists, iterations, leaf_ids


def distance(g: EvolvingGraph, src: TemporalNodeLike, dst: TemporalNodeLike) -> int | None:
    """Fewest hops on a temporal path from src to dst, or None.

    An inactive src reaches nothing, not even itself.  The target is looked
    up by its active id in the search's own distances, so no reached entry
    is decoded.
    """
    try:
        root_id, target = g.active_id(src), g.active_id(dst)
    except InactiveRootError:
        return None
    d = _search(g, root_id)[0][target]
    return None if d < 0 else d


def is_reachable(g: EvolvingGraph, src: TemporalNodeLike, dst: TemporalNodeLike) -> bool:
    return distance(g, src, dst) is not None

