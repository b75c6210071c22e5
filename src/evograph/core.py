"""Evolving-graph data model.

An evolving graph is a time-ordered sequence of static graph slices over a
shared node universe.  A temporal node is a (node, time) pair; it is *active*
when its slice contains at least one edge between it and a different node.
Traversal never visits inactive temporal nodes, so activeness is computed once
at build time and kept as a per-slice set plus a per-node sorted list of
active times.

Graphs are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import total_ordering
from typing import Hashable, Iterable, Iterator, Sequence, Union

from .errors import EmptyGraphError, InactiveRootError, ParseError

# Node identifiers are opaque: anything hashable with a total order among
# themselves (ints for generated graphs, strings for citation data).
NodeKey = Hashable


@total_ordering
@dataclass(frozen=True)
class TemporalNode:
    """A node at a specific time, identified by (node key, time label)."""

    node: NodeKey
    time: int

    def _key(self):
        return (self.time, self.node)

    def __lt__(self, other):
        if not isinstance(other, TemporalNode):
            return NotImplemented
        return self._key() < other._key()

    def __repr__(self):
        return f"({self.node!r}@{self.time})"


@dataclass(frozen=True)
class EdgeRecord:
    """A single time-stamped edge."""

    src: NodeKey
    dst: NodeKey
    time: int


TemporalNodeLike = Union[TemporalNode, tuple]


def _as_pair(tn: TemporalNodeLike) -> tuple:
    """Accept a TemporalNode or a (node, time-label) pair."""
    if isinstance(tn, TemporalNode):
        return tn.node, tn.time
    node, time = tn
    return node, time


def _check_label(t) -> int:
    try:
        return operator.index(t)
    except TypeError:
        raise TypeError(f"time labels must be integers, got {t!r}") from None


class EvolvingGraph:
    """Immutable sequence of time-stamped graph slices.

    Construct with :func:`build_graph`.  Node ids and time indices are dense
    and assigned in sorted key/label order, which makes every derived
    structure independent of input edge order.
    """

    __slots__ = (
        "directed",
        "_keys",          # tuple of node keys, sorted; position = node id
        "_id_of",         # node key -> id
        "_labels",        # tuple of int time labels, sorted; position = time index
        "_tidx_of",       # label -> time index
        "_out",           # per time index: dict node id -> sorted tuple of successor ids
        "_active",        # per time index: frozenset of active node ids
        "_active_times",  # per node id: sorted tuple of time indices where active
        "_n_edges",       # number of stored (deduplicated) static edges
    )

    def __init__(self, *, directed, keys, labels, out, active, active_times, n_edges):
        self.directed = directed
        self._keys = keys
        self._id_of = {k: i for i, k in enumerate(keys)}
        self._labels = labels
        self._tidx_of = {lab: i for i, lab in enumerate(labels)}
        self._out = out
        self._active = active
        self._active_times = active_times
        self._n_edges = n_edges

    # -- basic shape ----------------------------------------------------

    @property
    def nodes(self) -> tuple:
        """All node keys, sorted."""
        return self._keys

    @property
    def time_labels(self) -> tuple[int, ...]:
        return self._labels

    @property
    def num_nodes(self) -> int:
        return len(self._keys)

    @property
    def num_times(self) -> int:
        return len(self._labels)

    @property
    def num_static_edges(self) -> int:
        return self._n_edges

    def node_id(self, key) -> int:
        return self._id_of[key]

    def node_key(self, node_id: int):
        return self._keys[node_id]

    def time_index(self, label: int) -> int:
        return self._tidx_of[label]

    def time_label(self, index: int) -> int:
        return self._labels[index]

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return (f"<EvolvingGraph {kind}, {self.num_nodes} nodes, "
                f"{self.num_times} times, {self._n_edges} edges>")

    def __eq__(self, other):
        if not isinstance(other, EvolvingGraph):
            return NotImplemented
        return (self.directed == other.directed
                and self._keys == other._keys
                and self._labels == other._labels
                and self._out == other._out)

    def __hash__(self):
        return hash((self.directed, self._keys, self._labels))

    # -- edges ----------------------------------------------------------

    def edges(self) -> Iterator[EdgeRecord]:
        """Stored edges sorted by (time, src, dst).

        Undirected edges come out once, in canonical (min, max) orientation.
        """
        for t, adj in enumerate(self._out):
            lab = self._labels[t]
            rows = []
            for u, nbrs in adj.items():
                uk = self._keys[u]
                for v in nbrs:
                    vk = self._keys[v]
                    if self.directed or uk <= vk:
                        rows.append((uk, vk))
            rows.sort()
            for uk, vk in rows:
                yield EdgeRecord(uk, vk, lab)

    def has_edge(self, src, dst, time_label) -> bool:
        """True when dst can be stepped to from src within the given slice."""
        t = self._tidx_of.get(time_label)
        u = self._id_of.get(src)
        v = self._id_of.get(dst)
        if t is None or u is None or v is None:
            return False
        return v in self._out[t].get(u, ())

    def neighbors(self, node, time_label) -> tuple:
        """Same-slice successors of ``node`` at ``time_label`` (node keys)."""
        t = self._tidx_of.get(time_label)
        u = self._id_of.get(node)
        if t is None or u is None:
            return ()
        return tuple(self._keys[v] for v in self._out[t].get(u, ()))

    # -- activeness -----------------------------------------------------

    def is_active(self, node, time_label) -> bool:
        """True when the slice at ``time_label`` has an edge between ``node``
        and some other node.  Unknown nodes or times are simply inactive."""
        t = self._tidx_of.get(time_label)
        v = self._id_of.get(node)
        if t is None or v is None:
            return False
        return v in self._active[t]

    def require_active(self, tn: TemporalNodeLike) -> tuple[int, int]:
        """(time index, node id) of an active temporal node.

        Every traversal starts from an active temporal node; an inactive or
        unknown one raises InactiveRootError.
        """
        node, lab = _as_pair(tn)
        t = self._tidx_of.get(lab)
        v = self._id_of.get(node)
        if t is None or v is None or v not in self._active[t]:
            raise InactiveRootError(f"({node!r}, {lab}) is not an active temporal node")
        return t, v

    def active_nodes(self) -> list[TemporalNode]:
        """All active temporal nodes in (time, node) order."""
        out = []
        for t, ids in enumerate(self._active):
            lab = self._labels[t]
            for v in sorted(ids):
                out.append(TemporalNode(self._keys[v], lab))
        return out

    def num_active(self) -> int:
        return sum(len(ids) for ids in self._active)

    def active_time_labels(self, node) -> tuple[int, ...]:
        """Time labels at which ``node`` is active, ascending."""
        v = self._id_of.get(node)
        if v is None:
            return ()
        return tuple(self._labels[t] for t in self._active_times[v])

    # -- temporal-path primitives ----------------------------------------

    def forward_neighbors(self, tn: TemporalNodeLike) -> list[TemporalNode]:
        """Temporal nodes one step ahead of ``tn``.

        A step either follows a same-slice edge to another node or jumps
        along the time axis to any strictly later time where the same node
        is active.  Inactive temporal nodes have no forward neighbors.
        Results are sorted by (time, node).
        """
        node, lab = _as_pair(tn)
        t = self._tidx_of.get(lab)
        v = self._id_of.get(node)
        if t is None or v is None or v not in self._active[t]:
            return []
        out = [TemporalNode(self._keys[u], lab) for u in self._out[t].get(v, ())]
        ats = self._active_times[v]
        for t2 in ats[bisect_right(ats, t):]:
            out.append(TemporalNode(node, self._labels[t2]))
        out.sort()
        return out

    def is_temporal_path(self, seq: Sequence[TemporalNodeLike]) -> bool:
        """Check a sequence of temporal nodes against the path rules.

        Every element must be active; each consecutive pair must be either a
        time jump (same node, strictly later time) or a same-slice edge step
        (same time, different nodes, edge present).  The empty sequence is a
        path, and so is any single active temporal node.
        """
        pairs = [_as_pair(x) for x in seq]
        for node, lab in pairs:
            if not self.is_active(node, lab):
                return False
        for (a, s), (b, t) in zip(pairs, pairs[1:]):
            if a == b:
                if t <= s:
                    return False
            elif s == t:
                if not self.has_edge(a, b, s):
                    return False
            else:
                return False
        return True

    # -- derived graphs ---------------------------------------------------

    def transposed(self) -> "EvolvingGraph":
        """Same slices with every edge direction flipped.

        Activeness does not depend on edge orientation, so the active
        structure is shared as-is.  Undirected graphs are returned unchanged.
        """
        if not self.directed:
            return self
        return EvolvingGraph(
            directed=True,
            keys=self._keys,
            labels=self._labels,
            out=[_invert_adjacency(adj) for adj in self._out],
            active=self._active,
            active_times=self._active_times,
            n_edges=self._n_edges,
        )

    def time_reversed(self) -> "EvolvingGraph":
        """Reverse the time axis (labels are negated) and flip edges.

        A sequence is a temporal path here exactly when its reverse is a
        temporal path in the original graph.  Applying this twice returns an
        equal graph.
        """
        n = self.num_times
        labels = tuple(-lab for lab in reversed(self._labels))
        if self.directed:
            out = [_invert_adjacency(self._out[n - 1 - i]) for i in range(n)]
        else:
            out = [self._out[n - 1 - i] for i in range(n)]
        active = [self._active[n - 1 - i] for i in range(n)]
        active_times = tuple(
            tuple(sorted(n - 1 - t for t in ats)) for ats in self._active_times
        )
        return EvolvingGraph(
            directed=self.directed,
            keys=self._keys,
            labels=labels,
            out=out,
            active=active,
            active_times=active_times,
            n_edges=self._n_edges,
        )


def _invert_adjacency(adj: dict) -> dict:
    inv: dict = {}
    for u, nbrs in adj.items():
        for v in nbrs:
            inv.setdefault(v, []).append(u)
    return {v: tuple(sorted(us)) for v, us in sorted(inv.items())}


def build_graph(edges: Iterable, directed: bool = True) -> EvolvingGraph:
    """Build an evolving graph from (src, dst, time-label) records.

    Accepts EdgeRecord objects or plain 3-tuples.  Self-loops are dropped
    (their endpoints and time stamps still register), duplicates are
    deduplicated, and for undirected graphs (u, v) and (v, u) are the same
    edge.  The result is identical for any permutation of the input.

    Raises EmptyGraphError when no records are given at all.
    """
    node_set: set = set()
    label_set: set = set()
    kept: set = set()
    n_records = 0
    for e in edges:
        if isinstance(e, EdgeRecord):
            src, dst, t = e.src, e.dst, e.time
        else:
            src, dst, t = e
        t = _check_label(t)
        n_records += 1
        node_set.add(src)
        node_set.add(dst)
        label_set.add(t)
        if src == dst:
            continue  # self-loops never make a node active
        if not directed and dst < src:
            src, dst = dst, src
        kept.add((src, dst, t))

    if n_records == 0:
        raise EmptyGraphError("edge list is empty")

    keys = tuple(sorted(node_set))
    id_of = {k: i for i, k in enumerate(keys)}
    labels = tuple(sorted(label_set))
    tidx_of = {lab: i for i, lab in enumerate(labels)}
    n_times = len(labels)

    out_lists: list[dict] = [{} for _ in range(n_times)]
    active: list[set] = [set() for _ in range(n_times)]
    for src, dst, lab in kept:
        t = tidx_of[lab]
        u = id_of[src]
        v = id_of[dst]
        out_lists[t].setdefault(u, []).append(v)
        if not directed:
            out_lists[t].setdefault(v, []).append(u)
        active[t].add(u)
        active[t].add(v)

    out = [
        {u: tuple(sorted(nbrs)) for u, nbrs in sorted(adj.items())}
        for adj in out_lists
    ]
    active_frozen = [frozenset(ids) for ids in active]
    active_times = tuple(
        tuple(t for t in range(n_times) if v in active_frozen[t])
        for v in range(len(keys))
    )
    return EvolvingGraph(
        directed=directed,
        keys=keys,
        labels=labels,
        out=out,
        active=active_frozen,
        active_times=active_times,
        n_edges=len(kept),
    )


def read_tsv(path) -> tuple[list[tuple[str, str, int]], int, int]:
    """Read ``name<TAB>name<TAB>time`` rows from a UTF-8 text file.

    Blank lines and lines starting with ``#`` are skipped.  Names are
    whitespace-stripped strings; times must be integers.  Returns the rows,
    the number of lines read and the number of comment lines.  A malformed
    row (wrong field count, empty name, non-integer time) raises ParseError
    with its line number.
    """
    rows = []
    comments = 0
    line_no = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            head = line.lstrip()
            if not head:
                continue
            if head[0] == "#":
                comments += 1
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(
                    f"expected 3 tab-separated fields, got {len(parts)}", line_no
                )
            src, dst, time_s = parts
            src = src.strip()
            dst = dst.strip()
            if not src or not dst:
                raise ParseError("empty name", line_no)
            try:
                t = int(time_s)  # int() ignores surrounding whitespace
            except ValueError:
                raise ParseError(
                    f"time is not an integer: {time_s!r}", line_no) from None
            rows.append((src, dst, t))
    return rows, line_no, comments
