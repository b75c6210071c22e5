"""Evolving-graph data model.

An evolving graph is a time-ordered sequence of static graph slices over a
shared node universe.  A temporal node is a (node, time) pair; it is *active*
when its slice contains at least one edge between it and a different node.
Traversal never visits inactive temporal nodes, so a graph is stored over its
active temporal nodes only, as integer arrays (:class:`Layout`):

- each active temporal node has a dense *active id*, in (time, node) order;
- the same-slice edges form one CSR over active ids;
- each node has a CSR of its active ids in ascending time, and each active
  id knows its position there, so the time jumps out of it are one slice.

``build_graph`` codes its input into these arrays with sorts and counts.  The
derived graphs (``transposed``, ``time_mirrored``) are array passes over the
layout, made on first use and kept by the graph.  Graphs are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import total_ordering
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from .errors import EmptyGraphError, InactiveRootError, KeyTypeError, ParseError

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
        raise KeyTypeError(f"time labels must be integers, got {t!r}") from None




class Layout(NamedTuple):
    """Integer layout of a graph over its active temporal nodes.

    With ``A`` active ids, ``N`` nodes and ``T`` time stamps:

    - ``time_ptr`` (T + 1): the active ids at time index t are
      ``time_ptr[t]`` to ``time_ptr[t + 1] - 1``;
    - ``node``, ``time`` (A): node id and time index of each active id;
    - ``indptr`` (A + 1) and ``indices``: the same-slice successors of each
      active id, ascending; undirected edges are stored both ways;
    - ``node_ptr`` (N + 1) and ``node_aids`` (A): the active ids of node v,
      in ascending time, are ``node_aids[node_ptr[v]:node_ptr[v + 1]]``;
    - ``pos`` (A): the index of each active id in ``node_aids``.

    ``EvolvingGraph.layout`` holds read-only int64 arrays, on which ``steps``
    and ``jumps`` work; ``EvolvingGraph.layout_lists`` holds the same fields
    as tuples of Python ints, for loops that read one entry at a time.
    """

    time_ptr: Sequence[int]
    node: Sequence[int]
    time: Sequence[int]
    indptr: Sequence[int]
    indices: Sequence[int]
    node_ptr: Sequence[int]
    node_aids: Sequence[int]
    pos: Sequence[int]

    def steps(self) -> tuple[np.ndarray, np.ndarray]:
        """(source, target) active ids of every same-slice step, in CSR order."""
        return np.repeat(np.arange(len(self.node)), np.diff(self.indptr)), self.indices

    def jumps(self) -> tuple[np.ndarray, np.ndarray]:
        """(earlier, later) active ids of every time jump, one per ordered
        pair of active stamps of a node, in (node, earlier, later) order."""
        p = np.arange(len(self.node))
        count = self.node_ptr[self.node[self.node_aids] + 1] - p - 1
        first = np.repeat(p, count)
        # the later ends of position p's jumps sit at p + 1, p + 2, ...
        later = np.arange(int(count.sum())) - np.repeat(np.cumsum(count) - count - p - 1, count)
        return self.node_aids[first], self.node_aids[later]


def _offsets(ids: np.ndarray, size: int) -> np.ndarray:
    """CSR pointers over ``size`` groups: group i holds ptr[i + 1] - ptr[i]
    of the ``ids``."""
    ptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=size), out=ptr[1:])
    return ptr


def _csr(a: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) over ``a`` active ids of the (source, target) steps,
    given in any order and possibly repeated."""
    steps = np.sort(src * a + dst)
    steps = steps[np.diff(steps, prepend=-1) != 0]  # one per distinct step
    src, indices = np.divmod(steps, a)
    return _offsets(src, a), indices


def _layout(n_nodes: int, n_times: int, time: np.ndarray, node: np.ndarray,
            src: np.ndarray, dst: np.ndarray) -> Layout:
    """Layout from the active temporal nodes in (time, node) order and the
    (source, target) active ids of every same-slice step, in any order and
    possibly repeated."""
    a = len(node)
    indptr, indices = _csr(a, src, dst)
    node_aids = np.argsort(node, kind="stable")  # ties keep ascending time
    pos = np.empty(a, dtype=np.int64)
    pos[node_aids] = np.arange(a)
    layout = Layout(_offsets(time, n_times), node, time, indptr, indices,
                    _offsets(node, n_nodes), node_aids, pos)
    for arr in layout:
        arr.flags.writeable = False  # graphs are immutable
    return layout


class EvolvingGraph:
    """Immutable sequence of time-stamped graph slices.

    Construct with :func:`build_graph`.  Node ids, time indices and active
    ids are dense and assigned in sorted key/label order, which makes every
    derived structure independent of input edge order.
    """

    __slots__ = (
        "directed",
        "_keys",      # tuple of node keys, sorted; position = node id
        "_id_of",     # node key -> id
        "_labels",    # tuple of int time labels, sorted; position = time index
        "_tidx_of",   # label -> time index
        "_layout",    # Layout of int64 arrays over the active temporal nodes
        "_lists",     # the same Layout as tuples of ints, made on first use
        "_n_edges",   # number of stored (deduplicated) static edges
        "_memo",      # derived graphs, made on first use
    )

    def __init__(self, *, directed, keys, labels, layout, n_edges, id_of=None):
        self.directed = directed
        self._keys = keys
        self._id_of = {k: i for i, k in enumerate(keys)} if id_of is None else id_of
        self._labels = labels
        self._tidx_of = {lab: i for i, lab in enumerate(labels)}
        self._layout = layout
        self._lists = None
        self._n_edges = n_edges
        self._memo = {}

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
                and all(np.array_equal(a, b)
                        for a, b in zip(self._layout, other._layout)))

    def __hash__(self):
        return hash((self.directed, self._keys, self._labels))

    # -- integer layout ---------------------------------------------------

    @property
    def layout(self) -> Layout:
        """The graph's arrays over active ids; see :class:`Layout`."""
        return self._layout

    @property
    def layout_lists(self) -> Layout:
        """``layout`` as tuples of Python ints, made once per graph."""
        if self._lists is None:
            self._lists = Layout._make(tuple(a.tolist()) for a in self._layout)
        return self._lists

    def temporal_nodes(self, aids) -> list[TemporalNode]:
        """The temporal nodes of some active ids, in the order given."""
        keys, labels = self._keys, self._labels
        lists = self.layout_lists
        node, time = lists.node, lists.time
        return [TemporalNode(keys[node[a]], labels[time[a]]) for a in aids]

    def _find(self, node, label) -> int:
        """Active id of (node, label), or -1 when it is inactive or unknown."""
        t = self._tidx_of.get(label)
        v = self._id_of.get(node)
        if t is None or v is None:
            return -1
        lists = self.layout_lists
        hi = lists.time_ptr[t + 1]
        a = bisect_left(lists.node, v, lists.time_ptr[t], hi)
        return a if a < hi and lists.node[a] == v else -1

    def _successors(self, a: int) -> tuple[int, ...]:
        lists = self.layout_lists
        return lists.indices[lists.indptr[a]:lists.indptr[a + 1]]

    # -- edges ----------------------------------------------------------

    def edges(self) -> Iterator[EdgeRecord]:
        """Stored edges sorted by (time, src, dst).

        Undirected edges come out once, in canonical (min, max) orientation.
        """
        lay = self._layout
        src, dst = lay.steps()
        u, v, t = lay.node[src], lay.node[dst], lay.time[src]
        if not self.directed:
            once = u < v
            u, v, t = u[once], v[once], t[once]
        keys, labels = self._keys, self._labels
        for a, b, c in zip(u.tolist(), v.tolist(), t.tolist()):
            yield EdgeRecord(keys[a], keys[b], labels[c])

    def has_edge(self, src, dst, time_label) -> bool:
        """True when dst can be stepped to from src within the given slice."""
        a = self._find(src, time_label)
        b = self._find(dst, time_label)
        return a >= 0 and b >= 0 and b in self._successors(a)

    def neighbors(self, node, time_label) -> tuple:
        """Same-slice successors of ``node`` at ``time_label`` (node keys)."""
        a = self._find(node, time_label)
        if a < 0:
            return ()
        node_of = self.layout_lists.node
        return tuple(self._keys[node_of[b]] for b in self._successors(a))

    # -- activeness -----------------------------------------------------

    def is_active(self, node, time_label) -> bool:
        """True when the slice at ``time_label`` has an edge between ``node``
        and some other node.  Unknown nodes or times are simply inactive."""
        return self._find(node, time_label) >= 0

    def active_id(self, tn: TemporalNodeLike) -> int:
        """Active id of an active temporal node.

        Every traversal starts from an active temporal node; an inactive or
        unknown one raises InactiveRootError.
        """
        node, lab = _as_pair(tn)
        a = self._find(node, lab)
        if a < 0:
            raise InactiveRootError(f"({node!r}, {lab}) is not an active temporal node")
        return a

    def require_active(self, tn: TemporalNodeLike) -> tuple[int, int]:
        """(time index, node id) of an active temporal node; InactiveRootError
        for an inactive or unknown one."""
        a = self.active_id(tn)
        lists = self.layout_lists
        return lists.time[a], lists.node[a]

    def active_nodes(self) -> list[TemporalNode]:
        """All active temporal nodes in (time, node) order."""
        return self.temporal_nodes(range(self.num_active()))

    def num_active(self) -> int:
        return len(self._layout.node)

    def active_time_labels(self, node) -> tuple[int, ...]:
        """Time labels at which ``node`` is active, ascending."""
        v = self._id_of.get(node)
        if v is None:
            return ()
        lists = self.layout_lists
        aids = lists.node_aids[lists.node_ptr[v]:lists.node_ptr[v + 1]]
        return tuple(self._labels[lists.time[a]] for a in aids)

    # -- temporal-path primitives ----------------------------------------

    def forward_neighbors(self, tn: TemporalNodeLike) -> list[TemporalNode]:
        """Temporal nodes one step ahead of ``tn``.

        A step either follows a same-slice edge to another node or jumps
        along the time axis to any strictly later time where the same node
        is active.  Inactive temporal nodes have no forward neighbors.
        Results are sorted by (time, node).
        """
        a = self._find(*_as_pair(tn))
        if a < 0:
            return []
        lists = self.layout_lists
        later = lists.node_aids[lists.pos[a] + 1:lists.node_ptr[lists.node[a] + 1]]
        # steps stay at this time and jumps go later, so this is (time, node) order
        return self.temporal_nodes(self._successors(a) + later)

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

    def _derived(self, labels, layout: Layout) -> "EvolvingGraph":
        return EvolvingGraph(
            directed=self.directed,
            keys=self._keys,
            labels=labels,
            layout=layout,
            n_edges=self._n_edges,
            id_of=self._id_of,
        )

    def transposed(self) -> "EvolvingGraph":
        """Same slices with every edge direction flipped.

        Activeness does not depend on edge orientation, so the active ids
        and every array but the step CSR are shared with this graph.
        Undirected graphs are returned unchanged.  The result is made on the
        first call and the same object is returned after that.
        """
        if not self.directed:
            return self
        g = self._memo.get("transposed")
        if g is None:
            lay = self._layout
            src, dst = lay.steps()
            indptr, indices = _csr(len(lay.node), dst, src)
            indptr.flags.writeable = indices.flags.writeable = False
            g = self._memo["transposed"] = self._derived(
                self._labels, lay._replace(indptr=indptr, indices=indices))
        return g

    def time_mirrored(self) -> "EvolvingGraph":
        """Reverse the time axis (labels are negated), keeping every edge.

        Slice i is this graph's slice T-1-i.  A temporal path here walks this
        graph's edges backward in time.  Like ``transposed``, the result is
        made once per graph.
        """
        g = self._memo.get("time_mirrored")
        if g is None:
            lay = self._layout
            time = self.num_times - 1 - lay.time
            order = np.argsort(time * self.num_nodes + lay.node)  # old ids, new order
            new_id = np.empty_like(order)
            new_id[order] = np.arange(len(order))
            src, dst = lay.steps()
            g = self._memo["time_mirrored"] = self._derived(
                tuple(-lab for lab in reversed(self._labels)),
                _layout(self.num_nodes, self.num_times, time[order], lay.node[order],
                        new_id[src], new_id[dst]))
        return g

    def time_reversed(self) -> "EvolvingGraph":
        """Reverse the time axis (labels are negated) and flip edges.

        A sequence is a temporal path here exactly when its reverse is a
        temporal path in the original graph.  Applying this twice returns an
        equal graph.
        """
        return self.time_mirrored().transposed()


def build_graph(edges: Iterable, directed: bool = True) -> EvolvingGraph:
    """Build an evolving graph from (src, dst, time-label) records.

    Accepts EdgeRecord objects or plain 3-tuples.  Self-loops are dropped
    (their endpoints and time stamps still register), duplicates are
    deduplicated, and for undirected graphs (u, v) and (v, u) are the same
    edge.  The result is identical for any permutation of the input.

    Raises EmptyGraphError when no records are given at all, and
    KeyTypeError when a time label is not an integer or two node keys cannot
    be ordered against each other.
    """
    src, dst, times = [], [], []
    for e in edges:
        if isinstance(e, EdgeRecord):
            s, d, t = e.src, e.dst, e.time
        else:
            s, d, t = e
        src.append(s)
        dst.append(d)
        times.append(_check_label(t))
    return _build_columns(src, dst, times, directed)


def _build_columns(src: Sequence, dst: Sequence, times: Sequence[int],
                   directed: bool) -> EvolvingGraph:
    """``build_graph`` on its records split into columns, with every time
    label already an int.

    Keys and labels are sorted as Python objects; everything after that is
    array work on their codes: one ``np.unique`` finds the active temporal
    nodes, and one sort in ``_layout`` the distinct edges.
    """
    if not times:
        raise EmptyGraphError("edge list is empty")
    node_set = set(src)
    node_set.update(dst)
    try:
        keys = tuple(sorted(node_set))
    except TypeError:
        raise KeyTypeError(
            "node keys must be mutually ordered, e.g. all ints or all strings") from None
    labels = tuple(sorted(set(times)))
    id_of = {k: i for i, k in enumerate(keys)}
    tidx_of = {lab: i for i, lab in enumerate(labels)}
    m = len(times)
    u = np.fromiter(map(id_of.__getitem__, src), dtype=np.int64, count=m)
    v = np.fromiter(map(id_of.__getitem__, dst), dtype=np.int64, count=m)
    t = np.fromiter(map(tidx_of.__getitem__, times), dtype=np.int64, count=m)
    return _build_ids(keys, labels, u, v, t, directed, id_of)


def _build_coded(names: Sequence, src: np.ndarray, dst: np.ndarray,
                 times: Sequence[int], time: np.ndarray, directed: bool) -> EvolvingGraph:
    """``build_graph`` on the records ``(names[src[i]], names[dst[i]],
    times[time[i]])``, coded as int64 positions in lists of keys and time
    labels.  A list may hold a value twice; a value that no record uses is
    not kept."""
    if not len(time):
        raise EmptyGraphError("edge list is empty")
    keys, id_of, (u, v) = _ranked(names, src, dst)
    labels, _, (t,) = _ranked(times, time)
    return _build_ids(keys, labels, u, v, t, directed, id_of)


def _ranked(values: Sequence, *codes: np.ndarray) -> tuple[tuple, dict, list]:
    """The distinct ``values`` that the code arrays use, sorted; a dict from
    each to its position; and each code array recoded to those positions."""
    used = np.flatnonzero(np.bincount(np.concatenate(codes), minlength=len(values))).tolist()
    ordered = tuple(sorted({values[i] for i in used}))
    pos = {x: i for i, x in enumerate(ordered)}
    recode = np.zeros(len(values), dtype=np.int64)
    recode[used] = [pos[values[i]] for i in used]
    return ordered, pos, [recode[c] for c in codes]


def _build_ids(keys: tuple, labels: tuple, u: np.ndarray, v: np.ndarray,
               t: np.ndarray, directed: bool, id_of=None) -> EvolvingGraph:
    """The graph over sorted ``keys`` and ``labels`` whose records are coded
    as int64 arrays: source id ``u``, target id ``v`` and time index ``t``
    (the positions in ``keys`` and ``labels``).  Every key and label is kept,
    even one no record uses."""
    n = len(keys)
    step = u != v  # self-loops never make a node active
    u, v, t = u[step], v[step], t[step]
    # active temporal nodes are the distinct endpoint cells time * n + node,
    # so their sorted order is the (time, node) order of the active ids; the
    # int64 codes here stay below len(labels) * len(keys)
    cells, aid = np.unique(np.concatenate((t * n + u, t * n + v)), return_inverse=True)
    head, tail = np.split(aid, 2)
    if not directed:
        head, tail = aid, np.concatenate((tail, head))
    time, node = np.divmod(cells, n)
    layout = _layout(n, len(labels), time, node, head, tail)
    return EvolvingGraph(
        directed=directed,
        keys=keys,
        labels=labels,
        layout=layout,
        n_edges=len(layout.indices) if directed else len(layout.indices) // 2,
        id_of=id_of,
    )


class EdgeTable(NamedTuple):
    """The data rows of an edge-list file, coded.

    Row i is ``(names[src[i]], names[dst[i]], times[time[i]])``: ``names``
    holds the distinct whitespace-stripped names and ``times`` the distinct
    integer times, each once, and ``src``, ``dst`` and ``time`` are int64
    arrays of positions in them.  ``lines`` counts the lines read and
    ``comments`` the comment lines.
    """

    names: list
    src: np.ndarray
    dst: np.ndarray
    times: list
    time: np.ndarray
    lines: int
    comments: int

    def rows(self) -> list[tuple[str, str, int]]:
        """The rows as (source, target, time) tuples, in file order."""
        names, times = self.names, self.times
        return [(names[s], names[d], times[t]) for s, d, t in
                zip(self.src.tolist(), self.dst.tolist(), self.time.tolist())]


def read_tsv(path) -> EdgeTable:
    """Read ``name<TAB>name<TAB>time`` rows from a UTF-8 text file.

    Lines end in ``\\n``, ``\\r\\n`` or a lone ``\\r``.  Blank lines and lines
    starting with ``#`` are skipped.  Names are whitespace-stripped strings;
    times must be integers.  A malformed row (wrong field count, empty name,
    non-integer time) or a line that is not UTF-8 raises ParseError with its
    line number.  When a file has both faults, the UTF-8 error wins if it
    lies in the same 8 KiB block as the bad row or an earlier one, and the
    row error wins otherwise (the order in which a text-mode read of 8 KiB
    blocks meets them).

    The file is read in one pass of array work over its bytes (see
    ``_code_rows``); only a file with a fault is read again, line by line,
    to report the first one.
    """
    with open(path, "rb") as fh:
        table = _code_rows(fh.read())
    if table is None:
        _scan_lines(path)  # raises the ParseError of the first fault
        raise RuntimeError(f"{path}: the bulk reader found a fault that the line scan did not")
    return table


# first bytes of a line that make it a data row as they stand: ASCII, and
# neither whitespace (as ``str.isspace`` reads it) nor "#"
_ROW_START = np.array([b < 128 and not chr(b).isspace() and b != ord("#") for b in range(256)])


def _code_rows(data: bytes) -> EdgeTable | None:
    """``read_tsv`` on a file's bytes, or None when the file has a fault.

    Newlines and tabs are found as arrays.  Only the lines that open with
    whitespace, ``#`` or a non-ASCII byte are decoded one by one, to tell
    blank lines and comments from rows.  Every row must then hold exactly two
    tabs; the rows are decoded and split into fields at once, and each
    distinct field is stripped or converted to int once.  Costs O(bytes)
    array work, O(rows) dict lookups and O(distinct fields) conversions.
    """
    if b"\r" in data:  # the line ends that text mode reads as newlines
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == 10)
    if data and data[-1] != 10:
        ends = np.append(ends, len(data))
    starts = np.concatenate(([0], ends[:-1] + 1))[:len(ends)]
    is_row = _ROW_START[buf[starts]]  # an empty line starts with its newline
    comments = 0
    odd = np.flatnonzero(~is_row)
    for i, lo, hi in zip(odd.tolist(), starts[odd].tolist(), ends[odd].tolist()):
        head = data[lo:hi].decode("utf-8").lstrip()
        if head and head[0] != "#":
            is_row[i] = True
        elif head:
            comments += 1
    tabs_before_end = np.searchsorted(np.flatnonzero(buf == 9), ends)
    if (np.diff(tabs_before_end, prepend=0)[is_row] != 2).any():
        return None
    if not is_row.all():
        data = buf[np.repeat(is_row, np.diff(starts, append=len(data)))].tobytes()
    m = int(is_row.sum())
    fields = data.decode("utf-8").replace("\n", "\t").split("\t")
    src, dst, time = fields[0:3 * m:3], fields[1::3], fields[2::3]
    del fields
    name_of = dict.fromkeys(src)
    name_of.update(dict.fromkeys(dst))
    names: dict = {}
    for raw in name_of:
        name = raw.strip()
        if not name:
            return None
        name_of[raw] = names.setdefault(name, len(names))
    time_of = dict.fromkeys(time)
    times: dict = {}
    for raw in time_of:
        try:
            value = int(raw)  # int() ignores surrounding whitespace
        except ValueError:
            return None
        time_of[raw] = times.setdefault(value, len(times))
    return EdgeTable(
        list(names),
        np.fromiter(map(name_of.__getitem__, src), dtype=np.int64, count=m),
        np.fromiter(map(name_of.__getitem__, dst), dtype=np.int64, count=m),
        list(times),
        np.fromiter(map(time_of.__getitem__, time), dtype=np.int64, count=m),
        len(ends),
        comments,
    )


def _scan_lines(path) -> tuple[list[tuple[str, str, int]], int, int]:
    """``read_tsv`` one line at a time: the rows as (source, target, time)
    tuples, the number of lines read and the number of comment lines.

    ``read_tsv`` calls it to report a file's first fault; tests hold the
    bulk pass to it.  The file is decoded as it is read, in blocks of 8 KiB,
    which sets the precedence between a bad byte and a bad row.
    """
    rows = []
    comments = 0
    line_no = 0
    with open(path, "r", encoding="utf-8") as fh:
        try:
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
        except UnicodeDecodeError:
            raise ParseError("not UTF-8 text", _first_undecodable_line(path)) from None
    return rows, line_no, comments


def _first_undecodable_line(path) -> int | None:
    # text-mode reads decode ahead in chunks, so find the line again byte-wise
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return line_no
    return None
