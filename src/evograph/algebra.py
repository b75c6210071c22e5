"""Linear-algebra view of evolving-graph traversal.

Over the active temporal nodes, the paper's operator has a 1 at (a, b) when
b follows a by one same-slice step or by one time jump, the same node at a
later active stamp.  A static BFS on that matrix is the temporal BFS, and
the entries of its k-th transpose power count the temporal paths of k hops.

``BlockMatrix`` holds that operator over active ids in node-major order:
position p stands for the active id ``layout.node_aids[p]``, so the active
stamps of each node form one contiguous run, in time order.  A transpose
product is one sparse product with the same-slice steps plus an exclusive
segmented scan over the runs for the time jumps: position p receives the sum
of the entries before it in its run.  No inactive (time, node) cell is
stored, and nothing loops over stamps.

The operator serves two semirings.  Path counts (``count_temporal_paths``,
``naive_sum_report``) use the int64 product, whose scan is one cumsum minus
each run's base: O(active ids + steps) per hop.  Reachability
(``algebraic_distances``) runs a batch of roots as the columns of one bool
matrix: the scan is a running OR of log2(longest run) shifted ORs, and a
level masks the product with the unvisited set, so a batch costs
O(levels x (steps + active ids x log2 longest run) x batch width).
``algebraic_bfs_many`` and ``algebraic_bfs`` decode its rows.  ``dense``
and the Matrix Market export build the explicit matrix for inspection at
small scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .core import EvolvingGraph, TemporalNode, TemporalNodeLike, _as_pair
from .errors import (
    InactiveRootError,
    PathCountOverflowError,
    ShapeError,
    TimeOrderError,
    TooLargeError,
)
from .traversal import ReachedMap

_INT64_MAX = np.iinfo(np.int64).max

# cap on active ids x roots in one batch of ``algebraic_distances``: the
# frontier, the product and the distance matrix of a batch each hold that
# many entries
_BATCH_CELLS = 1 << 20

# ``count_temporal_paths`` raises TooLargeError rather than pass this many
# units of work (see ``path_count_hop_cost``): an active id or a step costs
# one unit, and a hop PATH_COUNT_HOP_COST more for its array calls
MAX_PATH_COUNT_WORK = 10**8
PATH_COUNT_HOP_COST = 2048


@dataclass(frozen=True)
class SliceMatrix:
    """0/1 adjacency of one slice over the full node set, CSC layout.

    Entry (i, j) is 1 when the slice has an edge from node i to node j; for
    undirected graphs the matrix is symmetric.  Column j therefore lists the
    in-edges of j, which is the access pattern of the transpose products.
    """

    time_index: int
    time_label: int
    matrix: sp.csc_matrix


def slice_matrices(g: EvolvingGraph) -> list[SliceMatrix]:
    # scipy is imported where it is used, so importing evograph (and every
    # query that needs no matrix) does not load scipy.sparse
    import scipy.sparse as sp

    lay = g.layout
    n = g.num_nodes
    src, dst = lay.steps()
    rows, cols = lay.node[src], lay.node[dst]
    # steps run in (time, source) order, so each slice's steps are contiguous
    bounds = lay.indptr[lay.time_ptr].tolist()
    out = []
    for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        mat = sp.csc_matrix(
            (np.ones(hi - lo, dtype=np.int64), (rows[lo:hi], cols[lo:hi])), shape=(n, n)
        )
        out.append(SliceMatrix(t, g.time_label(t), mat))
    return out


class BlockVector:
    """One integer vector over the node set per time stamp."""

    __slots__ = ("keys", "labels", "blocks")

    def __init__(self, keys, labels, blocks):
        self.keys = keys
        self.labels = labels
        self.blocks = blocks

    @classmethod
    def zeros(cls, g: EvolvingGraph) -> "BlockVector":
        blocks = [np.zeros(g.num_nodes, dtype=np.int64) for _ in range(g.num_times)]
        return cls(g.nodes, g.time_labels, blocks)

    @classmethod
    def unit(cls, g: EvolvingGraph, tn: TemporalNodeLike) -> "BlockVector":
        """Indicator of one temporal node.  The node and time must exist."""
        node, lab = _as_pair(tn)
        bv = cls.zeros(g)
        bv.blocks[g.time_index(lab)][g.node_id(node)] = 1
        return bv

    @property
    def num_times(self):
        return len(self.blocks)

    @property
    def num_nodes(self):
        return len(self.keys)

    def is_zero(self) -> bool:
        return all(not blk.any() for blk in self.blocks)

    def max_entry(self) -> int:
        return int(max(blk.max(initial=0) for blk in self.blocks))

    def nonzeros(self) -> dict:
        """TemporalNode -> value for every nonzero entry, (time, node) sorted."""
        out = {}
        for t, blk in enumerate(self.blocks):
            lab = self.labels[t]
            for v in np.flatnonzero(blk):
                out[TemporalNode(self.keys[v], lab)] = int(blk[v])
        return out

    def copy(self) -> "BlockVector":
        return BlockVector(self.keys, self.labels, [blk.copy() for blk in self.blocks])

    def __eq__(self, other):
        if not isinstance(other, BlockVector):
            return NotImplemented
        return (
            self.keys == other.keys
            and self.labels == other.labels
            and all((a == b).all() for a, b in zip(self.blocks, other.blocks))
        )

    def __repr__(self):
        return f"<BlockVector {self.num_times}x{self.num_nodes}, nonzeros={self.nonzeros()}>"


class BlockMatrix:
    """The temporal adjacency of a graph over its active ids.

    Entries live at positions, not active ids: position p is
    ``layout.node_aids[p]``, so each node's active stamps are one run of
    consecutive positions.  The same-slice steps are a CSC over positions
    whose column p lists the targets of p, so a product with it is the
    transpose product; the time jumps are a scan over the runs (see
    ``_reach`` and ``_count``).  ``matvec`` applies the operator to a
    BlockVector; ``dense`` and ``to_coo`` build the explicit matrix, either
    over active ids or over the full node-by-time space.
    """

    def __init__(self, g: EvolvingGraph):
        lay = g.layout
        a = len(lay.node)
        self.graph = g
        self.num_active = a
        self.num_steps = len(lay.indices)
        # column p holds the CSR row of active id node_aids[p], moved to positions
        deg = np.diff(lay.indptr)[lay.node_aids]
        self._indptr = np.zeros(a + 1, dtype=np.int64)
        np.cumsum(deg, out=self._indptr[1:])
        take = np.arange(self.num_steps) + np.repeat(
            lay.indptr[lay.node_aids] - self._indptr[:-1], deg)
        self._targets = lay.pos[lay.indices[take]]
        # first position of the run that holds each position
        self._run_start = lay.node_ptr[lay.node[lay.node_aids]]
        self._longest_run = int(np.diff(lay.node_ptr).max(initial=0))

    def _steps(self, dtype) -> sp.csc_matrix:
        import scipy.sparse as sp

        a = self.num_active
        return sp.csc_matrix((np.ones(self.num_steps, dtype=dtype), self._targets,
                              self._indptr), shape=(a, a))

    @cached_property
    def _or_steps(self) -> sp.csc_matrix:
        return self._steps(bool)

    @cached_property
    def _sum_steps(self) -> sp.csc_matrix:
        return self._steps(np.int64)

    @cached_property
    def _shifts(self) -> list[tuple[int, np.ndarray]]:
        """(d, same) per shifted OR of the reach scan: ``same[i]`` is True
        when positions i and i + d hold stamps of one node.  The first shift
        makes the scan exclusive; each later one doubles the span the scan
        covers, until it covers the longest run."""
        p = np.arange(self.num_active)
        shifts = [1] if self._longest_run > 1 else []
        d = 1
        while d < self._longest_run - 1:
            shifts.append(d)
            d *= 2
        return [(d, (self._run_start[d:] <= p[:-d])[:, None]) for d in shifts]

    @cached_property
    def _amplification(self) -> int:
        """Worst-case fan-in of one output entry: its step in-degree plus one
        time jump from each earlier stamp of its node."""
        indeg = int(np.bincount(self._targets).max(initial=0))
        return max(indeg + self._longest_run - 1, 1)

    def _reach(self, front: np.ndarray) -> np.ndarray:
        """Nonzero pattern of the transpose product of a bool matrix over
        positions x columns: the steps are one bool SpMM, whose sums are
        ORs, and the time jumps a running OR over each node's earlier
        stamps."""
        out = self._or_steps @ front
        shifts = self._shifts
        if shifts:
            jump = np.zeros_like(front)
            (_, same), *doubling = shifts
            np.logical_and(front[:-1], same, out=jump[1:])
            for d, same in doubling:
                jump[d:] |= jump[:-d] & same
            out |= jump
        return out

    def _count(self, x: np.ndarray) -> np.ndarray:
        """Transpose product of an int64 vector over positions: the steps
        are one sparse product, and the time jumps the sum of each node's
        earlier stamps, read off one cumsum.  Raises PathCountOverflowError
        when an entry could pass the int64 range."""
        if int(x.max(initial=0)) > _INT64_MAX // self._amplification:
            raise PathCountOverflowError(
                "path counts would exceed the 64-bit integer range"
            )
        out = self._sum_steps @ x
        # exclusive prefix sums; they may wrap, but their difference within
        # one run is exact, because the guard above keeps it in range
        before = np.cumsum(x)
        before -= x
        out += before
        out -= before[self._run_start]
        return out

    def _check(self, bv: BlockVector):
        g = self.graph
        if bv.num_times != g.num_times or bv.num_nodes != g.num_nodes:
            raise ShapeError(
                f"block vector is {bv.num_times}x{bv.num_nodes}, "
                f"graph needs {g.num_times}x{g.num_nodes}"
            )

    def matvec(self, bv: BlockVector) -> BlockVector:
        """Transpose product: block t of the result is (slice t)^T b_t plus
        the masked sum of all earlier blocks.  Entries on inactive cells
        are dropped."""
        self._check(bv)
        lay = self.graph.layout
        cells = lay.time[lay.node_aids], lay.node[lay.node_aids]
        out = np.zeros((bv.num_times, bv.num_nodes), dtype=np.int64)
        out[cells] = self._count(np.stack(bv.blocks).astype(np.int64)[cells])
        return BlockVector(bv.keys, bv.labels, list(out))

    # -- explicit forms ------------------------------------------------

    def to_coo(self, restricted: bool = True) -> sp.coo_matrix:
        """Every 1-entry: the same-slice steps in (time, source, target)
        order, then the time jumps in (node, earlier, later) order.  Rows
        and columns are active ids, or (time, node) cells of the full
        space when ``restricted`` is False."""
        import scipy.sparse as sp

        g = self.graph
        lay = g.layout
        steps, jumps = lay.steps(), lay.jumps()
        rows = np.concatenate((steps[0], jumps[0]))
        cols = np.concatenate((steps[1], jumps[1]))
        dim = g.num_active()
        if not restricted:
            cell = lay.time * g.num_nodes + lay.node
            rows, cols = cell[rows], cell[cols]
            dim = g.num_nodes * g.num_times
        data = np.ones(len(rows), dtype=np.int64)
        return sp.coo_matrix((data, (rows, cols)), shape=(dim, dim))

    def dense(self, restricted: bool = True) -> np.ndarray:
        """Explicit 0/1 matrix, int64.  Guarded: at most 5000 rows."""
        coo = self.to_coo(restricted)
        if coo.shape[0] > 5000:
            raise TooLargeError(
                f"refusing to materialize a {coo.shape[0]}x{coo.shape[0]} dense matrix"
            )
        return coo.toarray()


def _active_mask(g: EvolvingGraph, t: int) -> np.ndarray:
    lay = g.layout
    mask = np.zeros(g.num_nodes, dtype=np.int64)
    mask[lay.node[lay.time_ptr[t]:lay.time_ptr[t + 1]]] = 1
    return mask


def _check_vector(g: EvolvingGraph, b) -> np.ndarray:
    b = np.asarray(b)
    if b.shape != (g.num_nodes,):
        raise ShapeError(f"vector has shape {b.shape}, graph has {g.num_nodes} nodes")
    return b


def causal_propagate(g: EvolvingGraph, b, s_label: int, t_label: int) -> np.ndarray:
    """Carry a node vector from time s to a strictly later time t.

    Componentwise: an entry survives only when its node is active at both
    times.  Raises TimeOrderError when s is not strictly earlier than t.
    """
    b = _check_vector(g, b)
    s = g.time_index(s_label)
    t = g.time_index(t_label)
    if s >= t:
        raise TimeOrderError(f"cannot propagate from time {s_label} to {t_label}")
    return b * _active_mask(g, s) * _active_mask(g, t)


def odot(g: EvolvingGraph, t_label: int, b) -> np.ndarray:
    """Activity mask at one time: keep b[v] iff v is active at t."""
    b = _check_vector(g, b)
    return b * _active_mask(g, g.time_index(t_label))


def algebraic_bfs(g, root: TemporalNodeLike) -> ReachedMap:
    """Traversal by repeated block products from one root: a batch of one
    for :func:`algebraic_bfs_many`.  Accepts a graph or a prebuilt
    BlockMatrix.

    Raises InactiveRootError for an inactive or unknown root.
    """
    return algebraic_bfs_many(g, [root])[0]


def batch_width(g: EvolvingGraph) -> int:
    """Roots per batch of :func:`algebraic_distances` on ``g``: as many as
    fit ``_BATCH_CELLS`` active ids x roots, and at least one."""
    return max(_BATCH_CELLS // max(g.num_active(), 1), 1)


def algebraic_distances(g, root_ids) -> np.ndarray:
    """Hop distances from root active ids by masked block products.

    Returns an int32 matrix with one row per root and one column per active
    id, -1 where the root does not reach, as ``flatten.static_distances``
    does.  The frontiers of a batch of ``batch_width`` roots are the columns
    of one bool matrix; a level is one product (``BlockMatrix._reach``)
    masked by the cells not yet seen, and a batch stops when no column found
    anything new.  Accepts a graph or a prebuilt BlockMatrix.

    Raises InactiveRootError for an id that is not an active id of the
    graph, before any product.
    """
    op = g if isinstance(g, BlockMatrix) else BlockMatrix(g)
    roots = np.asarray(root_ids, dtype=np.int64)
    a = op.num_active
    if len(roots) and not (0 <= roots.min() and roots.max() < a):
        raise InactiveRootError(f"root ids must be active ids, 0 to {a - 1}")
    width = batch_width(op.graph)
    out = np.empty((len(roots), a), dtype=np.int32)
    for lo in range(0, len(roots), width):
        out[lo:lo + width] = _batch_distances(op, roots[lo:lo + width])
    return out


def _batch_distances(op: BlockMatrix, roots: np.ndarray) -> np.ndarray:
    """``algebraic_distances`` of one batch, as a (roots x active ids) view."""
    pos = op.graph.layout.pos
    a = op.num_active
    at, cols = pos[roots], np.arange(len(roots))
    dist = np.full((a, len(roots)), -1, dtype=np.int32)
    dist[at, cols] = 0
    front = np.zeros(dist.shape, dtype=bool)
    front[at, cols] = True
    unseen = ~front
    k = 0
    while True:
        k += 1
        if k > a + 1:
            raise RuntimeError("block traversal exceeded the active-node iteration bound")
        front = op._reach(front)
        front &= unseen
        if not front.any():
            return dist[pos].T
        unseen ^= front
        np.copyto(dist, k, where=front)


def algebraic_bfs_many(g, roots) -> list[ReachedMap]:
    """Traversals from many roots at once: the rows of
    :func:`algebraic_distances`, decoded.  Accepts a graph or a prebuilt
    BlockMatrix.  Returns one ReachedMap per root, in order, equal to
    ``bfs`` in entries, entry order and iterations; it has no leaves.

    Raises InactiveRootError for an inactive or unknown root, before any
    product.
    """
    op = g if isinstance(g, BlockMatrix) else BlockMatrix(g)
    graph = op.graph
    root_tns = [TemporalNode(*_as_pair(r)) for r in roots]
    dist = algebraic_distances(op, [graph.active_id(tn) for tn in root_tns])
    # reached ids of every root in (root, id) order, then stably in
    # (root, distance, id) order: active ids follow (time, node) order, so
    # that is the (distance, time, node) entry order
    root_of, aid = np.nonzero(dist >= 0)
    d = dist[root_of, aid]
    order = np.lexsort((d, root_of))
    aid, d = aid[order].tolist(), d[order].tolist()
    ends = np.cumsum(np.bincount(root_of, minlength=len(root_tns))).tolist()
    out = []
    lo = 0
    for root_tn, hi in zip(root_tns, ends):
        out.append(ReachedMap._from_ids(graph, root_tn, aid[lo:hi], d[lo:hi], d[hi - 1] + 1, ()))
        lo = hi
    return out


def path_count_hop_cost(op: BlockMatrix) -> int:
    """Units of work in one product of ``count_temporal_paths``: one per
    active id and per same-slice step, which a hop touches a few times
    each, and ``PATH_COUNT_HOP_COST`` for the array calls of the hop."""
    return op.num_active + op.num_steps + PATH_COUNT_HOP_COST


def count_temporal_paths(
    g, src: TemporalNodeLike, dst: TemporalNodeLike, hops: int
) -> int:
    """Number of temporal paths from src to dst with exactly ``hops`` steps.

    Computed as an entry of the hops-fold transpose product applied to the
    indicator of src.  Counts are exact 64-bit integers; an iteration that
    could wrap raises PathCountOverflowError.  Inactive or unknown endpoints
    have no paths at all.  The products stop once the vector is zero, so an
    acyclic graph answers 0 for any hop count past its longest path; a hop
    that would take the work past ``MAX_PATH_COUNT_WORK`` raises
    TooLargeError.
    """
    if hops < 0:
        raise ValueError("hops must be nonnegative")
    op = g if isinstance(g, BlockMatrix) else BlockMatrix(g)
    graph = op.graph
    try:
        s, d = graph.active_id(src), graph.active_id(dst)
    except InactiveRootError:
        return 0
    pos = graph.layout.pos
    x = np.zeros(op.num_active, dtype=np.int64)
    x[pos[s]] = 1
    hop_cost = path_count_hop_cost(op)
    for done in range(hops):
        if not x.any():
            return 0  # every longer path count is zero too
        if (done + 1) * hop_cost > MAX_PATH_COUNT_WORK:
            raise TooLargeError(
                f"{hops} hops at {hop_cost} units of work each exceed the path-count "
                f"budget of {MAX_PATH_COUNT_WORK} units (at most "
                f"{MAX_PATH_COUNT_WORK // hop_cost} hops on this graph)")
        x = op._count(x)
    return int(x[pos[d]])


def dense_reference_matvec(g: EvolvingGraph, bv: BlockVector) -> BlockVector:
    """Transpose product via the materialized dense matrix.

    Slow-path cross-check for ``BlockMatrix.matvec``; restricted to graphs
    with at most 5000 active temporal nodes (TooLargeError above that).
    Entries of the input sitting on inactive temporal nodes are annihilated,
    exactly as the implicit product does.
    """
    op = BlockMatrix(g)
    if op.num_active > 5000:
        raise TooLargeError(
            f"{op.num_active} active temporal nodes exceed the dense guard of 5000"
        )
    op._check(bv)
    lay = g.layout
    cells = lay.time, lay.node  # active ids in order
    y = op.dense(restricted=True).T @ np.stack(bv.blocks).astype(np.int64)[cells]
    out = np.zeros((g.num_times, g.num_nodes), dtype=np.int64)
    out[cells] = y
    return BlockVector(bv.keys, bv.labels, list(out))


def write_matrix_market(g, fileobj, restricted: bool = True) -> None:
    """Export the temporal adjacency in Matrix Market coordinate format."""
    import scipy.io

    op = g if isinstance(g, BlockMatrix) else BlockMatrix(g)
    scipy.io.mmwrite(fileobj, op.to_coo(restricted))


def nilpotency_index(g: EvolvingGraph) -> int | None:
    """Smallest k for which the k-fold product over active nodes vanishes.

    Exists exactly when every slice digraph is acyclic (an undirected graph
    with any edge has a two-step cycle and never qualifies); the index is
    then one more than the longest temporal path, and never exceeds the
    number of active temporal nodes plus one.  Returns None otherwise.
    """
    lay = g.layout
    n_active = g.num_active()
    # a longest path only ever jumps to its node's next active stamp
    first, later = lay.node_aids[:-1], lay.node_aids[1:]
    nxt = lay.node[first] == lay.node[later]
    src = np.concatenate((lay.steps()[0], first[nxt]))
    dst = np.concatenate((lay.indices, later[nxt]))
    by_src = np.argsort(src, kind="stable")
    ptr = np.searchsorted(src[by_src], np.arange(n_active + 1)).tolist()
    succ = dst[by_src].tolist()

    # Kahn's algorithm over steps and next-stamp jumps; jumps go forward in
    # time, so a cycle can only sit inside a slice
    indeg = np.bincount(dst, minlength=n_active).tolist()
    order = [a for a in range(n_active) if not indeg[a]]
    for a in order:  # the list grows while it is walked
        for b in succ[ptr[a]:ptr[a + 1]]:
            indeg[b] -= 1
            if not indeg[b]:
                order.append(b)
    if len(order) < n_active:
        return None

    longest = [0] * n_active  # edges on the longest path out of each node
    for a in reversed(order):
        for b in succ[ptr[a]:ptr[a + 1]]:
            if longest[b] >= longest[a]:
                longest[a] = longest[b] + 1
    index = 1 + max(longest, default=0)
    if index > n_active + 1:
        raise RuntimeError("nilpotency index exceeds the active-node count plus one")
    return index


@dataclass
class NaiveSumReport:
    """Comparison of the time-ordered matrix-product sum with true counts."""

    first_label: int
    last_label: int
    rows: list  # (src key, dst key, product-sum count, true count)
    notes: list

    def mismatches(self):
        return [r for r in self.rows if r[2] != r[3]]


def naive_path_sum(g: EvolvingGraph, upto_label: int | None = None) -> np.ndarray:
    """Sum of products of slice matrices over increasing time sequences.

    Every product starts at the first slice and ends at the slice of
    ``upto_label`` (default: the last), with any strictly increasing choice
    of interior slices.  This is the tempting closed form for path counting,
    and it is wrong: it only sees paths that take a same-slice edge at every
    selected time and no time jumps elsewhere, so it undercounts.  Kept as a
    counterexample generator; see ``naive_sum_report``.

    The number of products is 2^(m-2) for m time stamps, so m is capped at
    12 (TooLargeError above).  With a single stamp there are no products with
    distinct start and end; the sum is empty (all zeros).
    """
    last = g.num_times - 1 if upto_label is None else g.time_index(upto_label)
    m = last + 1
    if m > 12:
        raise TooLargeError(f"{m} time stamps exceed the product-sum guard of 12")
    n = g.num_nodes
    if m < 2:
        return np.zeros((n, n), dtype=np.int64)
    mats = [sm.matrix.toarray() for sm in slice_matrices(g)[:m]]
    total = np.zeros((n, n), dtype=np.int64)
    interior = list(range(1, last))
    for r in range(len(interior) + 1):
        for picks in combinations(interior, r):
            prod = mats[0]
            for t in picks:
                prod = prod @ mats[t]
            total += prod @ mats[last]
    return total


def naive_sum_report(g: EvolvingGraph, upto_label: int | None = None) -> NaiveSumReport:
    """Tabulate the product sum against true temporal-path counts.

    True counts run from (i, first time) to (j, end time) over all hop
    lengths; for graphs without a nilpotency index the hop range is capped at
    the active-node count and a note records the truncation.
    """
    last = g.num_times - 1 if upto_label is None else g.time_index(upto_label)
    first_lab = g.time_label(0)
    last_lab = g.time_label(last)
    naive = naive_path_sum(g, last_lab)

    notes = []
    if last == 0:
        notes.append("single time stamp: no multi-time products exist, sum is empty")
    idx = nilpotency_index(g)
    if idx is None:
        max_hops = g.num_active() + 1
        notes.append(
            f"graph has no nilpotency index; true counts truncated at {max_hops} hops"
        )
    else:
        max_hops = idx - 1

    op = BlockMatrix(g)
    lay = g.layout
    n = g.num_nodes
    true = np.zeros((n, n), dtype=np.int64)
    at_last = np.arange(lay.time_ptr[last], lay.time_ptr[last + 1])
    last_nodes, last_pos = lay.node[at_last], lay.pos[at_last]
    # the sources are the active ids at the first stamp
    for a in range(int(lay.time_ptr[1])):
        i = int(lay.node[a])
        x = np.zeros(op.num_active, dtype=np.int64)
        x[lay.pos[a]] = 1
        if last == 0:
            true[i, i] += 1  # the single-node path
        for _ in range(max_hops):
            x = op._count(x)
            true[i, last_nodes] += x[last_pos]
    rows = []
    for i in range(n):
        for j in range(n):
            if naive[i, j] or true[i, j]:
                rows.append((g.node_key(i), g.node_key(j), int(naive[i, j]), int(true[i, j])))
    return NaiveSumReport(first_lab, last_lab, rows, notes)
