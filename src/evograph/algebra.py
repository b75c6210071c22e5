"""Linear-algebra view of evolving-graph traversal.

Stacking the slice adjacency matrices on a block diagonal and adding, for
every ordered pair of times, a diagonal 0/1 block that marks nodes active at
both times yields a block upper-triangular operator over temporal nodes.
Repeated transpose products with that operator sweep out exactly the BFS
frontiers, and the entries count temporal paths.

The operator is never materialized for products: each block matvec runs one
sparse CSC matvec per slice plus a masked running sum for the time-jump
blocks, which costs O(static edges + nodes * times).  Path counts use that
exact int64 product.  Reachability only needs the nonzero pattern, so
``algebraic_bfs_many`` runs a batch of roots as the columns of one 0/1 int32
matrix: a level is one SpMM with the block diagonal of the transposed slices,
a masked running OR for the time jumps and a complement mask for the visited
cells, O(static edges + nodes * times) per root column.  ``algebraic_bfs`` is
a batch of one.  ``dense`` and the Matrix Market export build the explicit
matrix for inspection at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .core import EvolvingGraph, TemporalNode, TemporalNodeLike, _as_pair
from .errors import (
    PathCountOverflowError,
    ShapeError,
    TimeOrderError,
    TooLargeError,
)
from .traversal import ReachedMap

_INT64_MAX = np.iinfo(np.int64).max

# cap on cells x roots in one batch of ``algebraic_bfs_many``: the frontier,
# the product and the distance matrix of a batch each hold that many entries
_BATCH_CELLS = 1 << 20

# ``count_temporal_paths`` raises TooLargeError rather than pass this many
# units of work (see ``path_count_hop_cost``).  On a 2-core VM a hop took
# 3.4-4.5 ns per block cell, up to 1 ns per edge, 4.2-4.4 us per stamp and
# 2.4 us more for the hop itself, so a stamp costs 1024 units, a hop one
# stamp more, and 10**8 units are about half a second of products: a cyclic
# graph asked for 10**9 hops fails at once
MAX_PATH_COUNT_WORK = 10**8
PATH_COUNT_STAMP_COST = 1024


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
    """Block upper-triangular temporal adjacency of a graph.

    Holds the CSC slice matrices and the per-time activity masks that define
    the time-jump blocks implicitly.  ``matvec`` computes the transpose
    product without materializing anything; ``dense`` builds the explicit
    matrix, either restricted to active temporal nodes or over the full
    node-by-time space.
    """

    def __init__(self, g: EvolvingGraph):
        self.graph = g
        self.slices = slice_matrices(g)
        self._t_csr = [s.matrix.T.tocsr() for s in self.slices]
        self.masks = [_active_mask(g, t) for t in range(g.num_times)]
        self.num_active = g.num_active()
        # worst-case fan-in of one output entry: slice in-degree plus one
        # time-jump source per earlier active time
        indeg = max(
            (int(np.diff(s.matrix.indptr).max(initial=0)) for s in self.slices),
            default=0,
        )
        self._amplification = max(indeg + max(g.num_times - 1, 0), 1)

    def _check(self, bv: BlockVector):
        g = self.graph
        if bv.num_times != g.num_times or bv.num_nodes != g.num_nodes:
            raise ShapeError(
                f"block vector is {bv.num_times}x{bv.num_nodes}, "
                f"graph needs {g.num_times}x{g.num_nodes}"
            )

    def _matvec_blocks(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        hi = max(int(blk.max(initial=0)) for blk in blocks)
        if hi > _INT64_MAX // self._amplification:
            raise PathCountOverflowError(
                "path counts would exceed the 64-bit integer range"
            )
        out = []
        carry = np.zeros(len(blocks[0]) if blocks else 0, dtype=np.int64)
        for t, blk in enumerate(blocks):
            res = self._t_csr[t] @ blk
            res += carry * self.masks[t]
            out.append(res)
            carry = carry + blk * self.masks[t]
        return out

    @cached_property
    def _slices_t(self) -> sp.csr_matrix:
        """The transposed slices on one block diagonal over the (time, node)
        cells, int32 to match the 0/1 frontier it multiplies."""
        import scipy.sparse as sp

        return sp.block_diag(self._t_csr, format="csr", dtype=np.int32)

    @cached_property
    def _mask_cols(self) -> np.ndarray:
        return np.stack(self.masks).astype(bool)[:, :, None]

    def _spread(self, front: np.ndarray) -> np.ndarray:
        """Nonzero pattern of the transpose product of many 0/1 columns.

        ``front`` is int32 of shape (times, nodes, columns) with its support
        on active cells.  The same-slice blocks are one SpMM with
        ``_slices_t``; the time-jump blocks are the running OR of the earlier
        stamps, masked by activity at each stamp: the carry of
        ``_matvec_blocks``.  Returns a bool array of the same shape.
        """
        nt, n, w = front.shape
        out = (self._slices_t @ front.reshape(nt * n, w)).reshape(nt, n, w) > 0
        carry = np.zeros((n, w), dtype=bool)
        for t in range(1, nt):
            np.logical_or(carry, front[t - 1], out=carry)
            out[t] |= carry & self._mask_cols[t]
        return out

    def matvec(self, bv: BlockVector) -> BlockVector:
        """Transpose product: block t of the result is (slice t)^T b_t plus
        the masked sum of all earlier blocks."""
        self._check(bv)
        return BlockVector(bv.keys, bv.labels, self._matvec_blocks(bv.blocks))

    # -- explicit forms ------------------------------------------------

    def active_order(self) -> tuple[TemporalNode, ...]:
        return tuple(self.graph.active_nodes())

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
    """Roots per batch of :func:`algebraic_bfs_many` on ``g``: as many as
    fit ``_BATCH_CELLS`` cells x roots, and at least one."""
    return max(_BATCH_CELLS // max(g.num_nodes * g.num_times, 1), 1)


def algebraic_bfs_many(g, roots) -> list[ReachedMap]:
    """Traversals from many roots at once, one masked product per level.

    The frontiers of a batch of roots are the columns of one 0/1 matrix over
    the (time, node) cells.  A level multiplies that matrix by the operator
    (``BlockMatrix._spread``), clears every visited cell with a complement
    mask and writes the level number into an int32 distance matrix; the
    batch stops when no column found anything new.  A batch holds
    ``batch_width(g)`` roots.  Accepts a graph or a
    prebuilt BlockMatrix.  Returns one ReachedMap per root, in order, equal
    to ``bfs`` in entries, entry order and iterations; it has no leaves.

    Raises InactiveRootError for an inactive or unknown root, before any
    product.
    """
    op = g if isinstance(g, BlockMatrix) else BlockMatrix(g)
    graph = op.graph
    root_tns = [TemporalNode(*_as_pair(r)) for r in roots]
    n = graph.num_nodes
    starts = [t * n + v for t, v in map(graph.require_active, root_tns)]
    width = batch_width(graph)
    out = []
    for lo in range(0, len(starts), width):
        out.extend(_bfs_batch(op, root_tns[lo:lo + width], starts[lo:lo + width]))
    return out


def _bfs_batch(op: BlockMatrix, root_tns, starts) -> list[ReachedMap]:
    g = op.graph
    nt, n, w = g.num_times, g.num_nodes, len(starts)
    cols = np.arange(w)
    dist = np.full((nt * n, w), -1, dtype=np.int32)
    dist[starts, cols] = 0
    front = np.zeros((nt, n, w), dtype=np.int32)
    front.reshape(nt * n, w)[starts, cols] = 1

    bound = op.num_active + 1
    k = 0
    while True:
        k += 1
        if k > bound:
            raise RuntimeError(
                "block traversal exceeded the active-node iteration bound")
        new = op._spread(front).reshape(nt * n, w)
        new &= dist < 0
        if not new.any():
            break
        dist[new] = k
        front = new.reshape(nt, n, w).astype(np.int32)

    # reached cells of every root in (root, distance, cell) order; a cell
    # is time * n + node, so this is the (distance, time, node) entry order.
    # Reached cells are active, and active ids follow the cell order.
    root_of, cell = np.nonzero(dist.T >= 0)
    d = dist[cell, root_of]
    order = np.lexsort((cell, d, root_of))
    lay = g.layout
    aid = np.searchsorted(lay.time * n + lay.node, cell[order]).tolist()
    d = d[order].tolist()
    ends = np.cumsum(np.bincount(root_of, minlength=w)).tolist()
    out = []
    lo = 0
    for root_tn, hi in zip(root_tns, ends):
        out.append(ReachedMap._from_ids(
            g, root_tn, aid[lo:hi], d[lo:hi], d[hi - 1] + 1, ()))
        lo = hi
    return out


def path_count_hop_cost(op: BlockMatrix) -> int:
    """Units of work in one product of ``count_temporal_paths``: one per
    cell of the time x node blocks, which a hop passes over a few times
    whatever their activity, one per same-slice edge, and
    ``PATH_COUNT_STAMP_COST`` per time stamp, and once more per hop, for the
    array calls made at each."""
    graph = op.graph
    return ((graph.num_nodes + PATH_COUNT_STAMP_COST) * graph.num_times
            + len(graph.layout.indices) + PATH_COUNT_STAMP_COST)


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
    s_node, s_lab = _as_pair(src)
    d_node, d_lab = _as_pair(dst)
    if not graph.is_active(s_node, s_lab) or not graph.is_active(d_node, d_lab):
        return 0
    blocks = [np.zeros(graph.num_nodes, dtype=np.int64) for _ in range(graph.num_times)]
    blocks[graph.time_index(s_lab)][graph.node_id(s_node)] = 1
    hop_cost = path_count_hop_cost(op)
    for done in range(hops):
        if not any(blk.any() for blk in blocks):
            return 0  # every longer path count is zero too
        if (done + 1) * hop_cost > MAX_PATH_COUNT_WORK:
            raise TooLargeError(
                f"{hops} hops at {hop_cost} units of work each exceed the path-count "
                f"budget of {MAX_PATH_COUNT_WORK} units (at most "
                f"{MAX_PATH_COUNT_WORK // hop_cost} hops on this graph)")
        blocks = op._matvec_blocks(blocks)
    return int(blocks[graph.time_index(d_lab)][graph.node_id(d_node)])


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
    order = op.active_order()
    dense = op.dense(restricted=True)
    x = np.array(
        [bv.blocks[g.time_index(tn.time)][g.node_id(tn.node)] for tn in order],
        dtype=np.int64,
    )
    y = dense.T @ x
    out = BlockVector.zeros(g)
    for val, tn in zip(y, order):
        out.blocks[g.time_index(tn.time)][g.node_id(tn.node)] = val
    return out


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
    n = g.num_nodes
    true = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        key = g.node_key(i)
        if not g.is_active(key, first_lab):
            continue
        blocks = [np.zeros(n, dtype=np.int64) for _ in range(g.num_times)]
        blocks[0][i] = 1
        if last == 0:
            true[i, i] += 1  # the single-node path
        for _ in range(max_hops):
            blocks = op._matvec_blocks(blocks)
            true[i, :] += blocks[last]
    rows = []
    for i in range(n):
        for j in range(n):
            if naive[i, j] or true[i, j]:
                rows.append((g.node_key(i), g.node_key(j), int(naive[i, j]), int(true[i, j])))
    return NaiveSumReport(first_lab, last_lab, rows, notes)
