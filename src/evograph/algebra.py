"""Linear-algebra view of evolving-graph traversal.

Stacking the slice adjacency matrices on a block diagonal and adding, for
every ordered pair of times, a diagonal 0/1 block that marks nodes active at
both times yields a block upper-triangular operator over temporal nodes.
Repeated transpose products with that operator sweep out exactly the BFS
frontiers, and the entries count temporal paths.

The operator is never materialized for products: each block matvec runs one
sparse CSC matvec per slice plus a masked running sum for the time-jump
blocks, which costs O(static edges + nodes * times).  ``dense`` and the
Matrix Market export build the explicit matrix for inspection at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.io
import scipy.sparse as sp

from .core import EvolvingGraph, TemporalNode, TemporalNodeLike, _as_pair
from .errors import (
    PathCountOverflowError,
    ShapeError,
    TimeOrderError,
    TooLargeError,
)
from .traversal import ReachedMap

_INT64_MAX = np.iinfo(np.int64).max


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
    return [_build_slice(g, t) for t in range(g.num_times)]


def _build_slice(g: EvolvingGraph, t: int) -> SliceMatrix:
    n = g.num_nodes
    rows, cols = [], []
    for u, nbrs in g._out[t].items():
        rows.extend([u] * len(nbrs))
        cols.extend(nbrs)
    mat = sp.csc_matrix(
        (np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(n, n)
    )
    return SliceMatrix(t, g.time_label(t), mat)


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
        return cls(g._keys, g._labels, blocks)

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

    def matvec(self, bv: BlockVector) -> BlockVector:
        """Transpose product: block t of the result is (slice t)^T b_t plus
        the masked sum of all earlier blocks."""
        self._check(bv)
        return BlockVector(bv.keys, bv.labels, self._matvec_blocks(bv.blocks))

    # -- explicit forms ------------------------------------------------

    def active_order(self) -> tuple[TemporalNode, ...]:
        return tuple(self.graph.active_nodes())

    def _entries(self, restricted: bool):
        """Yield (row temporal node, col temporal node) for every 1-entry."""
        g = self.graph
        for t in range(g.num_times):
            lab = g.time_label(t)
            for u, nbrs in g._out[t].items():
                uk = g.node_key(u)
                for v in nbrs:
                    yield TemporalNode(uk, lab), TemporalNode(g.node_key(v), lab)
        for v in g.nodes:
            if restricted:
                labs = g.active_time_labels(v)
            else:
                labs = [lab for lab in g.time_labels if g.is_active(v, lab)]
            for s, t in combinations(labs, 2):
                yield TemporalNode(v, s), TemporalNode(v, t)

    def to_coo(self, restricted: bool = True) -> sp.coo_matrix:
        g = self.graph
        if restricted:
            order = self.active_order()
            index = {tn: i for i, tn in enumerate(order)}
            dim = len(order)
        else:
            index = {
                TemporalNode(k, lab): t * g.num_nodes + i
                for t, lab in enumerate(g.time_labels)
                for i, k in enumerate(g.nodes)
            }
            dim = g.num_nodes * g.num_times
        rows, cols = [], []
        for a, b in self._entries(restricted):
            rows.append(index[a])
            cols.append(index[b])
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
    mask = np.zeros(g.num_nodes, dtype=np.int64)
    ids = sorted(g._active[t])
    if ids:
        mask[ids] = 1
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
    """Traversal by repeated block matvec.

    Start from the indicator of the root; after each product, zero every
    already-visited entry and record the surviving nonzeros at the current
    hop count.  Accepts a graph or a prebuilt BlockMatrix.  The intermediate
    vector is clamped to 0/1 between products: only the nonzero pattern
    matters here, and the clamp keeps dense cyclic inputs from overflowing.

    Raises InactiveRootError for an inactive or unknown root.
    """
    op = g if isinstance(g, BlockMatrix) else BlockMatrix(g)
    graph = op.graph
    root_tn = TemporalNode(*_as_pair(root))
    rt, rid = graph.require_active(root_tn)

    blocks = [np.zeros(graph.num_nodes, dtype=np.int64) for _ in range(graph.num_times)]
    blocks[rt][rid] = 1
    visited = [np.zeros(graph.num_nodes, dtype=bool) for _ in range(graph.num_times)]
    visited[rt][rid] = True
    reached = {(rt, rid): 0}

    bound = op.num_active + 1
    k = 0
    while any(blk.any() for blk in blocks):
        k += 1
        if k > bound:
            raise RuntimeError(
                "block traversal exceeded the active-node iteration bound")
        blocks = op._matvec_blocks(blocks)
        for t, blk in enumerate(blocks):
            np.minimum(blk, 1, out=blk)
            blk[visited[t]] = 0
            for v in np.flatnonzero(blk):
                reached[(t, int(v))] = k
                visited[t][v] = True

    keys = graph._keys
    labels = graph._labels
    entries = {
        TemporalNode(keys[v], labels[t]): d
        for (t, v), d in sorted(reached.items(), key=lambda kv: (kv[1], kv[0]))
    }
    return ReachedMap(root_tn, entries, iterations=k)


def count_temporal_paths(
    g, src: TemporalNodeLike, dst: TemporalNodeLike, hops: int
) -> int:
    """Number of temporal paths from src to dst with exactly ``hops`` steps.

    Computed as an entry of the hops-fold transpose product applied to the
    indicator of src.  Counts are exact 64-bit integers; an iteration that
    could wrap raises PathCountOverflowError.  Inactive or unknown endpoints
    have no paths at all.
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
    for _ in range(hops):
        if not any(blk.any() for blk in blocks):
            return 0  # every longer path count is zero too
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
    op = g if isinstance(g, BlockMatrix) else BlockMatrix(g)
    scipy.io.mmwrite(fileobj, op.to_coo(restricted))


def nilpotency_index(g: EvolvingGraph) -> int | None:
    """Smallest k for which the k-fold product over active nodes vanishes.

    Exists exactly when every slice digraph is acyclic (an undirected graph
    with any edge has a two-step cycle and never qualifies); the index is
    then one more than the longest temporal path, and never exceeds the
    number of active temporal nodes plus one.  Returns None otherwise.
    """
    topo: list[list[int] | None] = []
    for t in range(g.num_times):
        order = _topo_order(g._out[t], g._active[t])
        if order is None:
            return None
        topo.append(order)

    # longest outgoing path per active temporal node, times descending
    longest: dict[tuple[int, int], int] = {}
    best_later: dict[int, int] = {}
    for t in range(g.num_times - 1, -1, -1):
        out = g._out[t]
        for v in reversed(topo[t]):
            best = 0
            for u in out.get(v, ()):
                cand = 1 + longest[(t, u)]
                if cand > best:
                    best = cand
            if v in best_later:
                cand = 1 + best_later[v]
                if cand > best:
                    best = cand
            longest[(t, v)] = best
        for v in topo[t]:
            cur = longest[(t, v)]
            if v not in best_later or cur > best_later[v]:
                best_later[v] = cur

    index = 1 + max(longest.values(), default=0)
    if index > g.num_active() + 1:
        raise RuntimeError("nilpotency index exceeds the active-node count plus one")
    return index


def _topo_order(adj: dict, active: frozenset) -> list[int] | None:
    """Kahn's algorithm over one slice; None when the slice has a cycle."""
    indeg = {v: 0 for v in active}
    for u, nbrs in adj.items():
        for v in nbrs:
            indeg[v] += 1
    ready = sorted(v for v, d in indeg.items() if d == 0)
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for u in adj.get(v, ()):
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    if len(order) < len(indeg):
        return None
    return order


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
    mats = [_build_slice(g, t).matrix.toarray() for t in range(m)]
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
