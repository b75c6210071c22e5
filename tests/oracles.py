"""Brute-force reference implementations used only by the tests.

Everything here works straight off raw (src, dst, time) triples and the
definitions: activeness by scanning edges, the expanded digraph built edge by
edge, distances via networkx, path counts via exhaustive walk enumeration.
The reference builder at the end is the set-based ``build_graph`` that the
array-built core replaced.  None of it shares code with the package beyond
its record and error types, which is the point.
"""

from __future__ import annotations

import operator
from collections import defaultdict

import networkx as nx
import numpy as np

from evograph import EdgeRecord
from evograph.errors import EmptyGraphError, KeyTypeError


def active_pairs(triples, directed=True):
    """Set of (node, time) incident to an edge with a distinct endpoint."""
    act = set()
    for u, v, t in triples:
        if u != v:
            act.add((u, t))
            act.add((v, t))
    return act


def expansion_adjacency(triples, directed=True):
    """dict (node, time) -> sorted list of successors, per the definitions."""
    act = active_pairs(triples, directed)
    succ = {x: set() for x in act}
    for u, v, t in triples:
        if u == v:
            continue
        succ[(u, t)].add((v, t))
        if not directed:
            succ[(v, t)].add((u, t))
    times_of = defaultdict(list)
    for v, t in act:
        times_of[v].append(t)
    for v, ts in times_of.items():
        ts.sort()
        for i, s in enumerate(ts):
            for t in ts[i + 1:]:
                succ[(v, s)].add((v, t))
    return {x: sorted(s, key=lambda p: (p[1], p[0])) for x, s in succ.items()}


def forward_neighbors(triples, directed, node, time):
    adj = expansion_adjacency(triples, directed)
    return set(adj.get((node, time), ()))


def distances(triples, directed, node, time):
    """Hop distances from (node, time); empty dict for inactive roots."""
    adj = expansion_adjacency(triples, directed)
    if (node, time) not in adj:
        return {}
    g = nx.DiGraph()
    g.add_nodes_from(adj)
    for x, ys in adj.items():
        for y in ys:
            g.add_edge(x, y)
    return dict(nx.single_source_shortest_path_length(g, (node, time)))


def walk_counts(triples, directed, node, time, max_hops):
    """(dst, hops) -> number of temporal paths from (node, time).

    Exhaustive depth-first enumeration; every walk in the expanded digraph is
    one temporal path.
    """
    adj = expansion_adjacency(triples, directed)
    counts = defaultdict(int)
    if (node, time) not in adj:
        return counts

    def rec(x, h):
        counts[(x, h)] += 1
        if h == max_hops:
            return
        for y in adj[x]:
            rec(y, h + 1)

    rec((node, time), 0)
    return counts


def is_temporal_path(triples, directed, seq):
    """Validate a sequence of (node, time) pairs against the definitions."""
    act = active_pairs(triples, directed)
    if any(x not in act for x in seq):
        return False
    edge_set = set()
    for u, v, t in triples:
        if u == v:
            continue
        edge_set.add((u, v, t))
        if not directed:
            edge_set.add((v, u, t))
    for (a, s), (b, t) in zip(seq, seq[1:]):
        if a == b and t > s:
            continue
        if s == t and a != b and (a, b, s) in edge_set:
            continue
        return False
    return True


def nilpotency_index(triples, directed):
    """Dense powers of the active-restricted adjacency until they vanish."""
    adj = expansion_adjacency(triples, directed)
    order = sorted(adj, key=lambda p: (p[1], p[0]))
    if not order:
        return 1
    idx = {x: i for i, x in enumerate(order)}
    n = len(order)
    mat = np.zeros((n, n), dtype=object)  # exact ints, no overflow
    for x, ys in adj.items():
        for y in ys:
            mat[idx[x], idx[y]] = 1
    power = mat
    for k in range(1, n + 2):
        if not power.any():
            return k
        power = power @ mat
    return None


def bfs_with_leaves(adj, root):
    """Level BFS with (time, node)-sorted expansion; returns (dist, leaves).

    A leaf is a node that discovered nothing new on its turn.
    """
    dist = {root: 0}
    leaves = set()
    frontier = [root]
    k = 0
    while frontier:
        k += 1
        nxt = []
        for x in frontier:
            new = False
            for y in adj[x]:
                if y not in dist:
                    dist[y] = k
                    nxt.append(y)
                    new = True
            if not new:
                leaves.add(x)
        nxt.sort(key=lambda p: (p[1], p[0]))
        frontier = nxt
    return dist, leaves


# -- citation semantics ------------------------------------------------------


def influence_authors(triples, author, year):
    """(author, year) -> distance for everyone the root's work reaches.

    Influence runs against the citation arrows, so the search uses the
    transposed triples.  The root author's own temporal nodes are dropped.
    """
    rev = [(v, u, t) for u, v, t in triples]
    dist = distances(rev, True, author, year)
    return {(a, y): d for (a, y), d in dist.items() if a != author}


def influencer_authors(triples, author, year):
    """(author, year) -> distance for everyone whose work reaches the root.

    Brute force: try every active temporal pair as a source.
    """
    rev = [(v, u, t) for u, v, t in triples]
    out = {}
    for a, y in active_pairs(rev, True):
        if a == author:
            continue
        d = distances(rev, True, a, y).get((author, year))
        if d is not None:
            out[(a, y)] = d
    return out


def community_authors(triples, author, year):
    """Union of influence over the leaves of the backward traversal tree."""
    back = [(u, v, -t) for u, v, t in triples]  # own citations, time reversed
    adj = expansion_adjacency(back, True)
    _, leaves = bfs_with_leaves(adj, (author, -year))
    members = set()
    for a, y in leaves:
        members |= {b for b, _ in influence_authors(triples, a, -y)}
    return members


# -- reference builder --------------------------------------------------------


class ReferenceGraph:
    """What the set-and-dict builder stored: sorted keys and labels, per
    slice a dict node id -> sorted successor ids, per slice the set of
    active ids, and per node its sorted active time indices."""

    def __init__(self, directed, keys, labels, out, active, active_times, n_edges):
        self.directed = directed
        self.keys = keys
        self.labels = labels
        self.out = out
        self.active = active
        self.active_times = active_times
        self.n_edges = n_edges

    def __eq__(self, other):
        return (self.directed == other.directed and self.keys == other.keys
                and self.labels == other.labels and self.out == other.out)

    def edges(self):
        """(src, dst, label) sorted by (time, src, dst); undirected edges once."""
        out = []
        for t, adj in enumerate(self.out):
            rows = []
            for u, nbrs in adj.items():
                for v in nbrs:
                    uk, vk = self.keys[u], self.keys[v]
                    if self.directed or uk <= vk:
                        rows.append((uk, vk))
            out.extend((uk, vk, self.labels[t]) for uk, vk in sorted(rows))
        return out

    def active_nodes(self):
        """(node, label) of every active temporal node, in (time, node) order."""
        return [(self.keys[v], self.labels[t])
                for t, ids in enumerate(self.active) for v in sorted(ids)]

    def active_time_labels(self, key):
        v = self.keys.index(key)
        return tuple(self.labels[t] for t in self.active_times[v])


def reference_build(edges, directed=True):
    """The set-based ``build_graph``: one pass over the records into sets,
    then sorted keys and labels, dict adjacency and frozenset activeness.
    Raises the same error types as the package's builder."""
    node_set, label_set, kept = set(), set(), set()
    n_records = 0
    for e in edges:
        if isinstance(e, EdgeRecord):
            src, dst, t = e.src, e.dst, e.time
        else:
            src, dst, t = e
        try:
            t = operator.index(t)
        except TypeError:
            raise KeyTypeError(f"time labels must be integers, got {t!r}") from None
        n_records += 1
        node_set.add(src)
        node_set.add(dst)
        label_set.add(t)
        if src == dst:
            continue
        if not directed and (dst, src, t) in kept:
            continue
        kept.add((src, dst, t))
    if n_records == 0:
        raise EmptyGraphError("edge list is empty")
    try:
        keys = tuple(sorted(node_set))
    except TypeError:
        raise KeyTypeError("node keys must be mutually ordered") from None
    id_of = {k: i for i, k in enumerate(keys)}
    labels = tuple(sorted(label_set))
    tidx_of = {lab: i for i, lab in enumerate(labels)}

    out_lists = [{} for _ in labels]
    active = [set() for _ in labels]
    for src, dst, lab in kept:
        t, u, v = tidx_of[lab], id_of[src], id_of[dst]
        out_lists[t].setdefault(u, []).append(v)
        if not directed:
            out_lists[t].setdefault(v, []).append(u)
        active[t].update((u, v))
    out = [{u: tuple(sorted(nbrs)) for u, nbrs in sorted(adj.items())} for adj in out_lists]
    times_of = [[] for _ in keys]
    for t, ids in enumerate(active):
        for v in ids:
            times_of[v].append(t)
    return ReferenceGraph(directed, keys, labels, out, [frozenset(a) for a in active],
                          tuple(tuple(ts) for ts in times_of), len(kept))
