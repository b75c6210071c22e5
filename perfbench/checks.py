"""Independent checks of the program's answers.

Each checker works from the raw rows the benchmark generated (see
``inputs.Triples``), never from the program's graph objects, and raises
:class:`CheckError` on a wrong answer.  They restate the documented rules:

* a temporal node (v, t) is active when stamp t has an edge between v and
  another node;
* one hop is a same-stamp edge, or a jump from (v, t) to any later stamp
  at which v is active;
* path counts count hop sequences of exactly the given length, and the
  nilpotency index is one more than the longest temporal path when every
  slice is acyclic;
* citation influence runs cited -> citing forward in time, influencers run
  citing -> cited backward in time, and a community pools the influence of
  the leaves of the backward traversal.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from inputs import Triples


class CheckError(AssertionError):
    """The program's answer disagrees with the independent computation."""


def _fail(msg: str):
    raise CheckError(msg)


# -- BFS distances --------------------------------------------------------


def parse_bfs_output(text: str, tri: Triples) -> dict:
    """``node@time<TAB>distance`` lines -> {(node key, label): distance}."""
    int_keys = isinstance(tri.keys[0], int)
    out = {}
    for line in text.splitlines():
        tn, _, d = line.partition("\t")
        node, _, lab = tn.rpartition("@")
        key = (int(node) if int_keys else node, int(lab))
        if key in out:
            _fail(f"temporal node {tn} printed twice")
        out[key] = int(d)
    return out


def bfs_certificate(tri: Triples, root: tuple, dist: dict) -> None:
    """Check hop distances from ``root`` in linear time.

    The map is the BFS answer exactly when: the root alone is at 0; every
    reported node is active; every edge and every jump out of a reported
    node lands on a reported node at most one hop further; and every other
    reported node has an in-neighbour exactly one hop nearer.  Jumps are
    checked through a running minimum over each node's earlier stamps, so
    the check never enumerates the quadratic set of jumps.
    """
    node_id, time_id = tri.node_id(), tri.time_id()
    D = np.full((tri.T, tri.n), -1, dtype=np.int64)
    for (key, lab), d in dist.items():
        v, t = node_id.get(key), time_id.get(lab)
        if v is None or t is None:
            _fail(f"unknown temporal node {key!r}@{lab}")
        if d < 0:
            _fail(f"negative distance at {key!r}@{lab}")
        D[t, v] = d
    reached = D >= 0
    act = tri.active
    if (reached & ~act).any():
        _fail("an inactive temporal node is reported as reached")
    rv, rt = node_id.get(root[0]), time_id.get(root[1])
    if rv is None or rt is None or D[rt, rv] != 0 or int((D == 0).sum()) != 1:
        _fail(f"root {root} is not the only node at distance 0")

    s, d, t = tri.edges
    ds, dd = D[t, s], D[t, d]
    if ((ds >= 0) & ((dd < 0) | (dd > ds + 1))).any():
        _fail("a same-stamp edge leaves the reached set or skips a level")

    inf = np.iinfo(np.int64).max // 2
    running = np.minimum.accumulate(np.where(reached, D, inf), axis=0)
    earlier = np.vstack([np.full((1, tri.n), inf), running[:-1]])
    from_earlier = act & (earlier < inf)
    if (from_earlier & (~reached | (D > earlier + 1))).any():
        _fail("a time jump leaves the reached set or skips a level")

    parent = reached & from_earlier & (earlier == D - 1)
    step = (ds >= 0) & (dd == ds + 1)
    parent[t[step], d[step]] = True
    if (reached & (D > 0) & ~parent).any():
        _fail("a reached node has no in-neighbour one hop nearer")


# -- static expansion: path counts and longest paths ----------------------


class Expansion:
    """Explicit successor lists over active temporal nodes ``t * n + v``."""

    def __init__(self, tri: Triples):
        n = tri.n
        self.n = n
        succ: dict = defaultdict(list)
        s, d, t = tri.edges
        for a, b in zip((t * n + s).tolist(), (t * n + d).tolist()):
            succ[a].append(b)
        stamps = [np.flatnonzero(tri.active[:, v]).tolist() for v in range(n)]
        for v, ts in enumerate(stamps):
            for i, ti in enumerate(ts):
                succ[ti * n + v].extend(tj * n + v for tj in ts[i + 1:])
        self.succ = dict(succ)
        self.nodes = [int(x) for x in np.flatnonzero(tri.active.reshape(-1))]
        self._walks: dict = {}

    def walk_counts(self, src: int, hops: int) -> list[dict]:
        """Per hop h <= hops, {node: number of h-hop walks from src}."""
        levels = self._walks.setdefault(src, [{src: 1}])
        while len(levels) <= hops:
            nxt: dict = defaultdict(int)
            for x, c in levels[-1].items():
                for y in self.succ.get(x, ()):
                    nxt[y] += c
            levels.append(dict(nxt))
        return levels

    def count(self, src: int, dst: int, hops: int) -> int:
        return self.walk_counts(src, hops)[hops].get(dst, 0)

    def longest_path(self) -> int | None:
        """Edges on the longest path, or None when the expansion has a cycle."""
        longest: dict = {}
        on_stack: set = set()
        for start in self.nodes:
            if start in longest:
                continue
            stack = [(start, iter(self.succ.get(start, ())))]
            on_stack.add(start)
            while stack:
                x, it = stack[-1]
                for y in it:
                    if y in on_stack:
                        return None
                    if y not in longest:
                        on_stack.add(y)
                        stack.append((y, iter(self.succ.get(y, ()))))
                        break
                else:
                    stack.pop()
                    on_stack.discard(x)
                    longest[x] = max((1 + longest[y] for y in self.succ.get(x, ())),
                                     default=0)
        return max(longest.values(), default=0)


def check_count(x: Expansion, src: int, dst: int, hops: int, answer: int) -> None:
    want = x.count(src, dst, hops)
    if answer != want:
        _fail(f"{hops}-hop path count {answer}, expected {want}")


def check_nilpotency(x: Expansion, answer) -> None:
    lp = x.longest_path()
    want = None if lp is None else lp + 1
    if answer != want:
        _fail(f"nilpotency index {answer}, expected {want}")


# -- citation queries ------------------------------------------------------


class CitationOracle:
    """The documented ``citenet`` queries, rebuilt from the raw rows.

    ``tri`` holds citing -> cited rows with ids in sorted author order, so
    id order is the program's node order.
    """

    def __init__(self, tri: Triples):
        self.tri = tri
        s, d, t = tri.edges
        self.cites: dict = defaultdict(list)     # (author, stamp) -> cited authors
        self.cited_by: dict = defaultdict(list)  # (author, stamp) -> citing authors
        for a, b, y in zip(s.tolist(), d.tolist(), t.tolist()):
            self.cites[(a, y)].append(b)
            self.cited_by[(b, y)].append(a)
        self.stamps = [np.flatnonzero(tri.active[:, v]).tolist() for v in range(tri.n)]
        self._influence: dict = {}

    def influencers(self, a: int, y: int):
        """Backward traversal from (a, y): distances and tree leaves.

        The frontier is expanded in the program's (time, node) order on the
        time-reversed graph: latest stamp first, then node order.  A leaf is
        a node that claims no new node when its turn comes.
        """
        dist = {(a, y): 0}
        leaves = []
        frontier = [(a, y)]
        k = 0
        while frontier:
            k += 1
            nxt = []
            for v, s in frontier:
                found = False
                for u in self.cites.get((v, s), ()):
                    if (u, s) not in dist:
                        dist[(u, s)] = k
                        nxt.append((u, s))
                        found = True
                for s2 in reversed([x for x in self.stamps[v] if x < s]):
                    if (v, s2) not in dist:
                        dist[(v, s2)] = k
                        nxt.append((v, s2))
                        found = True
                if not found:
                    leaves.append((v, s))
            nxt.sort(key=lambda vs: (-vs[1], vs[0]))
            frontier = nxt
        return dist, leaves

    def influence_authors(self, a: int, y: int) -> frozenset:
        """Authors other than ``a`` reached forward from (a, y)."""
        hit = self._influence.get((a, y))
        if hit is None:
            seen = {(a, y)}
            todo = [(a, y)]
            while todo:
                v, s = todo.pop()
                nbrs = [(u, s) for u in self.cited_by.get((v, s), ())]
                nbrs.extend((v, s2) for s2 in self.stamps[v] if s2 > s)
                for x in nbrs:
                    if x not in seen:
                        seen.add(x)
                        todo.append(x)
            hit = frozenset(v for v, _ in seen if v != a)
            self._influence[(a, y)] = hit
        return hit

    def check_report(self, author: str, year: int, rep) -> None:
        tri = self.tri
        a, y = tri.node_id()[author], tri.time_id()[year]
        dist, leaves = self.influencers(a, y)
        entries = {(tri.keys[v], tri.labels[s]): d
                   for (v, s), d in dist.items() if v != a}
        if rep.entries != entries:
            _fail(f"influencers of {author}@{year} differ "
                  f"({len(rep.entries)} entries, expected {len(entries)})")
        members = set()
        for v, s in leaves:
            members |= self.influence_authors(v, s)
        want = frozenset(tri.keys[v] for v in members)
        if rep.community != want:
            _fail(f"community of {author}@{year} differs "
                  f"({len(rep.community or ())} members, expected {len(want)})")
