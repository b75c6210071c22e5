"""Seeded inputs for the benchmark workloads.

Everything here is the benchmark's own code on numpy's PCG64 generator; it
never calls ``evograph.generator``, so a change to the program's generator
cannot move a workload.  Each workload's input is a set of raw
``(src, dst, time)`` rows held as :class:`Triples`, written to TSV files for
the program to read, and kept in memory for the independent checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

# Workload sizes.  Changing any of these changes every figure of the
# workload, so it is a change of the benchmark, not of the program.
EDGE_GROWTH = dict(nodes=1000, stamps=10, edges=100_000, first_label=2000)
STAMP_GROWTH = dict(nodes=20, stamps=500)
CITATIONS = dict(authors=1000, field_size=40, years=20, first_year=1990,
                 career=(4, 5), cites=(2, 3), p_self=0.01, p_duplicate=0.01)
# Engines inputs come in pairs of graphs of one size, the first with acyclic
# slices and the second without: (nodes, stamps, edges per stamp).
ENGINES_PAIRS = 6
ENGINES_GRAPH = (100, 5, 40)
COUNTS_PER_ACYCLIC_GRAPH = 4

_SYLLABLES = ["ka", "lo", "mi", "ren", "sa", "tor", "vel", "an",
              "is", "du", "ber", "chen", "ng", "ova", "ski", "ez"]


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent PCG64 stream ``stream`` of the workload seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


@dataclass
class Triples:
    """Raw directed rows in the benchmark's own dense ids.

    ``keys[i]`` is the node key written for id ``i`` and ``labels[t]`` the
    time label of stamp ``t`` (ascending).  The rows may hold duplicates and
    self-loops; ``edges`` and ``active`` apply the documented rules (a
    self-loop is no edge and activates nothing, duplicates collapse).
    """

    keys: list
    labels: list
    src: np.ndarray
    dst: np.ndarray
    t: np.ndarray
    _edges: tuple | None = field(default=None, repr=False)
    _active: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.keys)

    @property
    def T(self) -> int:
        return len(self.labels)

    def node_id(self) -> dict:
        return {k: i for i, k in enumerate(self.keys)}

    def time_id(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    @property
    def edges(self) -> tuple:
        """Unique non-self-loop edges as (src, dst, t) id arrays."""
        if self._edges is None:
            keep = self.src != self.dst
            code = (self.t[keep] * self.n + self.src[keep]) * self.n + self.dst[keep]
            code = np.unique(code)
            rest, d = np.divmod(code, self.n)
            t, s = np.divmod(rest, self.n)
            self._edges = (s, d, t)
        return self._edges

    @property
    def active(self) -> np.ndarray:
        """(stamps, nodes) mask of temporal nodes with an edge to another node."""
        if self._active is None:
            s, d, t = self.edges
            act = np.zeros((self.T, self.n), dtype=bool)
            act[t, s] = True
            act[t, d] = True
            self._active = act
        return self._active

    def makeup(self) -> dict:
        per_node = self.active.sum(axis=0)
        return {
            "nodes": int(len(np.unique(np.concatenate([self.src, self.dst])))),
            "stamps": int(len(np.unique(self.t))),
            "rows": int(len(self.src)),
            "edges": int(len(self.edges[0])),
            "active_temporal_nodes": int(self.active.sum()),
            "max_stamps_per_node": int(per_node.max(initial=0)),
        }

    def write_tsv(self, path: str, header: str) -> None:
        keys, labels = self.keys, self.labels
        lines = [f"# {header}\n"]
        lines.extend(
            f"{keys[s]}\t{keys[d]}\t{labels[t]}\n"
            for s, d, t in zip(self.src.tolist(), self.dst.tolist(), self.t.tolist())
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(lines))

    def active_roots(self, t: int) -> np.ndarray:
        """Node ids active at stamp ``t``."""
        return np.flatnonzero(self.active[t])


def _distinct_random_edges(rng, n: int, T: int, m: int):
    """``m`` distinct (src, dst, t) with src != dst, uniform over the space."""
    chosen = np.empty(0, dtype=np.int64)
    while len(chosen) < m:
        draw = rng.integers(0, n * n * T, size=int(1.2 * (m - len(chosen))) + 16)
        chosen = np.unique(np.concatenate([chosen, draw]))
        rest, d = np.divmod(chosen, n)
        s = rest % n
        chosen = chosen[s != d]
    chosen = rng.permutation(chosen)[:m]
    rest, d = np.divmod(chosen, n)
    t, s = np.divmod(rest, n)
    return s, d, t


def edge_growth(seed: int) -> Triples:
    """One graph of the edge-growth family: many edges over few stamps."""
    p = EDGE_GROWTH
    rng = rng_for(seed, 0)
    n, T = p["nodes"], p["stamps"]
    s, d, t = _distinct_random_edges(rng, n, T, p["edges"])
    return Triples(list(range(n)), [p["first_label"] + i for i in range(T)], s, d, t)


def stamp_growth(seed: int) -> Triples:
    """Few nodes, many stamps: each node has one out-edge in every stamp,
    so every node is active at every stamp."""
    p = STAMP_GROWTH
    rng = rng_for(seed, 0)
    n, T = p["nodes"], p["stamps"]
    t = np.repeat(np.arange(T), n)
    s = np.tile(np.arange(n), T)
    d = (s + rng.integers(1, n, size=n * T)) % n
    return Triples(list(range(n)), list(range(1, T + 1)), s, d, t)


def citations(seed: int) -> Triples:
    """Synthetic citation rows (citing, cited, year) with string authors.

    Authors sit in fields, cite within their field and have careers of a
    few years, so the authors x years universe is large while each author
    is active in a few years only.  A small share of rows are self-citations
    or exact duplicates, which the loader must drop or collapse.
    """
    p = CITATIONS
    rng = rng_for(seed, 0)
    A, Y = p["authors"], p["years"]
    (c_lo, c_hi), (k_lo, k_hi) = p["career"], p["cites"]
    names = [
        "".join(_SYLLABLES[j] for j in rng.integers(0, len(_SYLLABLES), size=3)).capitalize()
        + f"{i:04d}"
        for i in range(A)
    ]
    order = sorted(range(A), key=names.__getitem__)
    rank = np.empty(A, dtype=np.int64)
    rank[order] = np.arange(A)
    keys = [names[i] for i in order]
    fld = rng.permutation(A) // p["field_size"]
    start = rng.integers(0, Y - 1, size=A)
    length = rng.integers(c_lo, c_hi + 1, size=A)

    src, dst, yr = [], [], []
    for y in range(Y):
        alive = np.flatnonzero((start <= y) & (y < start + length))
        by_field: dict = {}
        for a in alive.tolist():
            by_field.setdefault(int(fld[a]), []).append(a)
        for a in alive.tolist():
            k = int(rng.integers(k_lo, k_hi + 1))
            pool = by_field[int(fld[a])]
            for b in rng.choice(pool, size=min(k, len(pool)), replace=False).tolist():
                if b == a:
                    continue
                src.append(a)
                dst.append(b)
                yr.append(y)
                if rng.random() < p["p_duplicate"]:
                    src.append(a)
                    dst.append(b)
                    yr.append(y)
            if rng.random() < p["p_self"]:
                src.append(a)
                dst.append(a)
                yr.append(y)
    s = rank[np.array(src, dtype=np.int64)]
    d = rank[np.array(dst, dtype=np.int64)]
    return Triples(keys, [p["first_year"] + i for i in range(Y)], s, d,
                   np.array(yr, dtype=np.int64))


def engine_graph(rng, n: int, T: int, per_stamp: int, acyclic: bool) -> Triples:
    """Random graph; with ``acyclic`` every edge climbs one node ranking, so
    every slice is a DAG."""
    m = per_stamp * T
    t = rng.integers(0, T, size=m)
    s = rng.integers(0, n, size=m)
    d = rng.integers(0, n, size=m)
    if acyclic:
        rank = rng.permutation(n)
        swap = rank[s] > rank[d]
        s, d = np.where(swap, d, s), np.where(swap, s, d)
    keep = s != d
    return Triples(list(range(n)), list(range(1, T + 1)), s[keep], d[keep], t[keep])


def engines(seed: int) -> list[Triples]:
    """``ENGINES_PAIRS`` pairs: graph 2i has acyclic slices, 2i + 1 not."""
    rng = rng_for(seed, 0)
    return [engine_graph(rng, *ENGINES_GRAPH, acyclic)
            for _ in range(ENGINES_PAIRS) for acyclic in (True, False)]


@dataclass
class WorkloadInput:
    """Generated files plus the raw rows they were written from."""

    files: list[str]
    triples: list[Triples]

    def makeup(self) -> dict:
        parts = [tr.makeup() for tr in self.triples]
        if len(parts) == 1:
            return parts[0]
        return {"graphs": parts}


def generate(workload: str, seed: int, directory: str) -> WorkloadInput:
    """Write the workload's TSV file(s) into ``directory``."""
    if workload == "engines":
        triples = engines(seed)
    else:
        make = {"edge-growth": edge_growth, "stamp-growth": stamp_growth,
                "citations": citations}[workload]
        triples = [make(seed)]
    header = "citing\tcited\tyear" if workload == "citations" else "src\tdst\ttime"
    files = []
    for i, tr in enumerate(triples):
        path = os.path.join(directory, f"{workload}-{i}.tsv")
        tr.write_tsv(path, header)
        files.append(path)
    return WorkloadInput(files, triples)
