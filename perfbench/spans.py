"""Spans around the program's module boundaries, recorded from outside.

:func:`instrument` swaps wrappers into the attributes through which the
program's modules call each other (``evograph.cli.build_graph``,
``evograph.citenet.bfs``, ``EvolvingGraph.transposed``,
``ReachedMap.entries``, ...) and puts the originals back when the run ends.
Nothing under ``src/`` is edited.  Spans stay in memory; each records its
name, start, end, parent span, query id and a few counts.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

SETUP = "setup"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.query = SETUP

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append({
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "query": self.query,
            "counts": {},
        })
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> dict:
        span = self.spans[idx]
        span["end"] = perf_counter()
        self._stack.pop()
        return span

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _sized(x) -> int | None:
    try:
        return len(x)
    except TypeError:
        return None


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the program's public functions for the duration of the block."""
    import evograph
    from evograph import algebra, citenet, cli, core, flatten, traversal
    from evograph.core import EvolvingGraph
    from evograph.traversal import ReachedMap

    saved = []

    def patch(owners, attr, make):
        first = owners[0]
        orig = first.__dict__[attr] if isinstance(first, type) else getattr(first, attr)
        new = make(orig)
        for owner in owners:
            saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                          else getattr(owner, attr)))
            setattr(owner, attr, new)

    def spanned(name, counts=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer.begin(name)
                try:
                    res = fn(*args, **kwargs)
                finally:
                    span = tracer.end(idx)
                if counts is not None:
                    span["counts"].update(counts(args, kwargs, res))
                return res
            return wrapper
        return make

    def materializing(prop):
        def get(self):
            if self._ids is None:
                return prop.fget(self)
            with tracer.span("traversal.materialize") as span:
                res = prop.fget(self)
            span["counts"]["reached"] = len(self._entries)
            return res
        return property(get, doc=prop.__doc__)

    patch([cli], "main", spanned("cli.main"))
    patch([cli], "load_edge_list", spanned("cli.load_edge_list"))
    patch([core, cli, citenet, evograph], "build_graph", spanned(
        "core.build_graph",
        lambda a, kw, g: {"records": _sized(a[0]) or 0,
                          "edges_kept": g.num_static_edges}))
    patch([EvolvingGraph], "transposed", spanned("core.transposed"))
    patch([EvolvingGraph], "time_reversed", spanned("core.time_reversed"))
    patch([traversal, citenet, evograph], "bfs", spanned(
        "traversal.bfs", lambda a, kw, rm: {"levels": rm.iterations}))
    patch([ReachedMap], "entries", materializing)
    patch([ReachedMap], "leaves", materializing)
    patch([flatten], "expand", spanned(
        "flatten.expand", lambda a, kw, x: {"expanded_edges": x.num_edges}))
    patch([flatten], "static_bfs", spanned("flatten.static_bfs"))
    patch([algebra.BlockMatrix], "__init__", spanned("algebra.BlockMatrix"))
    patch([algebra], "algebraic_bfs", spanned(
        "algebra.algebraic_bfs", lambda a, kw, rm: {"levels": rm.iterations}))
    patch([algebra], "count_temporal_paths", spanned(
        "algebra.count_temporal_paths",
        lambda a, kw, c: {"hops": kw["hops"] if "hops" in kw else a[3]}))
    patch([algebra], "nilpotency_index", spanned("algebra.nilpotency_index"))
    for fn in ("load_citations", "influence_set", "influencers_set",
               "community", "community_report"):
        patch([citenet], fn, spanned(f"citenet.{fn}"))
    try:
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


# -- per-layer metrics ------------------------------------------------------

# name -> unit, in the order the result prints them
LAYER_UNITS = {
    "cli.main.self_s": "s",
    "cli.load_edge_list.self_s": "s",
    "cli.rows": "count",
    "core.build_graph.s": "s",
    "core.edges_kept": "count",
    "core.transposed.s": "s",
    "core.transposed.calls": "count",
    "core.time_reversed.s": "s",
    "core.time_reversed.calls": "count",
    "traversal.bfs.s": "s",
    "traversal.bfs.calls": "count",
    "traversal.materialize.s": "s",
    "traversal.reached": "count",
    "traversal.levels": "count",
    "traversal.bfs.us_per_reached": "us",
    "flatten.expand.s": "s",
    "flatten.static_bfs.s": "s",
    "flatten.expanded_edges": "count",
    "algebra.BlockMatrix.s": "s",
    "algebra.algebraic_bfs.s": "s",
    "algebra.algebraic_bfs.levels": "count",
    "algebra.matvec_us": "us",
    "algebra.count_temporal_paths.s": "s",
    "algebra.count_temporal_paths.hops": "count",
    "path_counts_per_s": "1/s",
    "algebra.nilpotency_index.s": "s",
    "citenet.load_citations.self_s": "s",
    "citenet.community.self_s": "s",
    "citenet.influencers_set.s": "s",
    "citenet.bfs_per_query": "count",
    "trace.queries": "count",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[dict], queries: int, overhead_s: float) -> dict:
    """Per-layer figures for one set-up plus one average query.

    Every sum below is the set-up's total plus the query phase's total
    divided by the number of queries.  The three ratios
    (``us_per_reached``, ``matvec_us``, ``path_counts_per_s``) are taken
    over the query phase alone.
    """
    child_time = defaultdict(float)
    for sp in spans:
        if sp["parent"] is not None:
            child_time[sp["parent"]] += sp["end"] - sp["start"]

    setup: dict = defaultdict(float)
    per_query: dict = defaultdict(float)
    for i, sp in enumerate(spans):
        dur = sp["end"] - sp["start"]
        acc = setup if sp["query"] == SETUP else per_query
        name = sp["name"]
        acc[name + ".s"] += dur
        acc[name + ".self_s"] += dur - child_time[i]
        acc[name + ".calls"] += 1
        for key, val in sp["counts"].items():
            acc[name + "." + key] += val
        if name == "traversal.bfs" and sp["query"] != SETUP:
            inside = spans[sp["parent"]]["name"] if sp["parent"] is not None else ""
            if inside.startswith("citenet."):
                acc["citenet.bfs_calls"] += 1
        if name == "core.build_graph" and sp["parent"] is not None \
                and spans[sp["parent"]]["name"] == "cli.load_edge_list":
            acc["cli.rows"] += sp["counts"]["records"]

    def one(key):
        return setup[key] + (per_query[key] / queries if queries else 0.0)

    def ratio(num, den, scale=1.0):
        return per_query[num] / per_query[den] * scale if per_query[den] else 0.0

    values = {
        "cli.main.self_s": one("cli.main.self_s"),
        "cli.load_edge_list.self_s": one("cli.load_edge_list.self_s"),
        "cli.rows": one("cli.rows"),
        "core.build_graph.s": one("core.build_graph.s"),
        "core.edges_kept": one("core.build_graph.edges_kept"),
        "core.transposed.s": one("core.transposed.s"),
        "core.transposed.calls": one("core.transposed.calls"),
        "core.time_reversed.s": one("core.time_reversed.s"),
        "core.time_reversed.calls": one("core.time_reversed.calls"),
        "traversal.bfs.s": one("traversal.bfs.s"),
        "traversal.bfs.calls": one("traversal.bfs.calls"),
        "traversal.materialize.s": one("traversal.materialize.s"),
        "traversal.reached": one("traversal.materialize.reached"),
        "traversal.levels": one("traversal.bfs.levels"),
        "traversal.bfs.us_per_reached": ratio("traversal.bfs.s",
                                              "traversal.materialize.reached", 1e6),
        "flatten.expand.s": one("flatten.expand.s"),
        "flatten.static_bfs.s": one("flatten.static_bfs.s"),
        "flatten.expanded_edges": one("flatten.expand.expanded_edges"),
        "algebra.BlockMatrix.s": one("algebra.BlockMatrix.s"),
        "algebra.algebraic_bfs.s": one("algebra.algebraic_bfs.s"),
        "algebra.algebraic_bfs.levels": one("algebra.algebraic_bfs.levels"),
        "algebra.matvec_us": ratio("algebra.algebraic_bfs.self_s",
                                   "algebra.algebraic_bfs.levels", 1e6),
        "algebra.count_temporal_paths.s": one("algebra.count_temporal_paths.s"),
        "algebra.count_temporal_paths.hops": one("algebra.count_temporal_paths.hops"),
        "path_counts_per_s": ratio("algebra.count_temporal_paths.calls",
                                   "algebra.count_temporal_paths.s"),
        "algebra.nilpotency_index.s": one("algebra.nilpotency_index.s"),
        "citenet.load_citations.self_s": one("citenet.load_citations.self_s"),
        "citenet.community.self_s": one("citenet.community.self_s"),
        "citenet.influencers_set.s": one("citenet.influencers_set.s"),
        "citenet.bfs_per_query": one("citenet.bfs_calls"),
        "trace.queries": float(queries),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_UNITS.items()}
