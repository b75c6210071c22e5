"""Citation networks as evolving graphs.

Input rows are ``citing<TAB>cited<TAB>year``.  Edges are stored in that
citing-to-cited direction, but influence travels the other way: the cited
author reaches everyone who (transitively, never moving back in time) cites
them.  Influence queries therefore traverse the edge-transposed graph, while
backward queries keep the citation arrows and mirror the time axis.  Both
derived graphs are made once per loaded graph (``EvolvingGraph`` keeps them).

A community report runs one BFS, backward from the queried author, and then
one multi-source reachability pass forward from the leaves of that walk,
with at most two source labels per temporal node (see ``_reached_authors``).
Query results are read from active ids, so no ``TemporalNode`` is built per
reached node.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

# build_graph is not called here, but stays a module attribute: the
# benchmark's tracer (perfbench/spans.py) wraps citenet.build_graph
from .core import EvolvingGraph, _build_coded, build_graph, read_tsv  # noqa: F401
from .errors import EmptyGraphError
from .traversal import ReachedMap, bfs

log = logging.getLogger(__name__)

# orientation markers recorded on reports
FORWARD = "influence (edges traversed cited-to-citing, time forward)"
BACKWARD = "influencers (edges traversed citing-to-cited, time backward)"


@dataclass
class IngestionSummary:
    """What a citation file contained and what was kept."""

    lines: int = 0
    comments: int = 0
    records: int = 0
    self_citations: int = 0
    duplicates: int = 0
    edges_kept: int = 0
    authors: int = 0
    years: int = 0

    def describe(self) -> str:
        return (
            f"{self.edges_kept} edges kept from {self.records} records "
            f"({self.self_citations} self-citations and "
            f"{self.duplicates} duplicates dropped); "
            f"{self.authors} authors over {self.years} years"
        )


@dataclass
class InfluenceReport:
    """Result of an influence query.

    ``entries`` maps (author, year) to hop distance for every reached
    temporal node other than the root author's own; years are in the queried
    graph's labels even for backward queries.  ``orientation`` records how
    edges and time were traversed.  ``community`` is only filled by
    :func:`community_report`.
    """

    root_author: str
    root_year: int
    orientation: str
    entries: dict = field(default_factory=dict)
    community: frozenset | None = None

    def author_set(self) -> frozenset:
        return frozenset(a for a, _ in self.entries)

    def earliest_years(self) -> dict:
        """author -> (earliest year reached, distance at that year)."""
        out: dict = {}
        for (a, y), d in sorted(self.entries.items(), key=lambda kv: (kv[0][1], kv[1])):
            if a not in out:
                out[a] = (y, d)
        return out


def _normalize(name: str, policy: str) -> str:
    if policy == "exact":
        return name
    if policy == "casefold":
        return name.casefold()
    raise ValueError(f"unknown name mapping policy {policy!r}")


def load_citations(path, name_policy: str = "exact") -> tuple[EvolvingGraph, IngestionSummary]:
    """Build the citing-to-cited evolving graph from a citation file.

    Rows are ``citing<TAB>cited<TAB>year``; ``#`` lines and blank lines are
    skipped, and a malformed row raises ParseError with its line number.
    Names are mapped through ``name_policy`` ("exact" or "casefold").
    Returns the graph together with an ingestion summary (also logged).
    Self-citations are dropped but counted; duplicate rows collapse to one
    edge.
    """
    table = read_tsv(path)
    records = len(table.time)
    summary = IngestionSummary(lines=table.lines, comments=table.comments, records=records)
    if not records:
        raise EmptyGraphError(f"{path} contains no citation records")
    mapped: dict = {}  # mapped name -> its position in the list of mapped names
    recode = np.fromiter((mapped.setdefault(_normalize(name, name_policy), len(mapped))
                          for name in table.names), dtype=np.int64, count=len(table.names))
    citing, cited = recode[table.src], recode[table.dst]
    cites = citing != cited
    summary.self_citations = records - int(cites.sum())
    g = _build_coded(list(mapped), citing[cites], cited[cites], table.times,
                     table.time[cites], directed=True)
    # the graph keeps one edge per distinct (citing, cited, year) row
    summary.duplicates = records - summary.self_citations - g.num_static_edges
    summary.edges_kept = g.num_static_edges
    summary.authors = g.num_nodes
    summary.years = g.num_times
    log.info("loaded %s: %s", path, summary.describe())
    return g, summary


def _others(g: EvolvingGraph, rm: ReachedMap, author, sign: int = 1) -> dict:
    """(author, sign * year) -> distance for every temporal node that the
    traversal ``rm`` of ``g`` reached, without ``author``'s own; read from
    its active ids, in entry order."""
    keys, labels, lay = g.nodes, g.time_labels, g.layout_lists
    node, time = lay.node, lay.time
    own = g.node_id(author)
    ids, dists = rm.encoded(g)
    return {(keys[node[a]], sign * labels[time[a]]): d
            for a, d in zip(ids, dists) if node[a] != own}


def _backward(g: EvolvingGraph, author, year: int) -> tuple[EvolvingGraph, ReachedMap]:
    """The BFS backward in time from ``(author, year)``: along the citation
    arrows on the time mirror of ``g``, where years are negated.  Returns the
    mirror and the walk."""
    g.require_active((author, year))
    mirror = g.time_mirrored()
    return mirror, bfs(mirror, (author, -year))


def influence_set(g: EvolvingGraph, author, year: int) -> InfluenceReport:
    """Authors reached by ``author``'s influence from ``year`` onward.

    Runs the traversal on the edge-transposed graph (influence flows from
    cited to citing) and drops the root author's own temporal nodes.
    """
    g.require_active((author, year))
    influence = g.transposed()
    rm = bfs(influence, (author, year))
    return InfluenceReport(author, year, FORWARD, _others(influence, rm, author))


def influencers_set(g: EvolvingGraph, author, year: int) -> InfluenceReport:
    """Authors whose work ``author`` builds on, looking backward from ``year``.

    Computed as a BFS along the citation arrows on the time-mirrored graph;
    reported years are mapped back to the original labels.
    """
    mirror, back = _backward(g, author, year)
    return InfluenceReport(author, year, BACKWARD, _others(mirror, back, author, -1))


def community(g: EvolvingGraph, author, year: int) -> frozenset:
    """Authors downstream of the roots of ``author``'s influences.

    Walk backward to everyone who influenced ``author``, take the leaves of
    that traversal tree (the points where the walk stopped discovering
    anything new), and pool the forward influence of each leaf, leaving out
    each leaf's own author from what that leaf reaches.  An author with no
    influencers is their own leaf, so the result is their own influence set.
    A query costs one backward BFS and one forward pass, whatever the number
    of leaves; see :func:`community_report`.
    """
    return community_report(g, author, year).community


def community_report(g: EvolvingGraph, author, year: int) -> InfluenceReport:
    """Backward report for ``author`` with the community attached.

    Both come from one backward BFS.  The leaves' forward influence is then
    pooled in one pass over the edge-transposed graph, started from each leaf
    author's earliest leaf: a time jump makes reach monotone in time, so that
    leaf reaches all that the author's later leaves reach.  The pass costs
    O(reached active ids + edges scanned), independent of the leaf count.
    """
    mirror, back = _backward(g, author, year)
    report = InfluenceReport(author, year, BACKWARD, _others(mirror, back, author, -1))
    # a mirror id's node holds the same active stamps as in g, in reverse
    # time order, so its rank among them gives its active id in g
    m, lay = mirror.layout_lists, g.layout_lists
    sources: dict = {}  # leaf author's node id -> active id of their earliest leaf
    for a in back.leaf_ids(mirror):
        v = m.node[a]
        b = lay.node_aids[lay.node_ptr[v + 1] - 1 - (m.pos[a] - m.node_ptr[v])]
        if b < sources.get(v, b + 1):  # g's active ids ascend in time
            sources[v] = b
    members = _reached_authors(g.transposed(), {b: v for v, b in sources.items()})
    report.community = frozenset(g.nodes[v] for v in members)
    return report


_TWO = -1  # the label of an active id that two or more sources reach


def _reached_authors(g: EvolvingGraph, sources: dict) -> set:
    """Node ids reached in ``g`` from a source of a different node.

    ``sources`` maps active ids to node ids: each source is labelled with its
    node.  A reached active id keeps its one label, or ``_TWO`` once a second,
    different label arrives, and it is expanded again only when its label
    changes, so at most twice.  Reachability needs no distances, so a time
    jump is a link to the node's next active stamp.  An active id reachable
    from source X holds X or ``_TWO``, so node Z is reached from a source of
    another node exactly when one of Z's active ids holds a label other
    than Z.  Costs O(reached active ids + edges scanned) for any number of
    sources.
    """
    lay = g.layout_lists
    indptr, indices = lay.indptr, lay.indices
    node, node_ptr, node_aids, pos = lay.node, lay.node_ptr, lay.node_aids, lay.pos
    label = dict(sources)
    todo = list(sources)
    while todo:
        a = todo.pop()
        x = label[a]
        out = indices[indptr[a]:indptr[a + 1]]
        p = pos[a] + 1
        if p < node_ptr[node[a] + 1]:
            out += (node_aids[p],)
        for b in out:
            y = label.get(b)
            if y is None:
                label[b] = x
                todo.append(b)
            elif y != x and y != _TWO:
                label[b] = _TWO
                todo.append(b)
    return {node[a] for a, x in label.items() if x != node[a]}
