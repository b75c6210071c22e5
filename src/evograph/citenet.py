"""Citation networks as evolving graphs.

Input rows are ``citing<TAB>cited<TAB>year``.  Edges are stored in that
citing-to-cited direction, but influence travels the other way: the cited
author reaches everyone who (transitively, never moving back in time) cites
them.  Influence queries therefore traverse the edge-transposed graph, while
backward queries keep the citation arrows and mirror the time axis.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .core import EvolvingGraph, TemporalNode, build_graph, read_tsv
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
    rows, lines, comments = read_tsv(path)
    summary = IngestionSummary(lines=lines, comments=comments, records=len(rows))
    if not rows:
        raise EmptyGraphError(f"{path} contains no citation records")
    seen = set()
    triples = []
    for citing, cited, year in rows:
        citing = _normalize(citing, name_policy)
        cited = _normalize(cited, name_policy)
        if citing == cited:
            summary.self_citations += 1
            continue
        trip = (citing, cited, year)
        if trip in seen:
            summary.duplicates += 1
        else:
            seen.add(trip)
        triples.append(trip)
    g = build_graph(triples, directed=True)
    summary.edges_kept = g.num_static_edges
    summary.authors = g.num_nodes
    summary.years = g.num_times
    log.info("loaded %s: %s", path, summary.describe())
    return g, summary


def _others(rm: ReachedMap, author, sign: int = 1) -> dict:
    """(author, sign * year) -> distance for every temporal node ``rm``
    reached, without ``author``'s own."""
    return {(tn.node, sign * tn.time): d
            for tn, d in rm.entries.items() if tn.node != author}


def _backward(g: EvolvingGraph, author, year: int) -> ReachedMap:
    """The BFS backward in time from ``(author, year)``: along the citation
    arrows on the time mirror of ``g``, where years are negated."""
    g.require_active((author, year))
    return bfs(g.time_mirrored(), TemporalNode(author, -year))


def influence_set(g: EvolvingGraph, author, year: int) -> InfluenceReport:
    """Authors reached by ``author``'s influence from ``year`` onward.

    Runs the traversal on the edge-transposed graph (influence flows from
    cited to citing) and drops the root author's own temporal nodes.
    """
    g.require_active((author, year))
    rm = bfs(g.transposed(), TemporalNode(author, year))
    return InfluenceReport(author, year, FORWARD, _others(rm, author))


def influencers_set(g: EvolvingGraph, author, year: int) -> InfluenceReport:
    """Authors whose work ``author`` builds on, looking backward from ``year``.

    Computed as a BFS along the citation arrows on the time-mirrored graph;
    reported years are mapped back to the original labels.
    """
    return InfluenceReport(author, year, BACKWARD,
                           _others(_backward(g, author, year), author, -1))


def community(g: EvolvingGraph, author, year: int) -> frozenset:
    """Authors downstream of the roots of ``author``'s influences.

    Walk backward to everyone who influenced ``author``, take the leaves of
    that traversal tree (the points where the walk stopped discovering
    anything new), and pool the forward influence of each leaf.  An author
    with no influencers is their own leaf, so the result is their own
    influence set.
    """
    return community_report(g, author, year).community


def community_report(g: EvolvingGraph, author, year: int) -> InfluenceReport:
    """Backward report for ``author`` with the community attached; both come
    from one backward walk.  Each leaf's forward walk only yields its authors,
    read from the walk's encoded ids."""
    back = _backward(g, author, year)
    report = InfluenceReport(author, year, BACKWARD, _others(back, author, -1))
    influence = g.transposed()
    members: set = set()
    for leaf in back.leaves:
        reached = bfs(influence, TemporalNode(leaf.node, -leaf.time)).earliest_times()
        members.update(a for a in reached if a != leaf.node)
    report.community = frozenset(members)
    return report
