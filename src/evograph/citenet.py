"""Citation networks as evolving graphs.

Input rows are ``citing<TAB>cited<TAB>year``.  Edges are stored in that
citing-to-cited direction, but influence travels the other way: the cited
author reaches everyone who (transitively, never moving back in time) cites
them.  Influence queries therefore traverse the edge-transposed graph, and
backward queries additionally reverse the time axis.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .core import EvolvingGraph, TemporalNode, build_graph, read_tsv
from .errors import EmptyGraphError
from .traversal import bfs

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
    :func:`community`.
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


def _influenced(influence: EvolvingGraph, author, year: int) -> dict:
    """(author, year) -> distance on a graph whose edges run cited-to-citing,
    without the root author's own temporal nodes."""
    rm = bfs(influence, TemporalNode(author, year))
    return {(tn.node, tn.time): d for tn, d in rm.entries.items() if tn.node != author}


def influence_set(g: EvolvingGraph, author, year: int) -> InfluenceReport:
    """Authors reached by ``author``'s influence from ``year`` onward.

    Runs the traversal on the edge-transposed graph (influence flows from
    cited to citing) and drops the root author's own temporal nodes.
    """
    g.require_active((author, year))
    return InfluenceReport(author, year, FORWARD,
                           _influenced(g.transposed(), author, year))


def influencers_set(g: EvolvingGraph, author, year: int) -> InfluenceReport:
    """Authors whose work ``author`` builds on, looking backward from ``year``.

    Computed as an influence query on the time-reversed graph; reported years
    are mapped back to the original labels.
    """
    g.require_active((author, year))
    back = _influenced(g.time_reversed().transposed(), author, -year)
    return InfluenceReport(author, year, BACKWARD,
                           {(a, -y): d for (a, y), d in back.items()})


def community(g: EvolvingGraph, author, year: int) -> frozenset:
    """Authors downstream of the roots of ``author``'s influences.

    Walk backward to everyone who influenced ``author``, take the leaves of
    that traversal tree (the points where the walk stopped discovering
    anything new), and pool the forward influence of each leaf.  An author
    with no influencers is their own leaf, so the result is their own
    influence set.
    """
    g.require_active((author, year))
    rm = bfs(g.time_reversed().transposed(), TemporalNode(author, -year))
    influence = g.transposed()
    members: set = set()
    for leaf in rm.leaves:
        members.update(a for a, _ in _influenced(influence, leaf.node, -leaf.time))
    return frozenset(members)


def community_report(g: EvolvingGraph, author, year: int) -> InfluenceReport:
    """Backward report for ``author`` with the community attached."""
    rep = influencers_set(g, author, year)
    rep.community = community(g, author, year)
    return rep
