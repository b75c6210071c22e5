"""Breadth-first search over evolving graphs.

A graph here is a time-ordered sequence of static slices over one node set.
Traversal follows temporal paths: same-slice edge steps and jumps to later
times at the same node.  The package provides three interchangeable engines
(a frontier BFS, classical BFS over the static expansion, and repeated
block-matrix products), a path-counting calculus with the classic
undercounting pitfall as a demo, seeded random graph families, and influence
queries over citation networks.
"""

from .core import (
    EdgeRecord,
    EvolvingGraph,
    TemporalNode,
    build_graph,
)
from .errors import (
    EmptyGraphError,
    EvographError,
    InactiveRootError,
    InfeasibleError,
    KeyTypeError,
    ParseError,
    PathCountOverflowError,
    ShapeError,
    TimeOrderError,
    TooLargeError,
)
from .traversal import ReachedMap, bfs, distance, is_reachable

__version__ = "0.1.0"

__all__ = [
    "EdgeRecord",
    "EvolvingGraph",
    "TemporalNode",
    "build_graph",
    "ReachedMap",
    "bfs",
    "distance",
    "is_reachable",
    "EvographError",
    "EmptyGraphError",
    "InactiveRootError",
    "InfeasibleError",
    "KeyTypeError",
    "ParseError",
    "PathCountOverflowError",
    "ShapeError",
    "TimeOrderError",
    "TooLargeError",
    "__version__",
]
