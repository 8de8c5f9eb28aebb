"""FolkRank-style graph ranking over the user–course–term graph.

See :mod:`repro.graphrank.adjacency` (version-keyed layered graph),
:mod:`repro.graphrank.ranker` (deterministic preference-biased power
iteration), and :mod:`repro.graphrank.engine` (the cached per-database
engine).
"""

from repro.graphrank.adjacency import (
    LAYER_ORDER,
    LAYER_TABLES,
    AdjacencyLayer,
    NodeId,
    TripartiteAdjacency,
    build_layer,
    layer_version,
)
from repro.graphrank.engine import GraphRankEngine
from repro.graphrank.ranker import (
    NODE_KINDS,
    RankResult,
    normalize_preference,
    power_iteration,
    ranked_of_kind,
    teleport_vector,
)

__all__ = [
    "LAYER_ORDER",
    "LAYER_TABLES",
    "AdjacencyLayer",
    "NodeId",
    "TripartiteAdjacency",
    "build_layer",
    "layer_version",
    "GraphRankEngine",
    "NODE_KINDS",
    "RankResult",
    "normalize_preference",
    "power_iteration",
    "ranked_of_kind",
    "teleport_vector",
]
