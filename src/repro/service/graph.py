"""Scatter-gather graph ranking over the sharded service.

The shards partition every graph source table row-wise (Enrollments,
Comments, and Courses each land on exactly one shard), and adjacency
edge weights are *integer sums over rows*.  One assembly over every
shard's layer maps therefore reconstructs the union graph **exactly** —
the same associativity argument the distributed BM25 and cloud merges
lean on — so rankings computed here are bit-identical to an unsharded
:class:`~repro.graphrank.engine.GraphRankEngine` over the union
database, whose graph is the one-shard assembly.

Incrementality composes too: each shard engine keeps its own
version-stamped layers (reused unless that shard's source tables moved),
and the union graph is assembled again only when some shard's layer
version moved.
"""

from __future__ import annotations

from typing import Sequence

from repro.graphrank.adjacency import TripartiteAdjacency
from repro.graphrank.engine import GraphRankEngine
from repro.minidb.catalog import Database


class ShardedGraphRank(GraphRankEngine):
    """A :class:`GraphRankEngine` whose graph spans every shard.

    Everything downstream of :meth:`refresh` is inherited unchanged;
    only where the layers come from differs.
    """

    def __init__(self, shards: Sequence[Database]) -> None:
        super().__init__(shards[0])
        self._shard_engines = [GraphRankEngine(shard) for shard in shards]

    def refresh(self) -> TripartiteAdjacency:
        """The union adjacency over every shard's current layers."""
        with self._lock:
            return self._assemble(*(e.layers() for e in self._shard_engines))

    @property
    def layers_rebuilt(self) -> int:
        return sum(e.layers_rebuilt for e in self._shard_engines)

    @property
    def layers_reused(self) -> int:
        return sum(e.layers_reused for e in self._shard_engines)
