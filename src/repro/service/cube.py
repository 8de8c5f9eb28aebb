"""Cloud cubes over the sharded service: :class:`CloudCube` at N shards.

A :class:`ServiceCube` is the clouds package's cube rooted at every
shard of a :class:`~repro.service.frontend.CourseRankService`: cells
keep per-shard doc-id tuples, memberships come from each shard database,
and every cell cloud is one :func:`~repro.clouds.cloud.cloud_over_shards`
call — so every navigated cloud is bit-identical to an unsharded
:class:`CloudCube` walk over the union corpus (the differential tests in
``tests/service/test_cube_service.py`` pin 1–5 shards, cell by cell).
The only thing added here is the service read lock, held around each
navigation step so no write lands halfway through one.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.clouds.cloud import DocId
from repro.clouds.cube import CloudCube, Coordinate, CubeCell, DimensionSpec
from repro.errors import CloudError


class ServiceCube(CloudCube):
    """A navigable lattice of scatter-gathered data clouds."""

    def __init__(
        self,
        service: Any,
        shard_base: Optional[Sequence[Sequence[DocId]]] = None,
        dimensions: Optional[Sequence[DimensionSpec]] = None,
        query: str = "",
        query_terms: Optional[Sequence[str]] = None,
    ) -> None:
        self.service = service
        apps = service.apps
        if shard_base is None:
            shard_base = [None] * len(apps)
        if len(shard_base) != len(apps):
            raise CloudError(
                f"shard_base has {len(shard_base)} entries for "
                f"{len(apps)} shards"
            )
        with service.rwlock.read_locked():
            self._over_shards(
                [
                    (app.db, app.cloudsearch.builder, base)
                    for app, base in zip(apps, shard_base)
                ],
                dimensions,
                query,
                query_terms,
            )

    def cell(self, coordinate: Coordinate = ()) -> CubeCell:
        with self.service.rwlock.read_locked():
            return super().cell(coordinate)

    def dimension_values(self, cell: CubeCell, dimension: str) -> List[Any]:
        with self.service.rwlock.read_locked():
            return super().dimension_values(cell, dimension)

    def slice(self, cell: CubeCell, dimension: str, value: Any) -> CubeCell:
        with self.service.rwlock.read_locked():
            return super().slice(cell, dimension, value)

    def roll_up(self, cell: CubeCell) -> CubeCell:
        with self.service.rwlock.read_locked():
            return super().roll_up(cell)
