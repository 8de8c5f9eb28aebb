"""Scatter-gather cloud cubes: OLAP navigation over the sharded service.

The sharded twin of :class:`repro.clouds.cube.CloudCube`.  Documents are
partitioned over shards, so every cell keeps *per-shard* doc-id tuples;
cell clouds hand per-shard term partials to the clouds kernel through
:meth:`CourseRankService._merged_cloud_for_docs`, which is the exact
machinery search and refinement use — so cube navigation scatter-gathers
exactly over shards, and every navigated cloud is bit-identical to an
unsharded :class:`CloudCube` walk over the union corpus (the
differential tests in ``tests/service/test_cube_service.py`` pin 1–5
shards against unsharded, cell by cell).

Slicing filters each shard's share of the parent cell, so a lattice edge
gathers over the child's documents only.

Membership maps are computed per shard database (department, quarter,
and instructor rows live with their courses), memoized exactly as the
unsharded maps are.  Cells memoize per coordinate, under the service
read lock, for the shards' current :meth:`Database.versions`; a write
drops the memo, so it never holds more than one generation of cells.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.clouds.cloud import DataCloud, DocId
from repro.clouds.cube import (
    COURSE_DIMENSIONS,
    Coordinate,
    DimensionSpec,
    membership_for,
)
from repro.errors import CloudError
from repro.obs import OBS


@dataclass(frozen=True)
class ServiceCubeCell:
    """One lattice cell over the sharded corpus."""

    coordinate: Coordinate
    shard_doc_ids: Tuple[Tuple[DocId, ...], ...]
    cloud: DataCloud

    @property
    def result_size(self) -> int:
        return sum(len(ids) for ids in self.shard_doc_ids)

    @property
    def doc_ids(self) -> Tuple[DocId, ...]:
        """All documents of the cell, concatenated in shard order."""
        return tuple(
            doc_id for shard in self.shard_doc_ids for doc_id in shard
        )


class ServiceCube:
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
        self.dimensions: Tuple[DimensionSpec, ...] = tuple(
            dimensions if dimensions is not None else COURSE_DIMENSIONS
        )
        names = [spec.name for spec in self.dimensions]
        if len(set(names)) != len(names):
            raise CloudError(f"duplicate cube dimensions: {names}")
        self._by_name = {spec.name: spec for spec in self.dimensions}
        if shard_base is None:
            shard_base = [
                tuple(app.cloudsearch.engine.index.document_ids())
                for app in service.apps
            ]
        if len(shard_base) != len(service.apps):
            raise CloudError(
                f"shard_base has {len(shard_base)} entries for "
                f"{len(service.apps)} shards"
            )
        self.shard_base: Tuple[Tuple[DocId, ...], ...] = tuple(
            tuple(ids) for ids in shard_base
        )
        self.query = query
        self.query_terms = (
            list(query_terms) if query_terms is not None else None
        )
        self._cells: Dict[Coordinate, ServiceCubeCell] = {}
        self._cells_stamp: Optional[Tuple[Any, ...]] = None
        self.stats = {
            "cold_builds": 0,
            "incremental_builds": 0,
            "memo_hits": 0,
        }

    # -- plumbing ------------------------------------------------------------

    def _spec(self, dimension: str) -> DimensionSpec:
        spec = self._by_name.get(dimension)
        if spec is None:
            raise CloudError(
                f"unknown cube dimension {dimension!r}; "
                f"available: {sorted(self._by_name)}"
            )
        return spec

    def _memberships(
        self, dimension: str
    ) -> List[Dict[DocId, Tuple[Any, ...]]]:
        spec = self._spec(dimension)
        return [
            membership_for(shard, spec)
            for shard in self.service.sharded.shards
        ]

    def _memo(self) -> Dict[Coordinate, ServiceCubeCell]:
        """The cell memo of the shards' current versions (read lock held)."""
        stamp = tuple(
            shard.versions() for shard in self.service.sharded.shards
        )
        if stamp != self._cells_stamp:
            self._cells = {}
            self._cells_stamp = stamp
        return self._cells

    def _validate(self, coordinate: Coordinate) -> Coordinate:
        coordinate = tuple(
            (dimension, value) for dimension, value in coordinate
        )
        seen = set()
        for dimension, _value in coordinate:
            self._spec(dimension)
            if dimension in seen:
                raise CloudError(
                    f"dimension {dimension!r} fixed twice in {coordinate!r}"
                )
            seen.add(dimension)
        return coordinate

    def _filter_shards(
        self,
        shard_doc_ids: Tuple[Tuple[DocId, ...], ...],
        dimension: str,
        value: Any,
    ) -> Tuple[Tuple[DocId, ...], ...]:
        memberships = self._memberships(dimension)
        return tuple(
            tuple(
                doc_id
                for doc_id in doc_ids
                if value in membership.get(doc_id, ())
            )
            for doc_ids, membership in zip(shard_doc_ids, memberships)
        )

    # -- cell construction ---------------------------------------------------

    def cell(self, coordinate: Coordinate = ()) -> ServiceCubeCell:
        """The cell at ``coordinate``, cold-built (and memoized)."""
        coordinate = self._validate(coordinate)
        with self.service.rwlock.read_locked():
            memo = self._memo()
            cached = memo.get(coordinate)
            if cached is not None:
                self.stats["memo_hits"] += 1
                return cached
            shard_docs = self.shard_base
            for dimension, value in coordinate:
                shard_docs = self._filter_shards(
                    shard_docs, dimension, value
                )
            cell = self._build_cell(coordinate, shard_docs, "cold_build")
            memo[coordinate] = cell
            self.stats["cold_builds"] += 1
            return cell

    def root(self) -> ServiceCubeCell:
        return self.cell(())

    def _build_cell(
        self,
        coordinate: Coordinate,
        shard_docs: Tuple[Tuple[DocId, ...], ...],
        counter: str,
    ) -> ServiceCubeCell:
        result_size = sum(len(ids) for ids in shard_docs)
        with OBS.span(
            "service.cube.cell", {"coordinate": repr(coordinate)}
        ) as span:
            started = time.perf_counter()
            cloud = self.service._merged_cloud_for_docs(
                self.query,
                self.query_terms,
                shard_docs,
                result_size,
            )
            if OBS.enabled:
                span.set(docs=result_size, terms=len(cloud.terms))
                OBS.metrics.inc(f"service.cube.{counter}")
                OBS.metrics.observe(
                    "service.cube.cell.ms",
                    (time.perf_counter() - started) * 1000.0,
                )
        return ServiceCubeCell(
            coordinate=coordinate, shard_doc_ids=shard_docs, cloud=cloud
        )

    # -- navigation ----------------------------------------------------------

    def dimension_values(
        self, cell: ServiceCubeCell, dimension: str
    ) -> List[Any]:
        """The values ``dimension`` takes within ``cell`` (sorted globally)."""
        with self.service.rwlock.read_locked():
            memberships = self._memberships(dimension)
        values = set()
        for doc_ids, membership in zip(cell.shard_doc_ids, memberships):
            for doc_id in doc_ids:
                values.update(membership.get(doc_id, ()))
        return sorted(values)

    def slice(
        self, cell: ServiceCubeCell, dimension: str, value: Any
    ) -> ServiceCubeCell:
        """Fix ``dimension = value``; each shard filters its share of ``cell``."""
        coordinate = self._validate(
            cell.coordinate + ((dimension, value),)
        )
        with self.service.rwlock.read_locked():
            memo = self._memo()
            cached = memo.get(coordinate)
            if cached is not None:
                self.stats["memo_hits"] += 1
                return cached
            shard_docs = self._filter_shards(
                cell.shard_doc_ids, dimension, value
            )
            child = self._build_cell(
                coordinate, shard_docs, "incremental_build"
            )
            memo[coordinate] = child
            self.stats["incremental_builds"] += 1
            return child

    def drill_down(
        self, cell: ServiceCubeCell, dimension: str
    ) -> Dict[Any, ServiceCubeCell]:
        """Split ``cell`` along ``dimension``: one child per value."""
        return {
            value: self.slice(cell, dimension, value)
            for value in self.dimension_values(cell, dimension)
        }

    def roll_up(self, cell: ServiceCubeCell) -> ServiceCubeCell:
        """The parent cell (drop the last fixed dimension)."""
        if not cell.coordinate:
            raise CloudError("cannot roll up from the apex cell")
        return self.cell(cell.coordinate[:-1])
