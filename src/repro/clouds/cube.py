"""OLAP-style cloud cubes: dimensional drill-down over data clouds.

"Collaborative OLAP with Tag Clouds" (Aouiche et al.) treats a tag cloud
as the *measure* of an OLAP cell: pick dimensions, and every coordinate
in the lattice owns the cloud of the documents matching it.  Here the
documents are courses and the shipped dimensions are department, quarter
(offering term), and instructor — the axes a student actually browses.

The navigational operators are the classic three:

* :meth:`CloudCube.drill_down` — split a cell along a new dimension into
  one child cell per value;
* :meth:`CloudCube.roll_up` — return to the parent cell (drop the last
  coordinate);
* :meth:`CloudCube.slice` — fix one value of a dimension.

A cube navigates a tuple of shards: each cell keeps one doc-id tuple
per shard, and a lattice edge narrows each shard's share of its parent
cell by one membership filter and counts the child's cloud over what is
left with :func:`~repro.clouds.cloud.cloud_over_shards` — the same top-k
kernel every cloud goes through.  The facade's cube is the one-shard
case; the service's (:mod:`repro.service.cube`) roots the same cube at
every shard.  The differential tests in ``tests/clouds/test_cube.py``
pin every navigated cloud bit-identical to a cold build over the same
filtered doc set, and ``tests/service/test_cube_service.py`` pin 1–5
shards to the unsharded walk.

Dimension membership maps live in each shard database's
``"cube.memberships"`` memo, stamped with the versions of the
dimension's source tables (the one staleness rule, DESIGN §7), so any
DML on them retires a map.  A :class:`CloudCube` itself is a snapshot
navigator: its cell memo belongs to the tuple of its shards'
:meth:`Database.versions` and is dropped when it moves, so after a write
any cell access observes the new data, while cells already handed out
keep their snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import CloudError
from repro.minidb.catalog import Database
from repro.obs import OBS
from repro.clouds.cloud import (
    CloudBuilder,
    DataCloud,
    DocId,
    cloud_over_shards,
)

Coordinate = Tuple[Tuple[str, Any], ...]


@dataclass(frozen=True)
class DimensionSpec:
    """One cube dimension: a name and the SQL yielding (doc, value) rows.

    ``sql`` must select exactly two columns — the document id and the
    dimension value; a document may have several values (a course offered
    in two quarters belongs to both slices).  ``tables`` lists the source
    tables, whose versions stamp the membership map.
    """

    name: str
    sql: str
    tables: Tuple[str, ...]


#: the course dimensions the paper's site would expose
COURSE_DIMENSIONS: Tuple[DimensionSpec, ...] = (
    DimensionSpec(
        name="department",
        sql="SELECT CourseID, DepID FROM Courses",
        tables=("Courses",),
    ),
    DimensionSpec(
        name="quarter",
        sql="SELECT CourseID, Term FROM Offerings",
        tables=("Offerings",),
    ),
    DimensionSpec(
        name="instructor",
        sql="SELECT CourseID, InstructorID FROM Teaches",
        tables=("Teaches",),
    ),
)


def membership_for(
    database: Database, spec: DimensionSpec
) -> Dict[DocId, Tuple[Any, ...]]:
    """``{doc_id: sorted value tuple}`` for one dimension, memoized."""

    def build() -> Dict[DocId, Tuple[Any, ...]]:
        grouped: Dict[DocId, List[Any]] = {}
        for doc_id, value in database.query(spec.sql).rows:
            if doc_id is None or value is None:
                continue
            grouped.setdefault(doc_id, []).append(value)
        return {
            doc_id: tuple(sorted(set(values)))
            for doc_id, values in grouped.items()
        }

    membership, _hit = database.memo("cube.memberships", 32).get_or_build(
        (spec.name, spec.sql), spec.tables, build
    )
    return membership


@dataclass(frozen=True)
class CubeCell:
    """One lattice cell: a coordinate, each shard's documents, their cloud."""

    coordinate: Coordinate
    shard_doc_ids: Tuple[Tuple[DocId, ...], ...]
    cloud: DataCloud

    @property
    def doc_ids(self) -> Tuple[DocId, ...]:
        """All documents of the cell, concatenated in shard order."""
        return tuple(
            doc_id for shard in self.shard_doc_ids for doc_id in shard
        )

    @property
    def result_size(self) -> int:
        return sum(map(len, self.shard_doc_ids))


class CloudCube:
    """A navigable lattice of data clouds over a tuple of shards.

    ``base_doc_ids`` roots the cube (default: the whole corpus); a cube
    rooted at a search result is the paper's "cloud over these hits,
    broken down by department".  The unsharded cube is the one-shard
    case; :class:`repro.service.cube.ServiceCube` roots the same cube at
    every shard of the service, each cell keeping per-shard doc-id
    tuples and every cloud built by :func:`cloud_over_shards`.  Cells are
    memoized per coordinate for the shards' current versions, so roll-up
    after drill-down is a cache hit and repeated walks cost nothing; a
    write retires the whole memo, so it never holds more than one
    version's cells.
    """

    def __init__(
        self,
        database: Database,
        builder: CloudBuilder,
        base_doc_ids: Optional[Sequence[DocId]] = None,
        dimensions: Optional[Sequence[DimensionSpec]] = None,
        query: str = "",
        query_terms: Optional[Sequence[str]] = None,
    ) -> None:
        self._over_shards(
            [(database, builder, base_doc_ids)], dimensions, query, query_terms
        )

    def _over_shards(
        self,
        shards: Iterable[
            Tuple[Database, CloudBuilder, Optional[Sequence[DocId]]]
        ],
        dimensions: Optional[Sequence[DimensionSpec]],
        query: str,
        query_terms: Optional[Sequence[str]],
    ) -> None:
        """Root the cube at each ``(database, builder, base doc ids)``
        shard; a shard with no base contributes its whole corpus."""
        self.databases: Tuple[Database, ...] = ()
        self.builders: Tuple[CloudBuilder, ...] = ()
        self.shard_base: Tuple[Tuple[DocId, ...], ...] = ()
        for database, builder, base in shards:
            if base is None:
                base = builder.source.engine.index.document_ids()
            self.databases += (database,)
            self.builders += (builder,)
            self.shard_base += (tuple(base),)
        #: the first shard's builder: its scoring and cuts shape every cell
        self.builder = self.builders[0]
        self.dimensions: Tuple[DimensionSpec, ...] = tuple(
            dimensions if dimensions is not None else COURSE_DIMENSIONS
        )
        names = [spec.name for spec in self.dimensions]
        if len(set(names)) != len(names):
            raise CloudError(f"duplicate cube dimensions: {names}")
        self._by_name = {spec.name: spec for spec in self.dimensions}
        self.query = query
        self.query_terms = (
            tuple(query_terms) if query_terms is not None else None
        )
        self._cells: Dict[Coordinate, CubeCell] = {}
        self._cells_stamp: Optional[Tuple[Any, ...]] = None
        #: build-path counters, asserted on by the differential tests
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
        """One membership map per shard database."""
        spec = self._spec(dimension)
        return [membership_for(database, spec) for database in self.databases]

    def _memo(self) -> Dict[Coordinate, CubeCell]:
        """The cell memo of the shards' current versions."""
        stamp = tuple(database.versions() for database in self.databases)
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

    def _filter(
        self,
        shard_doc_ids: Tuple[Tuple[DocId, ...], ...],
        dimension: str,
        value: Any,
    ) -> Tuple[Tuple[DocId, ...], ...]:
        """Each shard's share of ``shard_doc_ids`` where ``dimension``
        takes ``value``."""
        return tuple(
            tuple(
                doc_id
                for doc_id in doc_ids
                if value in membership.get(doc_id, ())
            )
            for doc_ids, membership in zip(
                shard_doc_ids, self._memberships(dimension)
            )
        )

    # -- cell construction ---------------------------------------------------

    def cell(self, coordinate: Coordinate = ()) -> CubeCell:
        """The cell at ``coordinate``, cold-built (and memoized)."""
        coordinate = self._validate(coordinate)

        def documents() -> Tuple[Tuple[DocId, ...], ...]:
            shard_doc_ids = self.shard_base
            for dimension, value in coordinate:
                shard_doc_ids = self._filter(shard_doc_ids, dimension, value)
            return shard_doc_ids

        return self._memoized(coordinate, documents, "cold_build")

    def root(self) -> CubeCell:
        """The apex cell — every base document, no dimension fixed."""
        return self.cell(())

    def _memoized(
        self,
        coordinate: Coordinate,
        documents: Callable[[], Tuple[Tuple[DocId, ...], ...]],
        build: str,
    ) -> CubeCell:
        """The memoized cell at ``coordinate``, else one built over
        ``documents()`` and counted as a ``build`` (cold or incremental)."""
        memo = self._memo()
        cached = memo.get(coordinate)
        if cached is not None:
            self.stats["memo_hits"] += 1
            return cached
        shard_doc_ids = documents()
        with OBS.span(
            "cloud.cube.cell", {"coordinate": repr(coordinate)}
        ) as span:
            started = time.perf_counter()
            cloud = cloud_over_shards(
                zip(self.builders, shard_doc_ids),
                query=self.query,
                query_terms=self.query_terms,
            )
            if OBS.enabled:
                span.set(docs=cloud.result_size, terms=len(cloud.terms))
                OBS.metrics.inc(f"cloud.cube.{build}")
                OBS.metrics.observe(
                    "cloud.cube.cell.ms",
                    (time.perf_counter() - started) * 1000.0,
                )
        self.stats[f"{build}s"] += 1
        cell = CubeCell(coordinate, shard_doc_ids, cloud)
        memo[coordinate] = cell
        return cell

    # -- navigation ----------------------------------------------------------

    def dimension_values(self, cell: CubeCell, dimension: str) -> List[Any]:
        """The values ``dimension`` takes within ``cell`` (sorted)."""
        values = set()
        for doc_ids, membership in zip(
            cell.shard_doc_ids, self._memberships(dimension)
        ):
            for doc_id in doc_ids:
                values.update(membership.get(doc_id, ()))
        return sorted(values)

    def slice(self, cell: CubeCell, dimension: str, value: Any) -> CubeCell:
        """Fix ``dimension = value`` within ``cell`` (one lattice edge).

        Only ``cell``'s documents are filtered (each shard its own share),
        not the cube's base; the memoized result is shared with any other
        path that reaches the same coordinate.
        """
        coordinate = self._validate(
            cell.coordinate + ((dimension, value),)
        )
        return self._memoized(
            coordinate,
            lambda: self._filter(cell.shard_doc_ids, dimension, value),
            "incremental_build",
        )

    def drill_down(
        self, cell: CubeCell, dimension: str
    ) -> Dict[Any, CubeCell]:
        """Split ``cell`` along ``dimension``: one child per value."""
        return {
            value: self.slice(cell, dimension, value)
            for value in self.dimension_values(cell, dimension)
        }

    def roll_up(self, cell: CubeCell) -> CubeCell:
        """The parent cell (drop the last fixed dimension)."""
        if not cell.coordinate:
            raise CloudError("cannot roll up from the apex cell")
        return self.cell(cell.coordinate[:-1])
