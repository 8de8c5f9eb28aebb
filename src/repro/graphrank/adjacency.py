"""Tripartite user–course–term adjacency for FolkRank-style ranking.

The folksonomy literature ("Deeper Into the Folksonomy Graph") ranks by
spreading weight over the undirected tripartite graph of users, items,
and tags.  CourseRank's analogue: **users** (students), **courses**, and
**terms** (display vocabulary mined from comment and course text, the
same unstemmed unigrams the data clouds show).  Edges:

* user–course — one unit per enrollment, plus one per comment;
* user–term / course–term — one unit per occurrence of the term in a
  comment that user left on that course;
* course–term — :data:`TITLE_WEIGHT` units per occurrence in the course
  title, one per occurrence in the description.

Two design rules make everything downstream deterministic:

* **Integer edge weights.**  Integer sums are exact regardless of
  accumulation order, so the assembled graph (and every node degree) is
  identical whether layers were rebuilt cold or patched incrementally,
  whether they come from one database or from the shards that split it
  row-wise, and under any permutation of user/course ids.
* **Version-keyed layers.**  The adjacency is built as three independent
  layers (enrollment, comment, content), each stamped with
  :meth:`Database.versions` of its source tables — the one staleness
  rule of DESIGN §7.  A write to Comments invalidates only the
  comment layer; the other layers are reused verbatim, and the assembly
  walks a fixed layer order, so an incremental refresh reproduces the
  cold build bit for bit *by construction*.

Nodes are ``(kind, key)`` tuples — ``("user", suid)``,
``("course", course_id)``, ``("term", text)`` — and only nodes with at
least one edge exist (no dangling mass, so rank vectors stay normalized).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import truediv
from typing import Any, Dict, List, Tuple

from repro.errors import GraphRankError
from repro.minidb.catalog import Database
from repro.search.tokenizer import words

NodeId = Tuple[str, Any]
Edges = Dict[NodeId, Dict[NodeId, int]]
#: ``(starts, cols, vals)`` — see :meth:`TripartiteAdjacency.csr`
CsrView = Tuple[array, array, array]

#: fixed build + assembly order; changing it would change nothing semantically
#: (integer sums commute) but keeping it fixed makes the determinism
#: argument a one-liner.
LAYER_ORDER: Tuple[str, ...] = ("enrollment", "comment", "content")

#: edge units per occurrence of a term in a course title (a description
#: occurrence is one)
TITLE_WEIGHT = 2

#: source tables per layer — the version key of a layer snapshots exactly
#: these tables, so a write anywhere else cannot invalidate it.
LAYER_TABLES: Dict[str, Tuple[str, ...]] = {
    "enrollment": ("Enrollments",),
    "comment": ("Comments",),
    "content": ("Courses",),
}


@dataclass(frozen=True)
class AdjacencyLayer:
    """One independently rebuildable slice of the tripartite graph."""

    name: str
    version: Tuple[Any, ...]
    edges: Edges


def layer_version(database: Database, name: str) -> Tuple[Any, ...]:
    """The invalidation key of layer ``name`` over ``database``.

    Embeds the schema epoch and each source table's data version, so any
    DML on a source table (or any DDL at all) rotates the key — stale
    layers become unreachable by construction, never by bookkeeping.
    """
    tables = LAYER_TABLES.get(name)
    if tables is None:
        raise GraphRankError(f"unknown adjacency layer {name!r}")
    return database.versions(tables)


def _add_edge(edges: Edges, left: NodeId, right: NodeId, weight: int) -> None:
    """Accumulate an undirected integer-weight edge."""
    if left == right:
        return
    forward = edges.setdefault(left, {})
    forward[right] = forward.get(right, 0) + weight
    backward = edges.setdefault(right, {})
    backward[left] = backward.get(left, 0) + weight


def build_layer(name: str, database: Database) -> AdjacencyLayer:
    """Cold-build one layer from its source tables."""
    version = layer_version(database, name)
    edges: Edges = {}
    if name == "enrollment":
        rows = database.query("SELECT SuID, CourseID FROM Enrollments").rows
        for suid, course_id in rows:
            if suid is None or course_id is None:
                continue
            _add_edge(edges, ("user", suid), ("course", course_id), 1)
    elif name == "comment":
        rows = database.query(
            "SELECT SuID, CourseID, Text FROM Comments"
        ).rows
        for suid, course_id, text in rows:
            if suid is None or course_id is None:
                continue
            user: NodeId = ("user", suid)
            course: NodeId = ("course", course_id)
            _add_edge(edges, user, course, 1)
            if text:
                for term in words(str(text)):
                    node: NodeId = ("term", term)
                    _add_edge(edges, user, node, 1)
                    _add_edge(edges, course, node, 1)
    elif name == "content":
        rows = database.query(
            "SELECT CourseID, Title, Description FROM Courses"
        ).rows
        for course_id, title, description in rows:
            if course_id is None:
                continue
            course = ("course", course_id)
            for text, weight in ((title, TITLE_WEIGHT), (description, 1)):
                if not text:
                    continue
                for term in words(str(text)):
                    _add_edge(edges, course, ("term", term), weight)
    else:
        raise GraphRankError(f"unknown adjacency layer {name!r}")
    return AdjacencyLayer(name=name, version=version, edges=edges)


def graph_version(*shards: Dict[str, AdjacencyLayer]) -> Tuple[Any, ...]:
    """The identity of the graph over ``shards``: per shard, its layer
    versions in :data:`LAYER_ORDER`."""
    return tuple(
        tuple(layers[name].version for name in LAYER_ORDER)
        for layers in shards
    )


class TripartiteAdjacency:
    """The user–course–term graph, assembled once from one ``{name →
    layer}`` map per shard (the facade's graph is the one-shard call).

    ``nodes`` is the sorted node tuple (the deterministic iteration
    order) and ``degrees[u]`` the exact integer weighted degree.  The
    constructor sums the layer maps straight into the CSR view; the
    per-shard, per-layer maps stay the only edge maps.
    """

    def __init__(self, *shards: Dict[str, AdjacencyLayer]) -> None:
        for layers in shards:
            missing = [name for name in LAYER_ORDER if name not in layers]
            if missing:
                raise GraphRankError(f"missing adjacency layers: {missing}")
        self._version = graph_version(*shards)
        maps = [
            layers[name].edges for layers in shards for name in LAYER_ORDER
        ]
        degrees: Dict[NodeId, int] = {}
        for edges in maps:
            for node, bucket in edges.items():
                degrees[node] = degrees.get(node, 0) + sum(bucket.values())
        self.degrees = degrees
        self.nodes: Tuple[NodeId, ...] = tuple(sorted(degrees))
        self._view = self._rows(maps)
        self.edge_count = len(self._view[1]) // 2

    def _rows(self, maps: List[Edges]) -> CsrView:
        """The CSR view, row by row: each node's buckets in ``maps``
        summed into a transient dict keyed by node index, its columns
        sorted."""
        index = {node: i for i, node in enumerate(self.nodes)}
        column = index.__getitem__
        degree = [self.degrees[node] for node in self.nodes].__getitem__
        starts, cols, vals = array("q", [0]), array("q"), array("d")
        for node in self.nodes:
            buckets = [edges[node] for edges in maps if node in edges]
            first = buckets[0]
            row = dict(zip(map(column, first), first.values()))
            for other in buckets[1:]:
                for neighbor, weight in other.items():
                    i = column(neighbor)
                    row[i] = row.get(i, 0) + weight
            if not row:  # segment sums need non-empty rows
                raise GraphRankError(f"node {node!r} has no edges")
            ordered = sorted(row)
            cols.extend(ordered)
            vals.extend(
                map(truediv, map(row.__getitem__, ordered), map(degree, ordered))
            )
            starts.append(len(cols))
        return starts, cols, vals

    def csr(self) -> CsrView:
        """The graph over integer node ids, built by the constructor.

        Row ``i`` is ``nodes[i]``, its entries ``starts[i]:starts[i + 1]``:
        ``cols`` the neighbors' node indices **in ascending order**,
        ``vals`` the transition weights ``weight / degrees[neighbor]``.
        Layer maps enumerate in different orders in cold, incremental
        and sharded builds of one graph; sorted columns make the view —
        and a plain float sum along a row — a function of the graph alone.
        """
        return self._view

    def version_key(self) -> Tuple[Any, ...]:
        """The per-shard tuples of layer versions — the graph's identity."""
        return self._version

    def nodes_of_kind(self, kind: str) -> List[NodeId]:
        return [node for node in self.nodes if node[0] == kind]

    def __len__(self) -> int:
        return len(self.nodes)
