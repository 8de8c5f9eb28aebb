"""Tripartite user–course–term adjacency for FolkRank-style ranking.

The folksonomy literature ("Deeper Into the Folksonomy Graph") ranks by
spreading weight over the undirected tripartite graph of users, items,
and tags.  CourseRank's analogue: **users** (students), **courses**, and
**terms** (display vocabulary mined from comment and course text, the
same unstemmed unigrams the data clouds show).  Edges:

* user–course — one unit per enrollment, plus one per comment;
* user–term / course–term — one unit per occurrence of the term in a
  comment that user left on that course;
* course–term — ``title_weight`` units per occurrence in the course
  title, one per occurrence in the description.

Two design rules make everything downstream deterministic:

* **Integer edge weights.**  Integer sums are exact regardless of
  accumulation order, so the merged adjacency (and every node degree) is
  identical whether layers were rebuilt cold or patched incrementally,
  and identical under any permutation of user/course ids.
* **Version-keyed layers.**  The adjacency is built as three independent
  layers (enrollment, comment, content), each stamped with
  :meth:`Database.versions` of its source tables — the one staleness
  rule of DESIGN §7.  A write to Comments invalidates only the
  comment layer; the other layers are reused verbatim, and the merge
  runs in a fixed layer order, so an incremental refresh reproduces the
  cold build bit for bit *by construction*.

Nodes are ``(kind, key)`` tuples — ``("user", suid)``,
``("course", course_id)``, ``("term", text)`` — and only nodes with at
least one edge exist (no dangling mass, so rank vectors stay normalized).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import GraphRankError
from repro.minidb.catalog import Database
from repro.search.phrases import display_unigrams
from repro.search.tokenizer import Tokenizer

NodeId = Tuple[str, Any]
Edges = Dict[NodeId, Dict[NodeId, int]]
#: ``(starts, cols, vals)`` — see :meth:`TripartiteAdjacency.csr`
CsrView = Tuple[array, array, array]

#: fixed build + merge order; changing it would change nothing semantically
#: (integer sums commute) but keeping it fixed makes the determinism
#: argument a one-liner.
LAYER_ORDER: Tuple[str, ...] = ("enrollment", "comment", "content")

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


def build_layer(
    name: str,
    database: Database,
    tokenizer: Optional[Tokenizer] = None,
    title_weight: int = 2,
) -> AdjacencyLayer:
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
                for term in display_unigrams(str(text), tokenizer):
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
            for text, weight in ((title, title_weight), (description, 1)):
                if not text:
                    continue
                for term in display_unigrams(str(text), tokenizer):
                    _add_edge(edges, course, ("term", term), weight)
    else:
        raise GraphRankError(f"unknown adjacency layer {name!r}")
    return AdjacencyLayer(name=name, version=version, edges=edges)


class TripartiteAdjacency:
    """The merged user–course–term graph, ready for power iteration.

    ``nodes`` is the sorted node tuple (the deterministic iteration
    order), ``neighbors[u]`` maps each neighbor to the summed integer
    edge weight, and ``degrees[u]`` is the (exact, integer) weighted
    degree.  Merging always walks :data:`LAYER_ORDER`, so a graph
    assembled from any mix of cached and rebuilt layers is identical to
    a cold build over the same data.
    """

    def __init__(self, layers: Dict[str, AdjacencyLayer]) -> None:
        missing = [name for name in LAYER_ORDER if name not in layers]
        if missing:
            raise GraphRankError(f"missing adjacency layers: {missing}")
        self.layers = {name: layers[name] for name in LAYER_ORDER}
        merged: Edges = {}
        for name in LAYER_ORDER:
            for node, neighbors in self.layers[name].edges.items():
                bucket = merged.setdefault(node, {})
                for neighbor, weight in neighbors.items():
                    bucket[neighbor] = bucket.get(neighbor, 0) + weight
        self.neighbors: Edges = merged
        self.nodes: Tuple[NodeId, ...] = tuple(sorted(merged))
        self.degrees: Dict[NodeId, int] = {
            node: sum(neighbors.values())
            for node, neighbors in merged.items()
        }
        self.edge_count = (
            sum(len(neighbors) for neighbors in merged.values()) // 2
        )
        self._csr: Optional[CsrView] = None

    def csr(self) -> CsrView:
        """The graph over integer node ids, built once per adjacency.

        Row ``i`` is ``nodes[i]``, its entries ``starts[i]:starts[i + 1]``:
        ``cols`` the neighbors' node indices **in ascending order**,
        ``vals`` the transition weights ``weight / degrees[neighbor]``.
        Dict order differs between cold, incremental and shard-merged
        builds of one graph; sorted columns make the view — and a plain
        float sum along a row — a function of the graph alone.  The
        ``array`` buffers are published as one tuple, so a racing reader
        sees all of the view or none.
        """
        view = self._csr
        if view is None:
            index = {node: i for i, node in enumerate(self.nodes)}
            degrees = self.degrees
            starts, cols, vals = array("q", [0]), array("q"), array("d")
            for node in self.nodes:
                bucket = self.neighbors[node]
                if not bucket:  # segment sums need non-empty rows
                    raise GraphRankError(f"node {node!r} has no edges")
                sources = sorted(bucket, key=index.__getitem__)
                cols.extend(map(index.__getitem__, sources))
                vals.extend(bucket[s] / degrees[s] for s in sources)
                starts.append(len(cols))
            view = self._csr = (starts, cols, vals)
        return view

    def version_key(self) -> Tuple[Any, ...]:
        """The concatenated layer versions — the graph's identity."""
        return tuple(self.layers[name].version for name in LAYER_ORDER)

    def nodes_of_kind(self, kind: str) -> List[NodeId]:
        return [node for node in self.nodes if node[0] == kind]

    def __contains__(self, node: NodeId) -> bool:
        return node in self.degrees

    def __len__(self) -> int:
        return len(self.nodes)
