"""Version-keyed tripartite adjacency: layers, assembly, invalidation.

The determinism story of the whole graphrank stack rests on two facts
pinned here: edge weights are exact integers (so merge order cannot
matter), and each layer's version key snapshots exactly its own source
tables (so a write elsewhere reuses the layer verbatim).
"""

import gc
import threading
import weakref

import pytest

from repro.courserank import CourseRank
from repro.datagen import generate_university
from repro.errors import GraphRankError
from repro.graphrank import (
    LAYER_ORDER,
    LAYER_TABLES,
    GraphRankEngine,
    TripartiteAdjacency,
    build_layer,
    layer_version,
)
from tests.graphrank.conftest import merged_edges


@pytest.fixture(scope="module")
def db():
    return generate_university(scale="tiny", seed=7)


def _fresh_pair(database, course_id):
    """A (SuID, course_id) pair that satisfies both FKs and the PK."""
    commented = {
        tuple(row)
        for row in database.query(
            "SELECT SuID, CourseID FROM Comments"
        ).rows
    }
    for (suid,) in database.query(
        "SELECT SuID FROM Students ORDER BY SuID"
    ).rows:
        if (suid, course_id) not in commented:
            return suid, course_id
    raise AssertionError("no free (student, course) pair at this scale")


def test_layer_order_covers_every_table_spec():
    assert set(LAYER_ORDER) == set(LAYER_TABLES)


def test_unknown_layer_raises(db):
    with pytest.raises(GraphRankError):
        build_layer("bogus", db)


def test_missing_layer_rejected_at_merge(db):
    enrollment = build_layer("enrollment", db)
    with pytest.raises(GraphRankError):
        TripartiteAdjacency({"enrollment": enrollment})


def test_edges_are_symmetric_integers(db):
    engine = GraphRankEngine(db)
    adjacency = engine.refresh()
    assert len(adjacency) > 0 and adjacency.edge_count > 0
    edges = merged_edges(engine.layers())
    assert adjacency.nodes == tuple(sorted(edges))
    assert adjacency.edge_count == sum(map(len, edges.values())) // 2
    for node, neighbors in edges.items():
        for neighbor, weight in neighbors.items():
            assert type(weight) is int and weight >= 1
            assert edges[neighbor][node] == weight
        assert adjacency.degrees[node] == sum(neighbors.values())


def test_every_node_has_a_kind_and_degree(db):
    adjacency = GraphRankEngine(db).refresh()
    kinds = {node[0] for node in adjacency.nodes}
    assert kinds <= {"user", "course", "term"}
    assert all(adjacency.degrees[node] >= 1 for node in adjacency.nodes)


def test_version_key_moves_only_with_source_tables(db):
    before = {name: layer_version(db, name) for name in LAYER_ORDER}
    suid, course_id = _fresh_pair(db, 2)
    db.execute(
        "INSERT INTO Comments VALUES "
        f"({suid}, {course_id}, 2008, 'Autumn', "
        "'adjacency probe text', 4.0, '2008-01-01')"
    )
    try:
        after = {name: layer_version(db, name) for name in LAYER_ORDER}
        assert after["comment"] != before["comment"]
        assert after["enrollment"] == before["enrollment"]
        assert after["content"] == before["content"]
    finally:
        db.execute("DELETE FROM Comments WHERE Text = 'adjacency probe text'")


def test_incremental_refresh_reuses_untouched_layers(db):
    engine = GraphRankEngine(db)
    engine.refresh()
    rebuilt, reused = engine.layers_rebuilt, engine.layers_reused
    suid, course_id = _fresh_pair(db, 3)
    db.execute(
        "INSERT INTO Comments VALUES "
        f"({suid}, {course_id}, 2008, 'Winter', "
        "'incremental probe text', 3.5, '2008-01-02')"
    )
    try:
        engine.refresh()
        # Only the comment layer went stale.
        assert engine.layers_rebuilt == rebuilt + 1
        assert engine.layers_reused == reused + 2
    finally:
        db.execute(
            "DELETE FROM Comments WHERE Text = 'incremental probe text'"
        )


def test_incremental_merge_equals_cold_build(db):
    live = GraphRankEngine(db)
    live.refresh()
    suid, course_id = _fresh_pair(db, 4)
    db.execute(
        "INSERT INTO Comments VALUES "
        f"({suid}, {course_id}, 2008, 'Spring', "
        "'merge parity probe', 5.0, '2008-01-03')"
    )
    try:
        incremental = live.refresh()
        cold_engine = GraphRankEngine(db)
        cold = cold_engine.refresh()
        assert incremental.version_key() == cold.version_key()
        assert incremental.nodes == cold.nodes
        assert merged_edges(live.layers()) == merged_edges(
            cold_engine.layers()
        )
        assert incremental.degrees == cold.degrees
        assert incremental.csr() == cold.csr()
    finally:
        db.execute("DELETE FROM Comments WHERE Text = 'merge parity probe'")


def test_for_database_returns_one_shared_engine(db):
    assert GraphRankEngine.for_database(db) is GraphRankEngine.for_database(db)


def test_for_database_pins_no_database():
    """The engine keeps its database, but nothing keeps the engine."""
    database = generate_university(scale="tiny", seed=5)
    app = CourseRank(database)
    app.recommendations.run("graph_rank_courses", student_id=1)
    assert GraphRankEngine.for_database(database).database is database
    alive = weakref.ref(database)
    del app, database
    gc.collect()
    assert alive() is None


def test_for_database_one_engine_under_concurrent_first_use():
    database = generate_university(scale="tiny", seed=5)
    barrier = threading.Barrier(6)
    engines = []

    def first_use():
        barrier.wait()
        engines.append(GraphRankEngine.for_database(database))

    threads = [threading.Thread(target=first_use) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert len(engines) == 6
    assert all(engine is engines[0] for engine in engines)
