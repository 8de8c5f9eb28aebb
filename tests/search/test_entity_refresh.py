"""``EntityDefinition.collect_texts_for``: the per-write refresh query.

One constant, key-parameterised wrapper per field, so every write after
the first reuses minidb's parsed statement and cached plan; the key
column is named once per (definition, database, schema epoch).
"""

import repro.minidb.planner as planner_module
import repro.search.entity as entity_module
from repro.courserank.schema import new_database
from repro.search.entity import course_entity


def _database():
    database = new_database()
    database.execute("INSERT INTO Departments VALUES (1, 'CS', 'Eng', TRUE)")
    database.execute(
        "INSERT INTO Courses VALUES (1, 1, 'Databases', 'relations', 4, ''), "
        "(2, 1, 'Networks', 'packets', 3, ''), (3, 1, 'Logic', NULL, 3, '')"
    )
    database.execute("INSERT INTO Students VALUES (10, 'Ann', 2010, 'CS', NULL)")
    database.execute("INSERT INTO Instructors VALUES (5, 'Prof Codd', 1)")
    database.execute("INSERT INTO Teaches VALUES (5, 1), (5, 3)")
    database.execute(
        "INSERT INTO Comments VALUES "
        "(10, 1, 2008, 'Aut', 'great joins', 5.0, DATE '2008-10-01')"
    )
    return database


def test_one_entity_equals_its_slice_of_the_full_collection():
    database = _database()
    entity = course_entity()
    everything = entity.collect_texts(database)
    assert set(everything) == {1, 2, 3}
    for key, expected in everything.items():
        assert entity.collect_texts_for(database, key) == expected
    assert entity.collect_texts_for(database, 99) is None
    assert entity.collect_texts_for(database, None) is None


def test_writes_after_the_first_neither_parse_nor_plan(monkeypatch):
    database = _database()
    entity = course_entity()
    named = []
    plan_select = planner_module.plan_select

    def counting(db, statement):
        named.append(statement)
        return plan_select(db, statement)

    # _first_column resolves planner.plan_select at call time; the
    # executor holds its own binding, so only key-column naming counts.
    monkeypatch.setattr(planner_module, "plan_select", counting)
    entity.collect_texts_for(database, 1)
    assert len(named) == len(entity.fields)
    misses = database._plan_cache.misses
    for key in (2, 3, 1, 99):
        entity.collect_texts_for(database, key)
    assert len(named) == len(entity.fields)
    assert database._plan_cache.misses == misses
    # DDL moves the schema epoch: the key columns are named afresh.
    database.execute("CREATE INDEX idx_instructors_dep ON Instructors (DepID)")
    entity.collect_texts_for(database, 1)
    assert len(named) == 2 * len(entity.fields)


def test_the_wrapper_plans_like_the_literal_form_it_replaces():
    database = _database()
    entity = course_entity()
    for spec, wrapped in zip(entity.fields, entity._key_queries(database)):
        assert wrapped.count("?") == 1 and spec.sql in wrapped
        bound = database.query("EXPLAIN " + wrapped, (1,)).column("QUERY PLAN")
        literal = database.query(
            "EXPLAIN " + wrapped.replace("?", "1")
        ).column("QUERY PLAN")
        assert [line.replace("?", "1") for line in bound] == literal


def test_the_key_is_bound_not_printed():
    assert not hasattr(entity_module, "_sql_literal")
