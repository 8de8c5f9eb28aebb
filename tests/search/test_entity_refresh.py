"""``EntityDefinition.collect_texts_for``: the per-write refresh query.

One constant, key-parameterised wrapper per field, so every write after
the first reuses minidb's parsed statement and cached plan; the key
column is named once per (definition, database, schema epoch).
"""

import repro.minidb.planner as planner_module
import repro.search.entity as entity_module
from repro.courserank.schema import new_database
from repro.minidb.sql.parser import parse_statement
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


def _assert_slices_equal_the_collection(database, entity, keys):
    everything = entity.collect_texts(database)
    assert set(everything) == keys
    for key, expected in everything.items():
        assert entity.collect_texts_for(database, key) == expected
    assert entity.collect_texts_for(database, 99) is None
    assert entity.collect_texts_for(database, None) is None


def test_one_entity_equals_its_slice_of_the_full_collection():
    """Chunk order included: the refresh reads a course's comments through
    an index, the full collection scans the table, and after a re-comment
    (an UPDATE in place) or a delete both must still list the chunks in
    one order — the phrase terms at chunk boundaries depend on it."""
    database = _database()
    entity = course_entity()
    _assert_slices_equal_the_collection(database, entity, {1, 2, 3})
    database.execute(
        "INSERT INTO Students VALUES (11, 'Bo', 2010, 'CS', NULL), "
        "(12, 'Cy', 2011, 'EE', NULL)"
    )
    database.execute(
        "INSERT INTO Comments VALUES "
        "(11, 1, 2008, 'Aut', 'slow lectures', 2.0, DATE '2008-10-02'), "
        "(12, 1, 2008, 'Aut', 'fair exams', 4.0, DATE '2008-10-03')"
    )
    database.execute(
        "UPDATE Comments SET Text = 'joins again' "
        "WHERE SuID = 10 AND CourseID = 1"
    )
    first = entity.collect_texts_for(database, 1)["comments"]
    assert first == ["joins again", "slow lectures", "fair exams"]
    _assert_slices_equal_the_collection(database, entity, {1, 2, 3})
    database.execute("DELETE FROM Comments WHERE SuID = 11 AND CourseID = 1")
    database.execute(
        "INSERT INTO Comments VALUES "
        "(11, 1, 2009, 'Win', 'better now', 3.0, DATE '2009-01-05')"
    )
    _assert_slices_equal_the_collection(database, entity, {1, 2, 3})


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
    """The planner moves the wrapper's ``= ?`` into the field query: under
    the SubqueryScan sits exactly the plan of the field query with the key
    predicate written in by hand, and no table is read in full."""
    database = _database()
    entity = course_entity()
    for spec, wrapped in zip(entity.fields, entity._key_queries(database)):
        assert wrapped.count("?") == 1 and spec.sql in wrapped
        bound = database.query("EXPLAIN " + wrapped, (1,)).column("QUERY PLAN")
        assert bound[1].strip() == "SubqueryScan(AS __entity)"
        assert not any("SeqScan" in line for line in bound), bound
        key = parse_statement(spec.sql).items[0].expression.to_sql()
        pushed = database.query(
            f"EXPLAIN {spec.sql} WHERE {key} = ?", (1,)
        ).column("QUERY PLAN")
        assert [line[4:] for line in bound[2:]] == pushed
        literal = database.query(
            "EXPLAIN " + wrapped.replace("?", "1")
        ).column("QUERY PLAN")
        assert [line.replace("?1", "1") for line in bound] == literal


def test_the_key_is_bound_not_printed():
    assert not hasattr(entity_module, "_sql_literal")
