"""Unit tests for row storage, keys, and incremental index maintenance."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import IntegrityError, SchemaError
from repro.minidb import Database
from repro.minidb.indexes import HashIndex
from repro.minidb.schema import make_schema
from repro.minidb.table import Table
from repro.minidb.types import DataType


def students_table():
    schema = make_schema(
        "students",
        [
            ("SuID", DataType.INTEGER),
            ("Name", DataType.TEXT),
            ("GPA", DataType.FLOAT),
        ],
        primary_key=["SuID"],
        unique_keys=[["Name"]],
    )
    return Table(schema)


class TestInsert:
    def test_insert_returns_increasing_rowids(self):
        table = students_table()
        first = table.insert([1, "ann", 3.5])
        second = table.insert([2, "bob", 3.0])
        assert second > first

    def test_wrong_arity_rejected(self):
        with pytest.raises(SchemaError):
            students_table().insert([1, "ann"])

    def test_duplicate_pk_rejected(self):
        table = students_table()
        table.insert([1, "ann", 3.5])
        with pytest.raises(IntegrityError):
            table.insert([1, "other", 2.0])

    def test_null_pk_rejected(self):
        with pytest.raises(IntegrityError):
            students_table().insert([None, "ann", 3.5])

    def test_unique_constraint(self):
        table = students_table()
        table.insert([1, "ann", 3.5])
        with pytest.raises(IntegrityError):
            table.insert([2, "ann", 2.0])

    def test_null_in_unique_key_allowed_repeatedly(self):
        table = students_table()
        table.insert([1, None, 3.5])
        table.insert([2, None, 2.0])  # two NULL names are fine
        assert len(table) == 2

    def test_insert_dict_defaults_missing_to_null(self):
        table = students_table()
        table.insert_dict({"SuID": 1, "Name": "ann"})
        assert table.lookup_pk((1,)) == (1, "ann", None)

    def test_int_promoted_to_float_column(self):
        table = students_table()
        table.insert([1, "ann", 4])
        assert table.lookup_pk((1,))[2] == 4.0


class TestLookup:
    def test_lookup_pk_found_and_missing(self):
        table = students_table()
        table.insert([1, "ann", 3.5])
        assert table.lookup_pk((1,)) == (1, "ann", 3.5)
        assert table.lookup_pk((99,)) is None

    def test_scan_equal_without_index(self):
        table = students_table()
        table.insert([1, "ann", 3.5])
        table.insert([2, "bob", 3.5])
        rows = list(table.scan_equal("GPA", 3.5))
        assert len(rows) == 2

    def test_scan_equal_with_index(self):
        table = students_table()
        table.attach_index("by_gpa", HashIndex(), ["GPA"])
        table.insert([1, "ann", 3.5])
        table.insert([2, "bob", 3.0])
        rows = list(table.scan_equal("GPA", 3.0))
        assert rows == [(2, "bob", 3.0)]


class TestDelete:
    def test_delete_where(self):
        table = students_table()
        table.insert([1, "ann", 3.5])
        table.insert([2, "bob", 2.5])
        removed = table.delete_where(lambda row: row[2] < 3.0)
        assert removed == 1
        assert table.lookup_pk((2,)) is None

    def test_delete_frees_pk_for_reuse(self):
        table = students_table()
        table.insert([1, "ann", 3.5])
        table.delete_where(lambda row: True)
        table.insert([1, "ann2", 3.0])
        assert table.lookup_pk((1,)) == (1, "ann2", 3.0)

    def test_delete_updates_index(self):
        table = students_table()
        index = HashIndex()
        table.attach_index("by_gpa", index, ["GPA"])
        table.insert([1, "ann", 3.5])
        table.delete_where(lambda row: True)
        assert list(index.find((3.5,))) == []


class TestUpdate:
    def test_update_where_transform(self):
        table = students_table()
        table.insert([1, "ann", 3.5])
        touched = table.update_where(
            lambda row: row[0] == 1,
            lambda row: (row[0], row[1], 4.0),
        )
        assert touched == 1
        assert table.lookup_pk((1,))[2] == 4.0

    def test_update_pk_collision_rejected(self):
        table = students_table()
        table.insert([1, "ann", 3.5])
        table.insert([2, "bob", 2.5])
        with pytest.raises(IntegrityError):
            table.update_where(
                lambda row: row[0] == 2,
                lambda row: (1, row[1], row[2]),
            )

    def test_update_keeps_rowid_stable(self):
        table = students_table()
        rowid = table.insert([1, "ann", 3.5])
        table.update_rowid(rowid, (1, "ann", 3.9))
        assert table.get(rowid) == (1, "ann", 3.9)

    def test_update_maintains_unique_map(self):
        table = students_table()
        table.insert([1, "ann", 3.5])
        table.update_where(lambda row: True, lambda row: (1, "anna", 3.5))
        table.insert([2, "ann", 3.0])  # old name released
        with pytest.raises(IntegrityError):
            table.insert([3, "anna", 3.0])


class TestSnapshotRestore:
    def test_restore_rebuilds_state(self):
        table = students_table()
        table.insert([1, "ann", 3.5])
        snap = table.snapshot()
        next_rowid = table.next_rowid
        table.insert([2, "bob", 2.5])
        table.restore(snap, next_rowid)
        assert len(table) == 1
        assert table.lookup_pk((2,)) is None
        table.insert([2, "bob", 2.5])  # pk map was rebuilt correctly
        with pytest.raises(IntegrityError):
            table.insert([1, "dup", 1.0])

    def test_restore_rebuilds_indexes(self):
        table = students_table()
        index = HashIndex()
        table.attach_index("by_gpa", index, ["GPA"])
        table.insert([1, "ann", 3.5])
        snap = table.snapshot()
        next_rowid = table.next_rowid
        table.insert([2, "bob", 3.5])
        table.restore(snap, next_rowid)
        assert len(list(index.find((3.5,)))) == 1


class TestClear:
    def test_clear_empties_everything(self):
        table = students_table()
        table.insert([1, "ann", 3.5])
        table.clear()
        assert len(table) == 0
        table.insert([1, "ann", 3.5])  # keys were cleared


class TestNextId:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete"]),
                st.integers(min_value=-5, max_value=40),
            ),
            max_size=40,
        )
    )
    def test_equals_select_max_plus_one(self, ops):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x TEXT)")
        table = db.table("t")
        for op, key in ops:
            if op == "insert":
                if not table.contains_pk((key,)):
                    db.execute("INSERT INTO t VALUES (?, 'x')", [key])
            else:
                db.execute("DELETE FROM t WHERE id = ?", [key])
            current = db.query("SELECT MAX(id) FROM t").scalar()
            assert table.next_id() == (1 if current is None else current + 1)

    @pytest.mark.parametrize(
        "ddl",
        [
            "CREATE TABLE t (a INTEGER, b INTEGER, PRIMARY KEY (a, b))",
            "CREATE TABLE t (code TEXT PRIMARY KEY)",
            "CREATE TABLE t (x INTEGER)",
        ],
    )
    def test_needs_a_single_integer_key(self, ddl):
        db = Database()
        db.execute(ddl)
        with pytest.raises(SchemaError):
            db.table("t").next_id()


def _table_state(table):
    """Everything a reader of ``table`` can see, plus its counters."""
    gpa = table._indexes["by_gpa"].index
    return (
        list(table.rows_with_ids()),
        table.next_rowid,
        table.data_version,
        {pk: table.lookup_pk(pk) for pk in table._pk_map},
        table._unique_maps,
        {value: list(gpa.find((value,))) for value in {row[2] for row in table.rows()}},
    )


CHILD_DDL = (
    "CREATE TABLE Parent (ID INTEGER PRIMARY KEY);"
    "CREATE TABLE Child (ID INTEGER PRIMARY KEY, Name TEXT, ParentID INTEGER,"
    " UNIQUE (Name), FOREIGN KEY (ParentID) REFERENCES Parent (ID));"
    "CREATE INDEX idx_child_parent ON Child (ParentID);"
)

child_values = st.tuples(
    st.integers(min_value=0, max_value=12),
    st.one_of(st.none(), st.sampled_from(["ann", "bob", "cy", "di", "ed"])),
    st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
)


def _child_database(enforce, parents, stored):
    """Parent and Child tables; ``stored`` children are inserted as far
    as their keys (and, when enforced, foreign keys) admit."""
    database = Database(enforce_foreign_keys=enforce)
    database.execute_script(CHILD_DDL)
    for parent in sorted(parents):
        database.table("Parent").insert([parent])
    for values in stored:
        try:
            database.table("Child").insert(list(values))
        except IntegrityError:
            pass
    return database


def _child_state(table):
    """Rows, counters, key maps and index contents of a Child table."""
    (hook,) = table._indexes.values()
    return (
        list(table.rows_with_ids()),
        table.next_rowid,
        table.data_version,
        table._pk_map,
        table._unique_maps,
        hook.index._buckets,
    )


def _outcome(call):
    try:
        call()
    except IntegrityError as exc:
        return type(exc), str(exc)
    return None


class TestAppendFrom:
    @given(
        st.lists(child_values, max_size=8),
        st.lists(child_values, max_size=8),
        st.lists(st.integers(min_value=0, max_value=15), max_size=16),
        st.lists(child_values, max_size=4),
        st.sets(st.integers(min_value=0, max_value=4)),
        st.booleans(),
    )
    # One of each fault, wherever the draws fall: a unique key twice in
    # the batch, a primary key twice after two good rows, a unique key
    # already stored, a parent missing under enforcement, and none.
    @example([(1, "ann", None)], [(2, "ann", None)], [0, 1], [], set(), False)
    @example(
        [(1, "ann", None), (2, "bob", None)], [(1, "cy", None)],
        [0, 1, 2], [], set(), False,
    )
    @example(
        [(1, "ann", None), (2, "bob", None)], [], [0, 1],
        [(5, "bob", None)], set(), False,
    )
    @example([(1, "ann", 0), (2, "bob", 3)], [], [0, 1], [], {0}, True)
    @example([(1, "ann", 0), (2, "bob", 3)], [], [0, 1], [], {0, 3}, True)
    def test_bulk_equals_the_per_row_path(
        self, candidates, others, picks, stored, parents, enforce
    ):
        """Planted faults: a batch repeating a row (a duplicate primary
        key within it), rows of two tables of one schema (a duplicate
        unique key under distinct primary keys), children already stored
        under the same keys, and parents missing under enforced foreign
        keys.  The bulk append and per-row ``_store`` calls raise the
        same error and leave the same rows, key maps, index and data
        version."""
        source = _child_database(False, (), candidates).table("Child")
        other = _child_database(False, (), others).table("Child")
        rows = list(source.rows()) + list(other.rows())
        batch = [rows[pick % len(rows)] for pick in picks] if rows else []
        bulk = _child_database(enforce, parents, stored).table("Child")
        per_row = _child_database(enforce, parents, stored).table("Child")

        def store_each():
            for row in batch:
                per_row._store(row)

        assert _outcome(lambda: bulk.append_from(source, batch)) == (
            _outcome(store_each)
        )
        assert _child_state(bulk) == _child_state(per_row)

    def test_maps_and_index_share_each_rowid_object(self):
        source = students_table()
        for suid in range(400):  # rowids past the interpreter's small ints
            source.insert([suid, f"s{suid}", suid % 7 / 2])
        target = students_table()
        target.attach_index("by_gpa", HashIndex(), ["GPA"])
        target.append_from(source, source.rows())
        buckets = target._indexes["by_gpa"].index._buckets
        for rowid, row in target.rows_with_ids():
            assert target._pk_map[(row[0],)] is rowid
            assert target._unique_maps[0][(row[1],)] is rowid
            (member,) = [r for r in buckets[(row[2],)] if r == rowid]
            assert member is rowid

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.one_of(st.none(), st.sampled_from(["ann", "bob", "cy", "di"])),
                st.one_of(st.none(), st.integers(0, 4), st.sampled_from([2.5, 3.5])),
            ),
            max_size=25,
        ),
        st.integers(min_value=0, max_value=3),
    )
    def test_equals_per_row_inserts(self, candidates, already):
        # The source keeps the candidates its keys admit, normalized.
        source = students_table()
        for values in candidates:
            try:
                source.insert(list(values))
            except IntegrityError:
                pass
        bulk, reference = students_table(), students_table()
        for table in (bulk, reference):
            table.attach_index("by_gpa", HashIndex(), ["GPA"])
            for suid in range(100, 100 + already):  # a non-empty target
                table.insert([suid, None, 1.0])
        bulk.append_from(source, source.rows())
        for row in source.rows():
            reference.insert(list(row))
        assert _table_state(bulk) == _table_state(reference)
        # The source's tuples are shared, not copied.
        assert all(
            shared is row
            for shared, row in zip(list(bulk.rows())[already:], source.rows())
        )

    def test_duplicate_primary_key_rejected(self):
        source, target = students_table(), students_table()
        source.insert([1, "ann", 3.5])
        target.insert([1, "bob", 3.0])
        with pytest.raises(IntegrityError):
            target.append_from(source, source.rows())

    def test_duplicate_unique_key_rejected(self):
        source, target = students_table(), students_table()
        source.insert([1, "ann", 3.5])
        target.insert([2, "ann", 3.0])
        with pytest.raises(IntegrityError):
            target.append_from(source, source.rows())

    def test_different_schema_rejected(self):
        source = Table(
            make_schema(
                "students",
                [("SuID", DataType.INTEGER), ("Name", DataType.TEXT), ("GPA", DataType.TEXT)],
                primary_key=["SuID"],
                unique_keys=[["Name"]],
            )
        )
        source.insert([1, "ann", "A"])
        target = students_table()
        with pytest.raises(SchemaError):
            target.append_from(source, source.rows())
        assert len(target) == 0 and target.data_version == 0

    def test_foreign_keys_enforced(self):
        ddl = (
            "CREATE TABLE Parent (ID INTEGER PRIMARY KEY);"
            "CREATE TABLE Child (ID INTEGER PRIMARY KEY, ParentID INTEGER,"
            " FOREIGN KEY (ParentID) REFERENCES Parent (ID));"
        )
        source = Database(enforce_foreign_keys=False)
        source.execute_script(ddl)
        source.table("Child").insert([1, 7])
        target = Database(enforce_foreign_keys=True)
        target.execute_script(ddl)
        with pytest.raises(IntegrityError):
            target.table("Child").append_from(
                source.table("Child"), source.table("Child").rows()
            )
        target.table("Parent").insert([7])
        target.table("Child").append_from(
            source.table("Child"), source.table("Child").rows()
        )
        assert list(target.table("Child").rows()) == [(1, 7)]


class TestNormalizeOnce:
    def test_catalog_insert_and_update_normalize_once(self, monkeypatch):
        database = Database()
        database.execute_script(
            "CREATE TABLE T (ID INTEGER PRIMARY KEY, Score FLOAT)"
        )
        table = database.table("T")
        calls = []
        normalize = Table._normalize
        monkeypatch.setattr(
            Table,
            "_normalize",
            lambda self, values: calls.append(values) or normalize(self, values),
        )
        rowid = table.insert([1, 2])
        assert len(calls) == 1 and table.get(rowid) == (1, 2.0)
        table.update_rowid(rowid, [1, 3])
        assert len(calls) == 2 and table.get(rowid) == (1, 3.0)
