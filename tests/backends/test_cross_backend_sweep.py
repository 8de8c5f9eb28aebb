"""sqlite3-mirror unit coverage.

Pins the mirror's ``?`` passthrough, its snapshot-sync staleness rules,
its refusal to run workflows without a catalog, and the facade's path
routing onto it.
"""

import pytest

from repro.backends import Sqlite3Backend
from repro.core import NumericCloseness, Workflow
from repro.core.operators import Recommend, Select, Source
from repro.courserank.recommendations import RecommendationService
from repro.errors import BackendError, FlexRecsError
from repro.obs import OBS


def gpa_workflow(suid=444):
    return Workflow(
        Recommend(
            target=Source("Students"),
            reference=Select(Source("Students"), f"SuID = {suid}"),
            comparator=NumericCloseness("GPA", "GPA"),
            target_key="SuID",
            exclude_self=("SuID", "SuID"),
        )
    )


class TestPlaceholders:
    """sqlite3's paramstyle is the compiler's ``qmark``: SQL text reaches
    the driver unchanged and parameters bind left to right."""

    def test_qmark_is_identity(self):
        with Sqlite3Backend() as mirror:
            mirror.execute("CREATE TABLE t (a INTEGER, b TEXT)")
            mirror.execute("INSERT INTO t VALUES (?, ?)", [1, "x"])
            result = mirror.execute(
                "SELECT a, b FROM t WHERE a = ? AND b = ?", [1, "x"]
            )
        assert result.rows == [(1, "x")]

    def test_question_marks_inside_literals_survive(self):
        with Sqlite3Backend() as mirror:
            result = mirror.execute(
                "SELECT 'what?' || ?, 'it''s ?' = ?", ["!", "it's ?"]
            )
        assert result.rows == [("what?!", 1)]


class TestSnapshotSync:
    def test_sync_is_version_keyed(self, flexdb):
        with Sqlite3Backend(flexdb) as mirror:
            mirror.sync()
            first = dict(mirror._synced)
            mirror.sync()  # no DML in between: fingerprints unchanged
            assert mirror._synced == first
            flexdb.execute(
                "INSERT INTO Comments VALUES "
                "(447, 6, 2008, 'Win', 'late', 3.5, '2008-12-01')"
            )
            mirror.sync()
            assert mirror._synced["comments"] != first["comments"]
            # untouched tables keep their fingerprint (not recopied)
            assert mirror._synced["students"] == first["students"]
            count = mirror.execute("SELECT COUNT(*) FROM Comments")
            assert count.rows[0][0] == flexdb.query(
                "SELECT COUNT(*) FROM Comments"
            ).scalar()

    def test_dropped_table_disappears_from_mirror(self, flexdb):
        with Sqlite3Backend(flexdb) as mirror:
            mirror.sync()
            assert "offerings" in mirror._synced
            flexdb.execute("DROP TABLE Offerings")
            mirror.sync()
            assert "offerings" not in mirror._synced
            tables = mirror.execute(
                "SELECT lower(name) FROM sqlite_master WHERE type = 'table'"
            )
            assert ("offerings",) not in tables.rows
            assert ("students",) in tables.rows

    def test_catalog_free_backend_refuses_sync_and_workflows(self):
        with Sqlite3Backend() as mirror:
            with pytest.raises(BackendError):
                mirror.sync()
            with pytest.raises(BackendError):
                mirror.run(gpa_workflow())

    def test_a_second_run_with_no_write_reloads_no_table(
        self, flexdb, monkeypatch
    ):
        loaded = []
        load_table = Sqlite3Backend._load_table

        def counting(self, table):
            loaded.append(table.name)
            load_table(self, table)

        monkeypatch.setattr(Sqlite3Backend, "_load_table", counting)
        service = RecommendationService(flexdb)

        def run():
            return service.run(
                "similar_grade_students", path="sqlite3", student_id=444
            )

        first = run()
        assert loaded
        loaded.clear()
        assert run().rows == first.rows
        assert loaded == []


class TestServiceRouting:
    def test_path_names_a_backend_per_call(self, flexdb):
        service = RecommendationService(flexdb)
        via_sqlite = service.run(
            "similar_grade_students", path="sqlite3", student_id=444
        )
        via_sql = service.run(
            "similar_grade_students", path="sql", student_id=444
        )
        assert via_sqlite.columns == via_sql.columns
        assert via_sqlite.rows == via_sql.rows

    def test_unknown_path_names_it(self, flexdb):
        service = RecommendationService(flexdb)
        with pytest.raises(FlexRecsError) as excinfo:
            service.run(
                "grade_based_filtering", path="postgres14", student_id=444
            )
        assert "postgres14" in str(excinfo.value)

    def test_minidb_is_not_a_path(self, flexdb):
        # Compiled SQL on minidb is path="sql"; "minidb" is unknown like
        # any other name.
        service = RecommendationService(flexdb)
        with pytest.raises(FlexRecsError) as excinfo:
            service.run("grade_based_filtering", path="minidb", student_id=444)
        assert "'minidb'" in str(excinfo.value)

    def test_unnamed_service_answers_from_the_direct_executor(self, flexdb):
        # Only the direct executor records RecommendStats; both compiled
        # paths leave them empty.
        service = RecommendationService(flexdb)
        assert service.run("grade_based_filtering", student_id=444).stats
        for path in ("sql", "sqlite3"):
            assert not service.run(
                "grade_based_filtering", path=path, student_id=444
            ).stats


class TestObservability:
    def test_metrics_silent_when_disabled(self, flexdb):
        OBS.reset()
        assert not OBS.enabled
        RecommendationService(flexdb).run(
            "grade_based_filtering", path="sqlite3", student_id=444
        )
        snapshot = OBS.snapshot()
        assert snapshot["metrics"]["counters"] == {}
        assert OBS.tracer.records() == []
