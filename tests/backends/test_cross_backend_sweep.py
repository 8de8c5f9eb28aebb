"""Cross-backend sweep wiring plus backend-layer unit coverage.

The sweep test is the tier-1 slice of the nightly job: a small
differential fuzz budget with the repro.backends drivers registered as
extra execution engines, asserting zero divergence.  The unit tests pin
the registry, placeholder conversion, snapshot-sync staleness rules,
service routing, and the per-backend observability counters.
"""

import sqlite3

import pytest

from repro.backends import (
    BackendRegistry,
    DbApiBackend,
    REGISTRY,
    SQLITE_DIALECT,
    convert_placeholders,
    create_backend,
    default_backend_name,
)
from repro.core import NumericCloseness, Workflow
from repro.core.operators import Recommend, Select, Source
from repro.courserank.recommendations import RecommendationService
from repro.errors import BackendCapabilityError, BackendError
from repro.minidb import Database
from repro.obs import OBS
from repro.testkit import oracle


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


class TestCrossBackendSweep:
    def test_differential_sweep_with_backends_registered(self):
        names = oracle.register_default_backends()
        try:
            assert names and all(
                name in oracle.SCRIPT_BACKENDS for name in names
            )
            report = oracle.run_differential(min_query_ops=40, base_seed=7)
            assert report.ok, report.failures and [
                line
                for failure in report.failures
                for line in failure.report.divergences[:3]
            ]
            assert report.query_ops >= 40
        finally:
            for name in names:
                oracle.unregister_script_backend(name)
        assert all(name not in oracle.SCRIPT_BACKENDS for name in names)


class TestRegistry:
    def test_stock_backends_registered(self):
        assert REGISTRY.is_registered("minidb")
        assert REGISTRY.is_registered("sqlite3")
        assert {"minidb", "sqlite3"} <= set(REGISTRY.names())

    def test_unknown_backend_lists_names(self):
        with pytest.raises(BackendError) as excinfo:
            create_backend("postgres14")
        assert "postgres14" in str(excinfo.value)
        assert "minidb" in str(excinfo.value)

    def test_register_dbapi_any_pep249_connection(self, flexdb):
        registry = BackendRegistry()
        registry.register_dbapi(
            "sqlite3-file",
            lambda: sqlite3.connect(":memory:"),
            dialect=SQLITE_DIALECT,
        )
        backend = registry.create("sqlite3-file", flexdb)
        try:
            assert isinstance(backend, DbApiBackend)
            backend.sync()
            result = backend.execute("SELECT COUNT(*) FROM Students")
            assert result.rows == [(4,)]
        finally:
            backend.close()

    def test_minidb_backend_is_a_context_manager(self, flexdb):
        with create_backend("minidb", flexdb) as backend:
            result = backend.execute("SELECT COUNT(*) FROM Students")
        assert result.rows == [(4,)]

    def test_default_backend_name_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend_name() == "minidb"
        monkeypatch.setenv("REPRO_BACKEND", "SQLite3 ")
        assert default_backend_name() == "sqlite3"


class TestPlaceholders:
    def test_qmark_is_identity(self):
        sql = "SELECT * FROM t WHERE a = ? AND b = ?"
        assert convert_placeholders(sql, "qmark") == sql

    def test_format_and_numeric(self):
        sql = "SELECT * FROM t WHERE a = ? AND b = ?"
        assert (
            convert_placeholders(sql, "format")
            == "SELECT * FROM t WHERE a = %s AND b = %s"
        )
        assert (
            convert_placeholders(sql, "numeric")
            == "SELECT * FROM t WHERE a = :1 AND b = :2"
        )

    def test_question_marks_inside_literals_survive(self):
        sql = "SELECT 'what?' || ? FROM t WHERE note = 'it''s ?' AND a = ?"
        assert (
            convert_placeholders(sql, "numeric")
            == "SELECT 'what?' || :1 FROM t WHERE note = 'it''s ?' AND a = :2"
        )

    def test_unsupported_paramstyle(self):
        with pytest.raises(BackendCapabilityError):
            convert_placeholders("SELECT ?", "pyformat")


class TestSnapshotSync:
    def test_sync_is_version_keyed(self, flexdb):
        with create_backend("sqlite3", flexdb) as backend:
            backend.sync()
            first = dict(backend._synced)
            backend.sync()  # no DML in between: fingerprints unchanged
            assert backend._synced == first
            flexdb.execute(
                "INSERT INTO Comments VALUES "
                "(447, 6, 2008, 'Win', 'late', 3.5, '2008-12-01')"
            )
            backend.sync()
            assert backend._synced["comments"] != first["comments"]
            # untouched tables keep their fingerprint (not recopied)
            assert backend._synced["students"] == first["students"]
            count = backend.execute("SELECT COUNT(*) FROM Comments")
            assert count.rows[0][0] == flexdb.query(
                "SELECT COUNT(*) FROM Comments"
            ).scalar()

    def test_dropped_table_disappears_from_mirror(self, flexdb):
        with create_backend("sqlite3", flexdb) as backend:
            backend.sync()
            assert "offerings" in backend._synced
            flexdb.execute("DROP TABLE Offerings")
            backend.sync()
            assert "offerings" not in backend._synced
            assert "offerings" not in backend.table_names()

    def test_catalog_free_backend_refuses_sync_and_workflows(self):
        with create_backend("sqlite3") as backend:
            with pytest.raises(BackendError):
                backend.sync()
            with pytest.raises(BackendError):
                backend.execute_workflow(gpa_workflow())


class TestServiceRouting:
    def test_constructor_backend_runs_sqlite3(self, flexdb):
        service = RecommendationService(flexdb, backend="sqlite3")
        via_sqlite = service.run("collaborative_filtering", student_id=444)
        reference = RecommendationService(flexdb).run(
            "collaborative_filtering", student_id=444
        )
        assert via_sqlite.columns == reference.columns
        assert via_sqlite.rows == reference.rows

    def test_path_names_a_backend_per_call(self, flexdb):
        service = RecommendationService(flexdb, backend="minidb")
        assert service.backend_name == "minidb"
        via_path = service.run(
            "similar_grade_students", path="sqlite3", student_id=444
        )
        via_sql = service.run("similar_grade_students", student_id=444)
        assert via_path.rows == via_sql.rows
        # the driver is cached for incremental syncs across calls
        assert service.backend("sqlite3") is service.backend("sqlite3")

    def test_env_selects_service_backend(self, flexdb, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sqlite3")
        service = RecommendationService(flexdb)
        assert service.backend_name == "sqlite3"
        # A named backend makes compiled SQL on it the default path (an
        # unnamed service answers from the direct executor): this is what
        # keeps the CI backend=sqlite3 leg on sqlite3.
        OBS.reset()
        OBS.enable()
        try:
            result = service.run("grade_based_filtering", student_id=444)
            paths = [
                record.attrs["path"]
                for record in OBS.tracer.records()
                if record.name == "recommend.run"
            ]
            assert paths == ["sql"]
            assert OBS.metrics.counter("backend.sqlite3.queries") == 1
        finally:
            OBS.disable()
            OBS.reset()
        assert result.rows and not result.stats

    def test_unnamed_service_answers_from_the_direct_executor(
        self, flexdb, monkeypatch
    ):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        service = RecommendationService(flexdb)
        assert (service.backend_name, service.default_path) == ("minidb", "direct")
        assert service.run("grade_based_filtering", student_id=444).stats
        named = RecommendationService(flexdb, backend="minidb")
        assert (named.backend_name, named.default_path) == ("minidb", "sql")
        assert not named.run("grade_based_filtering", student_id=444).stats


class TestObservability:
    def test_backend_metrics_recorded(self, flexdb):
        OBS.reset()
        OBS.enable()
        try:
            with create_backend("sqlite3", flexdb) as backend:
                gpa_workflow().run_backend(backend)
            snapshot = OBS.snapshot()["metrics"]
            assert snapshot["counters"]["backend.sqlite3.queries"] == 1
            for histogram in (
                "backend.render_ms",
                "backend.sync_ms",
                "backend.execute_ms",
                "backend.rows",
            ):
                assert histogram in snapshot["histograms"]
            assert snapshot["histograms"]["backend.rows"]["count"] == 1
        finally:
            OBS.disable()
            OBS.reset()

    def test_metrics_silent_when_disabled(self, flexdb):
        OBS.reset()
        assert not OBS.enabled
        with create_backend("sqlite3", flexdb) as backend:
            gpa_workflow().run_backend(backend)
        assert OBS.snapshot()["metrics"]["counters"] == {}
