"""Backend-layer unit coverage.

Pins the closed set of engine names, the sqlite3 driver's ``?``
passthrough, snapshot-sync staleness rules, service routing, and the
per-backend observability counters.
"""

import pytest

from repro.backends import (
    BACKENDS,
    MinidbBackend,
    Sqlite3Backend,
    create_backend,
    named_backend,
)
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


class TestRegistry:
    def test_stock_backends_registered(self):
        assert BACKENDS == {"minidb": MinidbBackend, "sqlite3": Sqlite3Backend}
        for name, driver in BACKENDS.items():
            with create_backend(name.upper()) as backend:
                assert type(backend) is driver and backend.name == name

    def test_unknown_backend_lists_names(self):
        with pytest.raises(BackendError) as excinfo:
            create_backend("postgres14")
        assert "postgres14" in str(excinfo.value)
        assert "minidb" in str(excinfo.value)

    def test_minidb_backend_is_a_context_manager(self, flexdb):
        with create_backend("minidb", flexdb) as backend:
            result = backend.execute("SELECT COUNT(*) FROM Students")
        assert result.rows == [(4,)]

    def test_default_backend_name_env(self, flexdb, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert named_backend() is None
        assert RecommendationService(flexdb).backend_name == "minidb"
        monkeypatch.setenv("REPRO_BACKEND", "SQLite3 ")
        assert named_backend() == "sqlite3"
        assert RecommendationService(flexdb).backend_name == "sqlite3"


class TestPlaceholders:
    """sqlite3's paramstyle is the compiler's ``qmark``: SQL text reaches
    the driver unchanged and parameters bind left to right."""

    def test_qmark_is_identity(self):
        with create_backend("sqlite3") as backend:
            backend.execute("CREATE TABLE t (a INTEGER, b TEXT)")
            backend.execute("INSERT INTO t VALUES (?, ?)", [1, "x"])
            result = backend.execute(
                "SELECT a, b FROM t WHERE a = ? AND b = ?", [1, "x"]
            )
        assert result.rows == [(1, "x")]

    def test_question_marks_inside_literals_survive(self):
        with create_backend("sqlite3") as backend:
            result = backend.execute(
                "SELECT 'what?' || ?, 'it''s ?' = ?", ["!", "it's ?"]
            )
        assert result.rows == [("what?!", 1)]


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
            tables = backend.execute(
                "SELECT lower(name) FROM sqlite_master WHERE type = 'table'"
            )
            assert ("offerings",) not in tables.rows
            assert ("students",) in tables.rows

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

    def test_unknown_path_names_it(self, flexdb):
        service = RecommendationService(flexdb)
        with pytest.raises(FlexRecsError) as excinfo:
            service.run(
                "grade_based_filtering", path="postgres14", student_id=444
            )
        assert "postgres14" in str(excinfo.value)

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
