"""Regression: concurrent oracle runs must not corrupt the planner flag.

``run_minidb`` historically saved and restored the global planner flags
with bare assignments; two interleaved runs could restore in the wrong
order and leave a flag flipped for the rest of the process.  The fix
routes every scoped override through ``planner.flag_overrides`` (one
process-wide flag lock), so here we hammer it from many threads and
assert the global ``VECTORIZE`` lands exactly where it started.
"""

import threading

import repro.minidb.planner as planner
from repro.testkit.dialects import RenderedOp, RenderedScript
from repro.testkit.oracle import SWEEP, run_minidb

SCRIPT = RenderedScript(
    create=("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)",),
    ops=(
        RenderedOp("insert", "INSERT INTO t VALUES (1, 10)", ()),
        RenderedOp("insert", "INSERT INTO t VALUES (2, 20)", ()),
        RenderedOp("query", "SELECT id, x FROM t ORDER BY id", ()),
        RenderedOp("query", "SELECT SUM(x) FROM t", ()),
    ),
)


class TestFlagOverrides:
    def test_nested_overrides_compose_and_restore(self):
        before = planner.VECTORIZE
        with planner.flag_overrides(vectorize=not before):
            assert planner.VECTORIZE is not before
            with planner.flag_overrides(vectorize=before):
                assert planner.VECTORIZE is before
            assert planner.VECTORIZE is not before
        assert planner.VECTORIZE is before

    def test_restores_on_exception(self):
        before = planner.VECTORIZE
        try:
            with planner.flag_overrides(vectorize=not before):
                raise ValueError("boom")
        except ValueError:
            pass
        assert planner.VECTORIZE is before


class TestConcurrentOracleRuns:
    def test_parallel_runs_agree_and_flags_survive(self):
        before = planner.VECTORIZE
        expected = {
            config.name: [
                outcome.signature()
                for outcome in run_minidb(SCRIPT, config)[0]
            ]
            for config in SWEEP
        }
        errors = []
        barrier = threading.Barrier(len(SWEEP))

        def worker(config):
            try:
                barrier.wait()
                for _ in range(6):
                    outcomes, intra = run_minidb(SCRIPT, config)
                    assert not intra
                    signatures = [
                        outcome.signature() for outcome in outcomes
                    ]
                    assert signatures == expected[config.name]
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(config,), daemon=True)
            for config in SWEEP
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        assert planner.VECTORIZE is before
