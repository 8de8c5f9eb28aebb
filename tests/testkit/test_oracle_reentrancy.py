"""Concurrent oracle runs: ``run_minidb`` shares no state between calls.

Every sweep config runs the same script from its own thread, many times
over, and each run must produce exactly the outcomes of a solo run.
"""

import threading

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


class TestConcurrentOracleRuns:
    def test_parallel_runs_agree(self):
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
            thread.join(timeout=60)
            assert not thread.is_alive()
        if errors:
            raise errors[0]
