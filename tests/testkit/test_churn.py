"""Metamorphic churn driver: coherence plus proof of fast-path coverage.

The acceptance criterion is that one churn run exercises all three PR
1-3 fast paths — compiled expressions + plan cache, search/cloud epoch
caches, and the fast recommend path — while every check family stays
equal to its from-scratch replay.  The negative test plants a stale
index (mutations that never reach the engine) and requires the driver
to notice.
"""

import pytest

from repro.testkit.churn import ChurnDriver


@pytest.fixture(scope="module")
def report():
    return ChurnDriver(seed=1, steps=24, check_every=6).run()


class TestCoherence:
    def test_run_is_clean(self, report):
        assert report.ok, report.failures[:5]
        assert report.steps == 24
        assert report.checks >= 4

    def test_more_seeds_stay_clean(self):
        for seed in (2, 3):
            outcome = ChurnDriver(seed=seed, steps=18, check_every=6).run()
            assert outcome.ok, (seed, outcome.failures[:3])


class TestFastPathCoverage:
    """One run must light up every PR 1-3 fast path, or the equivalence
    checks are vacuously passing against cold code."""

    def test_plan_cache(self, report):
        assert report.coverage.get("plan_cache_hits", 0) > 0

    def test_fast_recommend_extend_cache(self, report):
        assert report.coverage.get("recommend_cache_hits", 0) > 0

    def test_search_result_cache(self, report):
        assert report.coverage.get("search_cache_hits", 0) > 0

    def test_cloud_refinements_checked(self, report):
        assert report.coverage.get("cloud_refinements", 0) > 0

    def test_cloud_partials_patched(self, report):
        """The cube and refinement checks compared clouds built from
        cached partials that writes had patched, not only fresh ones."""
        assert report.coverage.get("gather_patched", 0) > 0


class TestDetection:
    def test_stale_search_index_is_caught(self):
        """If Docs mutations never reach the engine, live-vs-cold search
        must diverge — the driver's checks are not vacuous."""

        class StaleEngineDriver(ChurnDriver):
            def _doc_churn(self):
                engine = self.engine

                class NoRefresh:
                    def __getattr__(self, name):
                        return getattr(engine, name)

                    def refresh_document(self, doc_id):
                        pass

                self.engine = NoRefresh()
                try:
                    super()._doc_churn()
                finally:
                    self.engine = engine

        outcome = StaleEngineDriver(seed=1, steps=24, check_every=6).run()
        assert not outcome.ok
        assert any("search" in line for line in outcome.failures)
