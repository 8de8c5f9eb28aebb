"""Experiment R1 — recommender quality under a hold-out protocol.

Section 3.2's point is that FlexRecs makes it easy to "experiment with
different recommendation strategies"; this is that experiment.  20% of
known ratings are hidden; predictors must reconstruct them:

* global mean (the floor),
* per-course mean (popularity),
* Figure 5(b) collaborative filtering.

Shape targets: personalization wins on accuracy where it applies
(CF MAE < course-mean MAE < global-mean MAE on the predictable subset),
and CF trades coverage for that accuracy (the classic CF cold-start
trade-off).
"""

import pytest
from conftest import write_report

from repro.evalkit.receval import evaluate_predictors
from repro.service.sharding import ShardedUniversity

MAX_PAIRS = 60


@pytest.fixture(scope="module")
def quality_db(bench_db):
    """A private copy of the university: the hold-out hides ratings and
    restores them, which moves the Comments version."""
    return ShardedUniversity(bench_db, 1).shards[0]


@pytest.fixture(scope="module")
def scores(quality_db):
    return evaluate_predictors(
        quality_db, fraction=0.2, seed=1, max_pairs=MAX_PAIRS
    )


def test_holdout_protocol(benchmark, quality_db):
    results = benchmark.pedantic(
        evaluate_predictors,
        kwargs=dict(
            database=quality_db, fraction=0.2, seed=1, max_pairs=MAX_PAIRS
        ),
        rounds=1,
        iterations=1,
    )
    assert [score.name for score in results] == [
        "global_mean", "course_mean", "cf",
    ]


def test_accuracy_ordering(benchmark, scores):
    by_name = {score.name: score for score in benchmark(lambda: scores)}
    assert by_name["cf"].predictions >= 10, "CF must score a usable sample"
    # Who wins: specificity beats popularity beats the global floor.
    assert by_name["course_mean"].mae < by_name["global_mean"].mae
    assert by_name["cf"].mae < by_name["course_mean"].mae


def test_coverage_tradeoff(benchmark, scores):
    by_name = {score.name: score for score in benchmark(lambda: scores)}
    assert by_name["global_mean"].coverage == 1.0
    assert by_name["cf"].coverage < by_name["course_mean"].coverage

    lines = [
        f"hold-out: {MAX_PAIRS} hidden ratings, 20% per active user",
        f"{'predictor':>12} | {'MAE':>6} | {'RMSE':>6} | {'coverage':>8}",
    ]
    for score in scores:
        lines.append(
            f"{score.name:>12} | {score.mae:>6.3f} | {score.rmse:>6.3f} | "
            f"{score.coverage:>8.0%}"
        )
    lines.append(
        "shape: CF most accurate where it can predict; "
        "coverage is the price of personalization"
    )
    write_report("recommender_quality", lines)
