"""The Figure 5(b) CF strategy's cost, held as counts of work.

The FlexRecs path experiment (EXPERIMENTS.md P2) compared three ways to
run collaborative filtering: the direct executor, the compiled SQL and
the query a developer would hand-write.  Its shape claims are held here
by counters the program exposes, which do not move with the host:

* all three return the same ranking;
* the compiled SQL's plan passes at most 1.6x the rows of the
  hand-written query's (``rows_out`` summed over every EXPLAIN ANALYZE
  node; 1.6 is the ratio measured when this pin was written);
* the direct executor compares at most a fifth of the (target,
  reference) pairs that the nested-loop oracle compares: the rest are
  pruned without a comparator call.
"""

from fractions import Fraction

import pytest

from repro.core import strategies
from repro.datagen import generate_university

NEIGHBOURS = 10
TOP_K = 10

#: the compiled plan's summed ``rows_out`` over the hand-written plan's
COMPILED_OVER_HAND = Fraction(8, 5)


def hand_written_cf_sql(suid: int, neighbours: int, top_k: int) -> str:
    """The CF query a developer would write directly against the schema."""
    return f"""
    SELECT c.CourseID, c.DepID, c.Title, c.Description, c.Units, c.Url,
           AVG(CAST_FLOAT(cm.Rating)) AS score
    FROM Courses c
    JOIN Comments cm ON cm.CourseID = c.CourseID
      AND cm.Rating IS NOT NULL
    JOIN (
      SELECT o.SuID AS nid,
             1.0 / (1.0 + SQRT(SUM((o.Rating - m.Rating) * (o.Rating - m.Rating)))) AS sim
      FROM Comments o
      JOIN Comments m ON o.CourseID = m.CourseID
        AND m.SuID = {suid} AND m.Rating IS NOT NULL
      WHERE o.SuID <> {suid} AND o.Rating IS NOT NULL
      GROUP BY o.SuID
      ORDER BY sim DESC, o.SuID ASC
      LIMIT {neighbours}
    ) nb ON cm.SuID = nb.nid
    GROUP BY c.CourseID
    ORDER BY score DESC, c.CourseID ASC
    LIMIT {top_k}
    """


def plan_rows(node) -> int:
    return node.rows_out + sum(plan_rows(child) for child in node.children)


@pytest.fixture(scope="module")
def university():
    return generate_university(scale="tiny", seed=2008)


@pytest.fixture(scope="module")
def student(university):
    return university.query(
        "SELECT SuID FROM Comments WHERE Rating IS NOT NULL "
        "GROUP BY SuID HAVING COUNT(*) >= 3 ORDER BY SuID LIMIT 1"
    ).scalar()


@pytest.fixture(scope="module")
def workflow(student):
    return strategies.collaborative_filtering(
        student, similar_students=NEIGHBOURS, top_k=TOP_K
    )


@pytest.fixture(scope="module")
def hand_sql(student):
    return hand_written_cf_sql(student, NEIGHBOURS, TOP_K)


def test_all_three_paths_agree(university, workflow, hand_sql):
    hand = university.query(hand_sql)
    assert len(hand) > 0
    for result in (workflow.run(university), workflow.run_sql(university)):
        assert result.column("CourseID") == hand.column("CourseID")
        for row, score in zip(result.rows, hand.column("score")):
            assert row["score"] == pytest.approx(score)


def test_compiled_sql_passes_at_most_1_6x_the_hand_written_rows(
    university, workflow, hand_sql
):
    compiled = university.analyze(workflow.compiled_for(university).sql)
    hand = university.analyze(hand_sql)
    assert compiled.result.column("CourseID") == hand.result.column("CourseID")
    bound = COMPILED_OVER_HAND * plan_rows(hand.root)
    assert plan_rows(compiled.root) <= bound


def test_direct_path_compares_a_fifth_of_the_oracle_pairs(
    university, workflow
):
    stats = workflow.run(university).stats
    assert len(stats) == 2  # the neighbour recommend and the course one
    oracle_pairs = sum(stat.targets * stat.references for stat in stats)
    assert sum(stat.candidates + stat.pruned for stat in stats) == oracle_pairs
    assert 5 * sum(stat.candidates for stat in stats) <= oracle_pairs
