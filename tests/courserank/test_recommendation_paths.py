"""The facade's default path (direct) against the SQL forms it replaced.

A run with no ``path`` answers from the direct executor; ``path="sql"``
(one compiled statement on minidb) and ``path="sqlite3"`` (the same
statement on a conventional DBMS) are the reproduction of the paper's
claim and must say the same thing.  Every registered non-graph strategy,
at ``small``, before and after a burst of writes to every table a
strategy reads: first the ranked ids, then the full rows.
"""

import inspect
import math
import random

import pytest

from repro.courserank import CourseRank
from repro.courserank.recommendations import DEFAULT_STRATEGIES
from repro.datagen import generate_university

PATHS = ("direct", "sql", "sqlite3")

#: every registered strategy with a SQL form (the graph ones have none)
NAMES = sorted(
    name
    for name, factory in DEFAULT_STRATEGIES.items()
    if not factory(
        **{
            key: 1
            for key in ("student_id", "course_id")
            if key in inspect.signature(factory).parameters
        }
    ).direct_only
)


def find_subjects(db):
    """A student with ratings and a course with enrollments."""
    student = db.query(
        "SELECT SuID FROM Comments WHERE Rating IS NOT NULL "
        "GROUP BY SuID HAVING COUNT(*) >= 3 ORDER BY SuID LIMIT 1"
    ).scalar()
    course = db.query(
        "SELECT CourseID FROM Enrollments GROUP BY CourseID "
        "HAVING COUNT(*) >= 5 ORDER BY CourseID LIMIT 1"
    ).scalar()
    return {"student_id": student, "course_id": course}


@pytest.fixture(scope="module")
def apps():
    """The same small university twice: as generated, and after a burst."""
    before = CourseRank(generate_university(scale="small", seed=2008))
    after = CourseRank(generate_university(scale="small", seed=2008))
    churn_burst(after, find_subjects(after.db))
    return {"before": before, "after": after}


def churn_burst(app, subjects, seed=23, steps=40):
    """Seeded inserts/updates/deletes on Comments, Enrollments, Students
    and Courses — around the two subjects, so the answers move."""
    rng = random.Random(seed)
    db = app.db
    students = db.query("SELECT SuID FROM Students ORDER BY SuID").column("SuID")
    courses = db.query("SELECT CourseID FROM Courses ORDER BY CourseID").column(
        "CourseID"
    )
    student, course = subjects["student_id"], subjects["course_id"]
    for step in range(steps):
        suid = student if step % 4 == 0 else rng.choice(students)
        course_id = course if step % 4 == 1 else rng.choice(courses)
        has = lambda table: db.query(  # noqa: E731
            f"SELECT COUNT(*) FROM {table} WHERE SuID = ? AND CourseID = ?",
            (suid, course_id),
        ).scalar()
        roll = rng.random()
        if roll < 0.35:
            if not has("Enrollments"):
                db.execute(
                    "INSERT INTO Enrollments VALUES (?, ?, 2008, 'Aut', 'A')",
                    (suid, course_id),
                )
            if not has("Comments"):
                db.execute(
                    "INSERT INTO Comments VALUES "
                    "(?, ?, 2008, 'Aut', 'burst', ?, '2008-10-01')",
                    (suid, course_id, rng.randint(2, 10) / 2.0),
                )
        elif roll < 0.55:
            # one comment only: a student rating everything alike has no
            # Pearson neighbours
            first = db.query(
                "SELECT MIN(CourseID) FROM Comments WHERE SuID = ?", (suid,)
            ).scalar()
            db.execute(
                "UPDATE Comments SET Rating = ? WHERE SuID = ? AND CourseID = ?",
                (rng.randint(2, 10) / 2.0, suid, first),
            )
        elif roll < 0.70:
            db.execute(
                "DELETE FROM Enrollments WHERE SuID = ? AND CourseID = ?",
                (rng.choice(students), course_id),
            )
        elif roll < 0.85:
            db.execute(
                "UPDATE Students SET GPA = ? WHERE SuID = ?",
                (rng.randint(4, 16) / 4.0, suid),
            )
        else:
            db.execute(
                "UPDATE Courses SET Title = ? WHERE CourseID = ?",
                (f"Burst Methods {step}", rng.choice(courses)),
            )


def run_on_every_path(app, name):
    subjects = find_subjects(app.db)
    accepted = inspect.signature(DEFAULT_STRATEGIES[name]).parameters
    params = {key: value for key, value in subjects.items() if key in accepted}
    return {
        path: app.recommendations.run(name, path=path, **params)
        for path in PATHS
    }


@pytest.mark.parametrize("phase", ["before", "after"])
@pytest.mark.parametrize("name", NAMES)
def test_direct_equals_sql_equals_sqlite3(apps, name, phase):
    answers = run_on_every_path(apps[phase], name)
    direct = answers["direct"]
    assert direct.rows, f"{name} recommends nothing: the check is vacuous"
    key = direct.columns[0]
    for path in PATHS[1:]:
        other = answers[path]
        assert other.columns == direct.columns
        assert other.column(key) == direct.column(key), path
        for left, right in zip(direct.rows, other.rows):
            for column in direct.columns:
                a, b = left[column], right[column]
                if isinstance(a, float) and isinstance(b, float):
                    assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9), (
                        f"{path} {column}: {a} != {b}"
                    )
                else:
                    assert a == b, f"{path} {column}: {a!r} != {b!r}"


def test_the_burst_reaches_the_strategies(apps):
    """Or the "after" half of the test above proves nothing."""
    moved = [
        name
        for name in NAMES
        if run_on_every_path(apps["before"], name)["direct"].rows
        != run_on_every_path(apps["after"], name)["direct"].rows
    ]
    assert len(NAMES) >= 10 and len(moved) >= len(NAMES) // 2, moved


def test_default_path_is_the_direct_executor(apps):
    service = apps["before"].recommendations
    result = service.run("related_courses", course_id=1)
    assert result.stats  # only the direct executor records RecommendStats


def test_compiled_sql_is_shared_by_equal_workflows(app):
    """Every request builds its own workflow; equal ones (equal operator
    trees, comparators included) share one memoized compilation."""
    service = app.recommendations
    assert service.build("related_courses", course_id=6) == service.build(
        "related_courses", course_id=6
    )
    runs = [
        service.run("related_courses", path="sql", course_id=6)
        for _ in range(4)
    ]
    assert all(run.rows == runs[0].rows for run in runs)
    memo = app.db.memo("workflow.compiled", 128)
    assert (len(memo.keys()), memo.hits, memo.misses) == (1, 3, 1)
