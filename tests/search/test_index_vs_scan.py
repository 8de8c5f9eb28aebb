"""The inverted index against the LIKE scan a naive site would run.

The search scaling experiment (EXPERIMENTS.md P3) timed the engine
against a SQL ``ILIKE`` scan over titles, descriptions and comments.
Its shape claims are held here as counts, at tiny scale:

* every course is indexed;
* every course the scan matches is a hit too (the engine finds more:
  stems bridge word forms, and instructor and department names are
  folded into the entity);
* the engine considers at most a tenth as many candidate documents as
  the scan reads rows: the scan reads every course and every comment.
"""

import pytest

from repro.courserank.app import CourseRank
from repro.datagen import generate_university

QUERIES = ("history", "programming", "design")


def like_scan_sql(word: str) -> str:
    return (
        "SELECT DISTINCT c.CourseID FROM Courses c "
        "LEFT JOIN Comments cm ON cm.CourseID = c.CourseID "
        f"WHERE c.Title ILIKE '%{word}%' "
        f"OR c.Description ILIKE '%{word}%' "
        f"OR cm.Text ILIKE '%{word}%'"
    )


def rows_read(node) -> int:
    """Rows the plan's leaves (its table scans) passed up."""
    if not node.children:
        return node.rows_out
    return sum(rows_read(child) for child in node.children)


@pytest.fixture(scope="module")
def app():
    university = CourseRank(generate_university(scale="tiny", seed=2008))
    university.cloudsearch.ensure_built()
    return university


def table_size(app, table):
    return app.db.query(f"SELECT COUNT(*) FROM {table}").scalar()


def test_every_course_is_indexed(app):
    assert app.cloudsearch.build() == table_size(app, "Courses")


@pytest.mark.parametrize("word", QUERIES)
def test_every_scan_match_is_a_hit(app, word):
    result = app.cloudsearch.engine.search(word)
    matched = set(app.db.query(like_scan_sql(word)).column("CourseID"))
    assert matched
    assert matched <= result.doc_id_set()


@pytest.mark.parametrize("word", QUERIES)
def test_the_index_considers_a_tenth_of_the_rows_the_scan_reads(app, word):
    result = app.cloudsearch.engine.search(word)
    scanned = rows_read(app.db.analyze(like_scan_sql(word)).root)
    assert scanned == table_size(app, "Courses") + table_size(app, "Comments")
    assert 0 < result.candidate_count
    assert 10 * result.candidate_count <= scanned
