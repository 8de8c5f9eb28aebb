"""Caller-supplied strings never become SQL text.

Every value the facade puts into a statement travels as a ``?`` binding,
so a string that *would* change the meaning of interpolated SQL — a bare
quote, the classic ``' OR 'a' = 'a`` payload, a ``?``, a ``--`` comment —
is just a term, a title or a key that matches nothing.  One test per
string-taking facade method: the answer equals the honest "no such
term/title" answer, and the only exceptions that may escape are the
facade's own (``CourseRankError`` and its subclasses).

At the parent commit ``Planner._quarter_course_ids`` read every student's
plans for the ``OR`` payload and raised ``SQLSyntaxError`` for a quote.
"""

import datetime

import pytest

from repro.errors import AuthorizationError, CourseRankError
from repro.courserank.accounts import Role
from repro.search.entity import EntityDefinition, FieldSpec

HOSTILE = [
    "'",
    "zzz' OR 'a' = 'a",
    "Aut' OR 'a' = 'a",
    "?",
    "Aut' --",
    "x'; DROP TABLE Plans; --",
]


@pytest.fixture()
def busy_student(app):
    """A student with something planned and something taken."""
    suid = app.db.query(
        "SELECT p.SuID FROM Plans p JOIN Enrollments e ON p.SuID = e.SuID "
        "ORDER BY p.SuID LIMIT 1"
    ).scalar()
    year = app.db.query(
        "SELECT Year FROM Plans WHERE SuID = ? ORDER BY Year LIMIT 1", (suid,)
    ).scalar()
    return suid, year


@pytest.mark.parametrize("term", HOSTILE)
class TestPlannerTerms:
    def test_check_quarter(self, app, busy_student, term):
        suid, year = busy_student
        assert app.planner.check_quarter(suid, year, term) == []
        assert app.planner.check_quarter(suid, year, "zzz") == []

    def test_weekly_schedule(self, app, busy_student, term):
        suid, year = busy_student
        assert app.planner.weekly_schedule(suid, year, term) == {}

    def test_quarter_gpa(self, app, busy_student, term):
        suid, year = busy_student
        assert app.planner.quarter_gpa(suid, year, term) is None

    def test_quarter_course_ids_reads_no_other_rows(
        self, app, busy_student, term
    ):
        suid, year = busy_student
        assert app.planner._quarter_course_ids(suid, year, term) == []

    def test_plan_and_record_refuse_it_as_an_unknown_term(
        self, app, busy_student, term
    ):
        suid, year = busy_student
        with pytest.raises(CourseRankError, match="unknown term"):
            app.planner.plan_course(suid, 1, year, term)
        with pytest.raises(CourseRankError, match="unknown term"):
            app.planner.record_taken(suid, 1, year, term)


@pytest.mark.parametrize("title", HOSTILE)
def test_report_textbook_stores_and_finds_the_title_verbatim(app, title):
    user = app.accounts.register("reporter", Role.STUDENT, person_id=1)
    before = len(app.db.table("Textbooks"))
    textbook_id = app.report_textbook(user, 1, title, author=title)
    assert app.db.table("Textbooks").lookup_pk((textbook_id,))[1:] == (
        title, title,
    )
    # Reporting it again finds that row — and only that row — by title.
    assert app.report_textbook(user, 2, title) == textbook_id
    assert len(app.db.table("Textbooks")) == before + 1
    assert (title, title) in app.course_page(1)["textbooks"]


@pytest.mark.parametrize("text", HOSTILE)
def test_strings_that_never_reach_sql_still_only_raise_facade_errors(
    app, text
):
    with pytest.raises(AuthorizationError):
        app.accounts.authenticate(text)
    user = app.accounts.register(text, Role.STUDENT, person_id=2)
    assert app.accounts.authenticate(text) == user
    app.cloudsearch.build()
    comment = app.comment_on_course(
        user, 1, text, 4.0, day=datetime.date(2008, 10, 1)
    )
    assert comment.text == text
    assert text in [c.text for c in app.course_page(1)["comments"]]
    app.search_courses(text)
    question = app.forum.ask(user.person_id, text + " anyone", course_id=1)
    assert app.forum.answers_for(question.question_id) == []
    with pytest.raises(CourseRankError):
        app.incentives.award(user.user_id, text)
    with pytest.raises(CourseRankError):
        app.define_requirement(
            app.accounts.register("staff", Role.STAFF), 1, text, text
        )


def test_daily_login_is_per_day_whatever_the_date(app):
    user = app.accounts.register("daily", Role.STUDENT, person_id=3)
    day = datetime.date(2008, 10, 1)
    assert app.incentives.award(user.user_id, "daily_login", day=day) == 1
    assert app.incentives.award(user.user_id, "daily_login", day=day) == 0
    next_day = day + datetime.timedelta(days=1)
    assert app.incentives.award(user.user_id, "daily_login", day=next_day) == 1


@pytest.mark.parametrize("key", HOSTILE)
def test_entity_refresh_binds_a_text_key(app, key):
    """``collect_texts_for`` used to print the key into its wrapper SQL
    (``_sql_literal``); a text-keyed entity now binds it."""
    entity = EntityDefinition(
        name="textbook_by_title",
        fields=(FieldSpec("author", "SELECT Title, Author FROM Textbooks"),),
    )
    assert entity.collect_texts_for(app.db, key) is None
    app.db.table("Textbooks").insert([9001, key, "An Author"])
    assert entity.collect_texts_for(app.db, key) == {"author": ["An Author"]}
    assert entity.collect_texts_for(app.db, key + "x") is None
