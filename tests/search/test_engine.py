"""Integration tests: entity definitions + the search engine over minidb."""

import pytest

from repro.errors import SearchError
from repro.minidb import Database
from repro.search.engine import SearchEngine
from repro.search.entity import EntityDefinition, FieldSpec


@pytest.fixture()
def db():
    database = Database()
    database.execute_script(
        """
        CREATE TABLE Courses (CourseID INTEGER PRIMARY KEY, Title TEXT,
                              Description TEXT);
        CREATE TABLE Comments (SuID INTEGER, CourseID INTEGER, Text TEXT,
                               PRIMARY KEY (SuID, CourseID));
        INSERT INTO Courses VALUES
         (1, 'American History', 'The American revolution and civil war'),
         (2, 'Java Programming', 'Programming fundamentals in Java'),
         (3, 'History of Science', 'Greek science and famous scientists'),
         (4, 'Databases', 'Relational systems and query processing');
        INSERT INTO Comments VALUES
         (10, 3, 'surprisingly american focus in the later lectures'),
         (11, 2, 'great java content'),
         (12, 1, 'war war war');
        """
    )
    return database


def entity():
    return EntityDefinition(
        name="course",
        fields=(
            FieldSpec("title", "SELECT CourseID, Title FROM Courses", weight=4.0),
            FieldSpec(
                "description",
                "SELECT CourseID, Description FROM Courses",
                weight=2.0,
            ),
            FieldSpec(
                "comments", "SELECT CourseID, Text FROM Comments", weight=1.0
            ),
        ),
    )


@pytest.fixture()
def engine(db):
    eng = SearchEngine(db, entity())
    eng.build()
    return eng


class TestEntityDefinition:
    def test_field_weights(self):
        assert entity().field_weights == {
            "title": 4.0,
            "description": 2.0,
            "comments": 1.0,
        }

    def test_duplicate_field_rejected(self):
        with pytest.raises(SearchError):
            EntityDefinition(
                "bad",
                (
                    FieldSpec("title", "SELECT 1, 'x'"),
                    FieldSpec("title", "SELECT 1, 'y'"),
                ),
            )

    def test_needs_fields(self):
        with pytest.raises(SearchError):
            EntityDefinition("bad", ())

    def test_bad_weight(self):
        with pytest.raises(SearchError):
            FieldSpec("title", "SELECT 1, 'x'", weight=0)

    def test_field_sql_must_be_two_columns(self, db):
        bad = EntityDefinition(
            "bad",
            (FieldSpec("title", "SELECT CourseID, Title, Description FROM Courses"),),
        )
        with pytest.raises(SearchError):
            bad.collect_texts(db)

    def test_collect_spans_relations(self, db):
        collected = entity().collect_texts(db)
        assert "comments" in collected[3]  # comment folded into course 3


class TestSearch:
    def test_build_counts_entities(self, engine):
        assert engine.document_count == 4

    def test_cross_relation_match(self, engine):
        # Course 3 mentions "american" only in a student comment.
        result = engine.search("american")
        assert 3 in result.doc_id_set()
        assert 1 in result.doc_id_set()

    def test_title_match_outranks_comment_match(self, engine):
        result = engine.search("american")
        assert result.hits[0].doc_id == 1

    def test_conjunctive_default(self, engine):
        # "american war": course 1 has both; course 3 has only american.
        result = engine.search("american war")
        assert result.doc_id_set() == {1}

    def test_stemming_bridges_forms(self, engine):
        # Query "programs" stems to the same root as "Programming".
        result = engine.search("programs")
        assert 2 in result.doc_id_set()

    def test_within_restriction(self, engine):
        result = engine.search("american", within={3})
        assert result.doc_id_set() == {3}

    def test_limit(self, engine):
        result = engine.search("american", limit=1)
        assert len(result) == 1

    def test_no_match(self, engine):
        assert len(engine.search("astrophysics")) == 0

    def test_empty_query(self, engine):
        assert len(engine.search("")) == 0
        assert len(engine.search("the of and")) == 0

    def test_count_matches_search(self, engine):
        result = engine.search("american")
        assert result.candidate_count == len(result) > 0

    def test_search_before_build(self, db):
        fresh = SearchEngine(db, entity())
        with pytest.raises(SearchError):
            fresh.search("x")

    def test_deterministic_tiebreak(self, engine):
        first = engine.search("history").doc_ids()
        second = engine.search("history").doc_ids()
        assert first == second


class TestIncrementalRefresh:
    def test_refresh_after_new_comment(self, db, engine):
        db.execute(
            "INSERT INTO Comments VALUES (13, 4, 'hidden american gem')"
        )
        assert 4 not in engine.search("american").doc_id_set()
        engine.refresh_document(4)
        assert 4 in engine.search("american").doc_id_set()

    def test_refresh_after_delete(self, db, engine):
        db.execute("DELETE FROM Comments WHERE CourseID = 3")
        engine.refresh_document(3)
        assert 3 not in engine.search("american").doc_id_set()

    def test_refresh_vanished_entity(self, db, engine):
        db.execute("DELETE FROM Comments WHERE CourseID = 3")
        db.execute("DELETE FROM Courses WHERE CourseID = 3")
        engine.refresh_document(3)
        assert 3 not in engine.search("history").doc_id_set()

    def test_document_text_access(self, engine):
        texts = engine.document_text(1)
        assert "American History" in texts["title"]
        with pytest.raises(SearchError):
            engine.document_text(99)
