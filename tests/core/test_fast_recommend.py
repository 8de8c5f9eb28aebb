"""Oracle ≡ direct recommend: the production executor's correctness contract.

``repro.testkit.reference_recommend`` evaluates a workflow by plain
nested loops (no relation or extend-vector cache, no keyed σ, no
candidate pruning, no bounded-heap top-k).  These tests assert the
direct executor is tuple-for-tuple identical to that reference —
including float bit patterns, so ``==`` and not ``isclose`` — under
random data, random churn, and every comparator family.
"""

import dataclasses
import itertools
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.executor as executor
from repro.core import library
from repro.core import strategies as flexrecs
from repro.core.extendcache import (
    cache_info,
    clear_extend_cache,
    extend_vectors,
    stats_of,
)
from repro.core.library import NumericCloseness
from repro.core.operators import Recommend, Select, Source, extend
from repro.core.similarity import vector_stats
from repro.core.workflow import Workflow
from repro.courserank.recommendations import RecommendationService
from repro.errors import FlexRecsError, UnknownColumnError
from repro.minidb import Database
from repro.testkit import reference_recommend as run_naive


def exact_rows(recommendation):
    """Rows as comparable tuples; float comparison is exact on purpose."""
    return [
        tuple(sorted(row.items(), key=lambda item: item[0]))
        for row in recommendation.rows
    ]


def students_with_ratings():
    return extend(
        Source("Students"), "ratings", "Comments", "SuID", "SuID",
        "Rating", "CourseID",
    )


# ---------------------------------------------------------------------------
# randomized equivalence (with churn) across the prunable families
# ---------------------------------------------------------------------------


def build_db(students, ratings):
    db = Database()
    db.execute_script(
        """
        CREATE TABLE Students (SuID INTEGER PRIMARY KEY, Name TEXT,
          Class INTEGER, Major TEXT, GPA FLOAT);
        CREATE TABLE Courses (CourseID INTEGER PRIMARY KEY, DepID INTEGER,
          Title TEXT, Description TEXT, Units INTEGER, Url TEXT);
        CREATE TABLE Comments (SuID INTEGER, CourseID INTEGER, Year INTEGER,
          Term TEXT, Text TEXT, Rating FLOAT, CommentDate DATE,
          PRIMARY KEY (SuID, CourseID));
        CREATE TABLE Enrollments (SuID INTEGER, CourseID INTEGER,
          Year INTEGER, Term TEXT, Grade TEXT,
          PRIMARY KEY (SuID, CourseID));
        """
    )
    for suid, gpa in students:
        db.table("Students").insert([suid, f"s{suid}", 2010, "M", gpa])
    for course_id in range(1, 7):
        db.table("Courses").insert([course_id, 1, f"Course {course_id}", "", 3, ""])
    seen = set()
    for suid, course_id, rating in ratings:
        if (suid, course_id) in seen:
            continue
        seen.add((suid, course_id))
        db.table("Comments").insert(
            [suid, course_id, 2008, "Aut", "t", rating, "2008-01-01"]
        )
        db.table("Enrollments").insert([suid, course_id, 2008, "Aut", "A"])
    return db


def apply_churn(db, operations):
    """Insert/update/delete ratings (and matching enrollments)."""
    existing = {(row[0], row[1]) for row in db.table("Comments").rows()}
    for kind, suid, course_id, rating in operations:
        if kind == "insert":
            if (suid, course_id) in existing:
                continue
            db.execute(
                f"INSERT INTO Comments VALUES ({suid}, {course_id}, 2008, "
                f"'Aut', 't', {rating!r}, '2008-01-01')"
            )
            db.execute(
                f"INSERT INTO Enrollments VALUES ({suid}, {course_id}, "
                f"2008, 'Aut', 'A')"
            )
            existing.add((suid, course_id))
        elif kind == "delete":
            db.execute(
                f"DELETE FROM Comments "
                f"WHERE SuID = {suid} AND CourseID = {course_id}"
            )
            db.execute(
                f"DELETE FROM Enrollments "
                f"WHERE SuID = {suid} AND CourseID = {course_id}"
            )
            existing.discard((suid, course_id))
        else:
            db.execute(
                f"UPDATE Comments SET Rating = {rating!r} "
                f"WHERE SuID = {suid} AND CourseID = {course_id}"
            )


students_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    ),
    min_size=2,
    max_size=8,
    unique_by=lambda pair: pair[0],
)

ratings_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8),  # SuID
        st.integers(min_value=1, max_value=6),  # CourseID
        st.floats(min_value=1.0, max_value=5.0, allow_nan=False),
    ),
    max_size=30,
)

churn_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update"]),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=1.0, max_value=5.0, allow_nan=False),
    ),
    max_size=6,
)

#: one strategy per prunable comparator family: SetJaccard, Pearson, and
#: InverseEuclidean + VectorLookup (the stacked Figure 5(b) workflow)
FAMILIES = {
    "jaccard": lambda sid: flexrecs.similar_audience_courses(1, top_k=4),
    "pearson": lambda sid: flexrecs.similar_students_pearson(sid),
    "inverse_euclidean": lambda sid: flexrecs.collaborative_filtering(
        sid, top_k=5
    ),
}


class TestFastMatchesNaive:
    @given(
        students_strategy,
        ratings_strategy,
        churn_strategy,
        st.sampled_from(sorted(FAMILIES)),
    )
    def test_random_equivalence_with_churn(
        self, students, ratings, operations, family
    ):
        db = build_db(students, ratings)
        workflow = FAMILIES[family](students[0][0])
        naive = run_naive(workflow, db)
        clear_extend_cache(db)
        cold = workflow.run(db)  # fast path, empty cache
        warm = workflow.run(db)  # fast path, cache hits
        assert naive.columns == cold.columns == warm.columns
        assert exact_rows(naive) == exact_rows(cold) == exact_rows(warm)
        # Mutate the contributing tables while the cache is warm: the
        # stale entries are never served again, so the fast path must
        # agree with a from-scratch naive run.
        apply_churn(db, operations)
        after_fast = workflow.run(db)
        after_naive = run_naive(workflow, db)
        assert exact_rows(after_fast) == exact_rows(after_naive)


class TestHeapTopK:
    def test_ties_break_identically(self):
        """Dense score ties: the bounded heap must return the same slice
        (score desc, then target key asc) as the naive full sort."""
        db = Database()
        db.execute_script(
            "CREATE TABLE Students (SuID INTEGER PRIMARY KEY, Name TEXT, "
            "Class INTEGER, Major TEXT, GPA FLOAT);"
        )
        for suid in range(1, 31):
            db.table("Students").insert(
                [suid, f"s{suid}", 2010, "M", float(suid % 3)]
            )
        workflow = Workflow(
            Recommend(
                target=Source("Students"),
                reference=Select(Source("Students"), "SuID = 1"),
                comparator=NumericCloseness("GPA", "GPA"),
                target_key="SuID",
                top_k=5,
                exclude_self=("SuID", "SuID"),
            )
        )
        fast = workflow.run(db)
        naive = run_naive(workflow, db)
        assert exact_rows(fast) == exact_rows(naive)
        assert len(fast.rows) == 5


# ---------------------------------------------------------------------------
# stale-cache regression: every write to a contributing table invalidates
# ---------------------------------------------------------------------------


class TestStaleCacheImpossible:
    @pytest.mark.parametrize(
        "mutation",
        [
            "INSERT INTO Comments VALUES "
            "(447, 1, 2008, 'Win', 'new', 2.5, '2008-11-01')",
            "UPDATE Comments SET Rating = 1.5 WHERE SuID = 444",
            "DELETE FROM Comments WHERE SuID = 445 AND CourseID = 1",
        ],
    )
    def test_write_then_rerun_matches_naive(self, flexdb, mutation):
        workflow = flexrecs.similar_students_pearson(444)
        workflow.run(flexdb)  # warm the extend-vector cache
        flexdb.execute(mutation)
        after_fast = workflow.run(flexdb)
        after_naive = run_naive(workflow, flexdb)
        assert exact_rows(after_fast) == exact_rows(after_naive)

    def test_extend_vectors_versioned(self, flexdb):
        info = students_with_ratings().info
        vectors, hit = extend_vectors(flexdb, info)
        assert not hit
        cached, hit = extend_vectors(flexdb, info)
        assert hit and cached is vectors
        assert vectors[444] == {1: 5.0, 2: 4.0}
        assert stats_of(vectors[444]) == vector_stats(vectors[444])
        flexdb.execute(
            "UPDATE Comments SET Rating = 3.0 WHERE SuID = 444 AND CourseID = 1"
        )
        fresh, hit = extend_vectors(flexdb, info)
        assert not hit
        assert fresh[444] == {1: 3.0, 2: 4.0}
        assert stats_of(fresh[444]) == vector_stats(fresh[444])
        info_stats = cache_info(flexdb)
        assert info_stats["hits"] >= 1 and info_stats["misses"] >= 2
        assert info_stats["stale"] == 1

    def test_drop_recreate_cannot_alias(self, flexdb):
        """A recreated table restarts its version counter; the schema
        epoch in the entry's stamp keeps the old entry from being served."""
        info = students_with_ratings().info
        extend_vectors(flexdb, info)  # populate
        flexdb.execute("DROP TABLE Comments")
        flexdb.execute(
            "CREATE TABLE Comments (SuID INTEGER, CourseID INTEGER, "
            "Year INTEGER, Term TEXT, Text TEXT, Rating FLOAT, "
            "CommentDate DATE, PRIMARY KEY (SuID, CourseID))"
        )
        flexdb.execute(
            "INSERT INTO Comments VALUES "
            "(444, 6, 2008, 'Aut', 'only', 2.0, '2008-12-01')"
        )
        fresh, hit = extend_vectors(flexdb, info)
        assert not hit
        assert fresh == {444: {6: 2.0}}


# ---------------------------------------------------------------------------
# observability: RecommendStats and the facade
# ---------------------------------------------------------------------------


class TestRecommendStats:
    def test_cold_and_warm_counters(self, flexdb):
        workflow = flexrecs.collaborative_filtering(444, top_k=3)
        cold = workflow.run(flexdb)
        assert len(cold.stats) == 2  # stacked recommends, lower first
        for record in cold.stats:
            assert record.candidates + record.pruned == (
                record.targets * record.references
            )
            assert record.scored <= record.candidates
            assert record.elapsed_ms >= 0.0
        assert sum(record.cache_misses for record in cold.stats) > 0
        lower = cold.stats[0]
        # student 447 shares no rated course with 444: prunable
        assert lower.pruned >= 1
        warm = workflow.run(flexdb)
        assert sum(record.cache_hits for record in warm.stats) > 0
        assert sum(record.cache_misses for record in warm.stats) == 0
        assert exact_rows(cold) == exact_rows(warm)

    def test_text_jaccard_counts_the_pairs_sharing_a_word(self, flexdb):
        """Only courses sharing a title word with the reference are
        candidates; the rest are pruned and come back as zero fill."""
        result = flexrecs.related_courses(1).run(flexdb)
        (record,) = result.stats
        # 'Introduction to Programming' shares a word with itself, 2, 3
        # and 5; 4 and 6 share none
        assert (record.targets, record.references) == (6, 1)
        assert (record.candidates, record.pruned) == (4, 2)
        assert record.candidates + record.pruned == (
            record.targets * record.references
        )
        assert record.scored == 3  # the reference itself is excluded
        assert result.column("CourseID") == [5, 2, 3, 4, 6]
        assert result.column("score")[-2:] == [0.0, 0.0]

    def test_service_surfaces_stats(self, flexdb):
        flexdb.execute(
            "CREATE TABLE Prerequisites (CourseID INTEGER, PrereqID INTEGER)"
        )
        service = RecommendationService(flexdb)
        result = service.courses_for_student(
            444, strategy="collaborative_filtering", top_k=2
        )
        assert result.stats
        assert result.columns[-1] == "missing_prerequisites"


# ---------------------------------------------------------------------------
# every comparator kind over random tables: aggregation order, NULL and
# duplicate target keys, empty attributes, top_k around the scored count
# ---------------------------------------------------------------------------


def build_items(items, links):
    """Items(K nullable, repeated) extended from Links by K."""
    db = Database()
    db.execute_script(
        """
        CREATE TABLE Items (RowNo INTEGER PRIMARY KEY, K INTEGER, G INTEGER,
          Name TEXT);
        CREATE TABLE Links (RowNo INTEGER PRIMARY KEY, K INTEGER, V INTEGER,
          W FLOAT);
        """
    )
    for number, (key, group, name) in enumerate(items):
        db.table("Items").insert([number, key, group, name])
    for number, (key, value, weight) in enumerate(links):
        db.table("Links").insert([number, key, value, weight])
    return db


def items_with(attribute_kind):
    return extend(
        Source("Items"), "attr", "Links", "K", "K",
        "W" if attribute_kind == "vector" else "V",
        "V" if attribute_kind == "vector" else None,
    )


#: name -> (target, reference relation, comparator); the reference is
#: narrowed to one G group below, so it has several rows
KINDS = {
    "set_jaccard": lambda: (
        items_with("set"), items_with("set"), library.SetJaccard("attr", "attr")
    ),
    "common_count": lambda: (
        items_with("set"), items_with("set"), library.CommonCount("attr", "attr")
    ),
    "pearson": lambda: (
        items_with("vector"), items_with("vector"),
        library.PearsonCorrelation("attr", "attr"),
    ),
    "cosine": lambda: (
        items_with("vector"), items_with("vector"),
        library.CosineVector("attr", "attr"),
    ),
    "inverse_euclidean": lambda: (
        items_with("vector"), items_with("vector"),
        library.InverseEuclidean("attr", "attr"),
    ),
    "lookup": lambda: (
        Source("Items"), items_with("vector"), library.VectorLookup("K", "attr")
    ),
    "text_jaccard": lambda: (
        Source("Items"), Source("Items"), library.TextJaccard("Name", "Name")
    ),
    "numeric_closeness": lambda: (
        Source("Items"), Source("Items"), NumericCloseness("G", "K")
    ),
}

small_keys = st.one_of(st.none(), st.integers(min_value=1, max_value=5))

items_strategy = st.lists(
    st.tuples(
        small_keys,  # K: NULL and repeats on purpose
        st.integers(min_value=0, max_value=2),  # G
        st.sampled_from(["red fish", "blue fish", "one red", "", "fish"]),
    ),
    min_size=1,
    max_size=10,
)

links_strategy = st.lists(
    st.tuples(
        small_keys,
        st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
        st.one_of(
            st.none(),
            st.sampled_from([1.0, 2.5, 0.1, 3.0]),
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        ),
    ),
    max_size=25,
)


class TestEveryKindMatchesOracle:
    @given(
        items_strategy,
        links_strategy,
        st.sampled_from(sorted(KINDS)),
        st.sampled_from(["avg", "sum", "min", "max", "count"]),
        st.booleans(),
        st.integers(min_value=0, max_value=2),
    )
    def test_random_tables(
        self, items, links, kind, aggregate, exclude_self, group
    ):
        db = build_items(items, links)
        target, reference, comparator = KINDS[kind]()
        root = Recommend(
            target=target,
            reference=Select(reference, f"G = {group}"),
            comparator=comparator,
            target_key="K",
            aggregate=aggregate,
            exclude_self=("K", "K") if exclude_self else None,
        )
        full = run_naive(Workflow(root), db)
        scored = len(full.rows)
        for top_k in {None, 1, max(1, scored - 1), max(1, scored), scored + 1}:
            workflow = Workflow(dataclasses.replace(root, top_k=top_k))
            oracle = run_naive(workflow, db)
            cold = workflow.run(db)
            warm = workflow.run(db)
            assert exact_rows(oracle) == exact_rows(cold) == exact_rows(warm)
            (record,) = warm.stats
            assert record.candidates + record.pruned == (
                record.targets * record.references
            )
            assert record.cache_misses == 0

    def test_wrong_attribute_shape_is_a_type_error(self, flexdb):
        """A vector measure over sets, a set measure over vectors: the
        same error from the executor as from ``Comparator.score``."""
        taken = extend(
            Source("Students"), "attr", "Enrollments", "SuID", "SuID", "CourseID"
        )
        ratings = extend(
            Source("Students"), "attr", "Comments", "SuID", "SuID",
            "Rating", "CourseID",
        )
        for relation, comparator in (
            (taken, library.PearsonCorrelation("attr", "attr")),
            (ratings, library.SetJaccard("attr", "attr")),
            (taken, library.VectorLookup("SuID", "attr")),
        ):
            workflow = Workflow(
                Recommend(
                    target=relation,
                    reference=Select(relation, "SuID = 444"),
                    comparator=comparator,
                    target_key="SuID",
                )
            )
            with pytest.raises(FlexRecsError):
                workflow.run(flexdb)
            with pytest.raises(FlexRecsError):
                run_naive(workflow, flexdb)


#: titles with words in common, with no word in common, and with no token
#: at all (NULL, empty, one-letter words: those score NULL)
titles = st.sampled_from(
    [
        "red fish", "blue fish", "one red", "Red, FISH!", "fish",
        "green tree", "old oak tree", "oak", "lone wolf",
        "", "a b", None,
    ]
)

text_items_strategy = st.lists(
    st.tuples(
        small_keys,  # K: NULL and repeats on purpose
        st.integers(min_value=0, max_value=1),  # G: group 2 selects no row
        titles,
    ),
    min_size=4,
    max_size=12,
)


class TestTextJaccardMatchesOracle:
    """Text Jaccard under max/sum/avg scores only the targets that share a
    word with a reference and fills the rest with 0.0 in key order; under
    min/count it scores every pair.  Either way: the nested loop's rows."""

    @given(text_items_strategy, st.integers(min_value=0, max_value=2))
    def test_random_titles(self, items, group):
        db = build_items(items, [])
        # 0, 1 or several reference rows; excluding on G drops every
        # target of the group against every reference
        for exclude_self, aggregate in itertools.product(
            [None, ("K", "K"), ("G", "G")],
            ["max", "sum", "avg", "min", "count"],
        ):
            root = Recommend(
                target=Source("Items"),
                reference=Select(Source("Items"), f"G = {group}"),
                comparator=library.TextJaccard("Name", "Name"),
                target_key="K",
                aggregate=aggregate,
                exclude_self=exclude_self,
            )
            full = run_naive(Workflow(root), db)
            positive = sum(1 for row in full.rows if row["score"] > 0)
            for top_k in {None, 1, max(1, positive), positive + 1, len(items) + 1}:
                workflow = Workflow(dataclasses.replace(root, top_k=top_k))
                oracle = run_naive(workflow, db)
                cold = workflow.run(db)
                warm = workflow.run(db)
                assert exact_rows(oracle) == exact_rows(cold) == exact_rows(warm)
                (record,) = warm.stats
                assert record.candidates + record.pruned == (
                    record.targets * record.references
                )
                assert record.scored <= record.candidates

    @pytest.mark.parametrize("year", [2008, 2009])
    @pytest.mark.parametrize("course_id", [1, 4, 6])
    def test_related_courses_offered_in_a_year(self, flexdb, course_id, year):
        """The year filter's SqlSource target is rebuilt per request, so
        its postings are too."""
        workflow = flexrecs.related_courses(course_id, offered_year=year)
        expected = exact_rows(run_naive(workflow, flexdb))
        assert exact_rows(workflow.run(flexdb)) == expected
        assert exact_rows(workflow.run(flexdb)) == expected
        assert course_id not in workflow.run(flexdb).column("CourseID")


# ---------------------------------------------------------------------------
# staleness: the cached *relation* follows every table it was read from
# ---------------------------------------------------------------------------


RECREATE_COURSES = [
    "DROP TABLE Courses",
    "CREATE TABLE Courses (CourseID INTEGER PRIMARY KEY, DepID INTEGER, "
    "Title TEXT, Description TEXT, Units INTEGER, Url TEXT)",
    "INSERT INTO Courses VALUES "
    "(1, 1, 'Advanced Databases', '', 3, ''),"
    "(2, 1, 'Advanced Programming', '', 3, ''),"
    "(7, 1, 'Databases for Programming', '', 3, '')",
]


class TestRelationFollowsItsTables:
    @pytest.mark.parametrize(
        "table, mutation",
        [
            # the target table itself
            ("courses", ["INSERT INTO Courses VALUES "
                         "(7, 1, 'Programming Introduction', '', 3, '')"]),
            ("courses", ["UPDATE Courses SET Title = 'Databases Introduction' "
                         "WHERE CourseID = 6"]),
            ("courses", ["DELETE FROM Courses WHERE CourseID = 2"]),
            ("courses", RECREATE_COURSES),
            # the extend source
            ("enrollments",
             ["INSERT INTO Enrollments VALUES (447, 1, 2008, 'Aut', 'A')"]),
            ("enrollments", ["UPDATE Enrollments SET CourseID = 6 "
                             "WHERE SuID = 446 AND CourseID = 4"]),
            ("enrollments",
             ["DELETE FROM Enrollments WHERE SuID = 445 AND CourseID = 2"]),
        ],
        ids=[
            "insert-target", "update-target", "delete-target",
            "drop-create-target",
            "insert-source", "update-source", "delete-source",
        ],
    )
    @pytest.mark.parametrize(
        "strategy",
        [flexrecs.related_courses, flexrecs.courses_taken_together],
    )
    def test_write_then_run_equals_cold(self, flexdb, strategy, table, mutation):
        # Student 444 is enrolled in a course 7 that Courses does not list
        # yet, so listing it changes the co-taken answer too.
        flexdb.execute("INSERT INTO Enrollments VALUES (444, 7, 2008, 'Aut', 'A')")
        workflow = strategy(1)
        workflow.run(flexdb)
        warm = workflow.run(flexdb)
        assert sum(record.relation_hits for record in warm.stats) > 0
        for statement in mutation:
            flexdb.execute(statement)
        after = workflow.run(flexdb)
        assert exact_rows(after) == exact_rows(run_naive(workflow, flexdb))
        if table in workflow.tables_read():
            assert exact_rows(after) != exact_rows(warm)
            assert sum(record.cache_misses for record in after.stats) > 0
        else:
            assert sum(record.cache_misses for record in after.stats) == 0
        clear_extend_cache(flexdb)
        assert exact_rows(after) == exact_rows(workflow.run(flexdb))


# ---------------------------------------------------------------------------
# keyed σ ≡ scanned σ
# ---------------------------------------------------------------------------


@pytest.fixture()
def valuesdb():
    db = Database()
    db.execute(
        "CREATE TABLE Vals (ID INTEGER PRIMARY KEY, I INTEGER, N FLOAT, "
        "S TEXT, B BOOLEAN, D DATE)"
    )
    db.execute(
        "INSERT INTO Vals VALUES "
        "(1, 1, 1.0, 'a', TRUE, '2008-01-01'),"
        "(2, 2, 1.5, 'A', FALSE, '2008-01-02'),"
        "(3, 1, 2.0, '1', TRUE, '2008-01-01'),"
        "(4, NULL, NULL, NULL, NULL, NULL),"
        "(5, 0, 0.0, 'a', FALSE, '2008-01-03')"
    )
    return db


class TestKeyedSelect:
    @pytest.mark.parametrize(
        "condition, keyed",
        [
            ("I = 1", True),
            ("i = 1", True),  # resolved like any workflow column
            ("N = 1", True),  # int literal, float stored: 1 == 1.0
            ("N = 2", True),
            ("S = 'a'", True),
            ("S = '1'", True),
            ("S = 1", True),  # no coercion on either route: no row
            ("B = 1", True),  # True == 1 on either route
            ("D = '2008-01-01'", True),  # a date is not its text: no row
            ("I = 7", True),
            ("N = 1.0", False),
            ("I = NULL", False),
            ("B = TRUE", False),
            ("Vals.I = 1", False),
            ("Nope = 1", False),
            ("I <> 1", False),
            ("I = 1 AND S = 'a'", False),
            ("1 = I", False),
        ],
    )
    def test_same_rows_or_same_error(self, valuesdb, condition, keyed):
        workflow = Workflow(
            Recommend(
                target=Source("Vals"),
                reference=Select(Source("Vals"), condition),
                comparator=NumericCloseness("ID", "ID"),
                target_key="ID",
                aggregate="sum",
            )
        )
        try:
            expected = exact_rows(run_naive(workflow, valuesdb))
        except UnknownColumnError:
            with pytest.raises(UnknownColumnError):
                workflow.run(valuesdb)
            assert not keyed
            return
        result = workflow.run(valuesdb)
        assert exact_rows(result) == expected
        assert result.stats[0].keyed_selects == (1 if keyed else 0)

    def test_keyed_select_never_calls_the_predicate(self, valuesdb, monkeypatch):
        from repro.minidb.expressions import BinaryOp

        def boom(self, env):
            raise AssertionError("a keyed select evaluated its predicate")

        monkeypatch.setattr(BinaryOp, "evaluate", boom)
        result = Workflow(Select(Source("Vals"), "I = 1")).run(valuesdb)
        assert result.column("ID") == [1, 3]

    def test_a_scan_of_a_cached_relation_is_kept_and_follows_writes(
        self, flexdb, monkeypatch
    ):
        from repro.minidb.expressions import BinaryOp

        workflow = Workflow(
            Recommend(
                target=Select(Source("Courses"), "Units >= 4"),
                reference=Select(Source("Courses"), "CourseID = 1"),
                comparator=NumericCloseness("Units", "Units"),
                target_key="CourseID",
            )
        )
        first = exact_rows(workflow.run(flexdb))
        assert first == exact_rows(run_naive(workflow, flexdb))

        def boom(self, env):
            raise AssertionError("a kept scan evaluated its predicate again")

        monkeypatch.setattr(BinaryOp, "evaluate", boom)
        assert exact_rows(workflow.run(flexdb)) == first
        monkeypatch.undo()
        flexdb.execute("UPDATE Courses SET Units = 5 WHERE CourseID = 2")
        after = workflow.run(flexdb)
        assert 2 in after.column("CourseID")
        assert exact_rows(after) == exact_rows(run_naive(workflow, flexdb))


# ---------------------------------------------------------------------------
# shared structures: cached rows are never handed out, lazy slots publish whole
# ---------------------------------------------------------------------------


class TestCachedRelationsAreShared:
    def test_mutating_a_result_row_changes_nothing(self, flexdb):
        for workflow in (
            Workflow(Source("Courses")),
            flexrecs.courses_taken_together(1),
        ):
            first = workflow.run(flexdb)
            expected = exact_rows(first)
            first.rows[0]["Title"] = "scribbled"
            first.rows[0]["extra"] = 1
            assert exact_rows(workflow.run(flexdb)) == expected

    def test_a_lazy_slot_is_never_seen_half_built(self):
        """Six threads want the same index at once: some build it twice,
        none may read one that is still being filled."""
        rows = [{"k": number % 5000} for number in range(20000)]
        failures = []
        barrier = threading.Barrier(6)

        def reader(relation):
            barrier.wait()
            index = relation.index("k")
            if len(index) != 5000 or sum(map(len, index.values())) != 20000:
                failures.append(len(index))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _round in range(3):
                relation = executor._Relation(["k"], rows)
                threads = [
                    threading.Thread(target=reader, args=(relation,), daemon=True)
                    for _ in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not failures

    def test_cache_info_counts_relations_beside_vectors(self, flexdb):
        flexrecs.courses_taken_together(1).run(flexdb)
        info = cache_info(flexdb)
        # Source(Courses), Extend(Source(Courses)); the Enrollments map
        assert (info["relations"], info["vectors"]) == (2, 1)
        assert info["size"] == 3
