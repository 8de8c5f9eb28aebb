"""Metamorphic churn driver: every fast path vs a from-scratch replay.

PRs 1-3 each shipped an ad-hoc churn test for their own fast path (plan
cache, search/cloud epoch caches, extend-cache + pruned recommend).
This driver generalizes them into one workload: a seeded stream of
INSERT/UPDATE/DELETE/DROP+CREATE against a CourseRank-shaped database,
interleaved with

* SQL queries  — live (plan-cache warm) vs a replica database rebuilt
  from shadow state and queried cold;
* recommends   — the direct executor vs the nested-loop oracle
  (:func:`repro.testkit.recommend.reference_recommend`);
* searches     — cached answers of a navigator over the live,
  incrementally-refreshed engine vs a cold engine built over the replica;
* cloud refinements — ``RefinementSession`` incremental clouds vs cold
  ``CloudBuilder`` builds over the same narrowed result.

The driver keeps a **shadow state** (plain dicts) that every mutation
updates first; the replica is rebuilt from it at each checkpoint, so a
stale cache anywhere in the stack shows up as a mismatch against an
engine that never had a cache to go stale.

``ChurnReport.coverage`` proves the run actually exercised the three
fast paths (plan-cache hits, extend-cache hits, search answer-cache
hits, indexed plans, cloud partials patched by writes) instead of
silently passing on cold code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["ChurnReport", "ChurnDriver"]

SCHEMA = """
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
CREATE TABLE Docs (DocID INTEGER PRIMARY KEY, Title TEXT, Body TEXT);
CREATE TABLE DocDims (DocID INTEGER PRIMARY KEY, Topic TEXT,
  Shelf INTEGER);
CREATE INDEX idx_comments_course ON Comments (CourseID) USING hash;
CREATE INDEX idx_students_gpa ON Students (GPA) USING sorted;
CREATE INDEX idx_enroll_course ON Enrollments (CourseID) USING hash;
"""

COMMENTS_DDL = (
    "CREATE TABLE Comments (SuID INTEGER, CourseID INTEGER, Year INTEGER, "
    "Term TEXT, Text TEXT, Rating FLOAT, CommentDate DATE, "
    "PRIMARY KEY (SuID, CourseID))"
)

#: recreated with the table in ``_drop_recreate_comments`` (DROP TABLE
#: drops its indexes), so indexed plans stay live across schema churn.
COMMENTS_INDEX_DDL = (
    "CREATE INDEX idx_comments_course ON Comments (CourseID) USING hash"
)

DOC_WORDS = (
    "american", "history", "revolution", "jazz", "database", "systems",
    "culture", "politics", "music", "film", "query", "war", "empires",
)

#: live-vs-replica SQL probes: joins, aggregates, a folded subquery, and
#: a parameterized query — one per plan-cache-sensitive shape.
QUERIES: Tuple[Tuple[str, Tuple[Any, ...]], ...] = (
    ("SELECT s.SuID, s.GPA FROM Students AS s "
     "WHERE s.GPA >= ? ORDER BY s.SuID LIMIT 5", (1.0,)),
    ("SELECT c.CourseID, COUNT(*) AS n, AVG(m.Rating) AS r "
     "FROM Courses AS c INNER JOIN Comments AS m "
     "ON c.CourseID = m.CourseID GROUP BY c.CourseID", ()),
    ("SELECT m.SuID, m.Rating FROM Comments AS m "
     "WHERE m.CourseID IN (SELECT CourseID FROM Courses WHERE Units >= 3)",
     ()),
    ("SELECT e.SuID, e.Grade FROM Enrollments AS e "
     "LEFT JOIN Students AS s ON e.SuID = s.SuID "
     "WHERE s.GPA IS NOT NULL OR e.Grade = 'A'", ()),
    # Literal predicates on the secondary indexes: hash equality on
    # Comments, sorted range on Students — exercised live-vs-replica.
    ("SELECT m.SuID, m.Rating FROM Comments AS m "
     "WHERE m.CourseID = 3 ORDER BY m.SuID", ()),
    ("SELECT s.SuID, s.GPA FROM Students AS s "
     "WHERE s.GPA >= 3.0 ORDER BY s.SuID", ()),
    # Composite equi-join: two key pairs, one multi-key hash join.
    ("SELECT m.SuID, m.CourseID, e.Grade FROM Comments AS m "
     "INNER JOIN Enrollments AS e "
     "ON m.SuID = e.SuID AND m.CourseID = e.CourseID "
     "ORDER BY m.SuID, m.CourseID", ()),
)

SEARCH_QUERIES = ("american history", "jazz", "database systems", "war")
CLOUD_TERMS = ("history", "revolution", "culture", "jazz")

#: cube dimensions over the churned Docs corpus (see ``_check_cube``)
DOC_DIMENSIONS: Tuple[Tuple[str, str], ...] = (
    ("topic", "SELECT DocID, Topic FROM DocDims"),
    ("shelf", "SELECT DocID, Shelf FROM DocDims"),
)


@dataclass
class ChurnReport:
    steps: int = 0
    checks: int = 0
    failures: List[str] = field(default_factory=list)
    coverage: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class _Shadow:
    """The ground truth every mutation updates before touching the live
    database."""

    students: Dict[int, Tuple[str, int, str, float]] = field(
        default_factory=dict
    )
    courses: Dict[int, Tuple[int, str, str, int, str]] = field(
        default_factory=dict
    )
    #: (rating, comment text) per (student, course) pair — the text feeds
    #: term edges into the graph ranker's comment layer
    ratings: Dict[Tuple[int, int], Tuple[float, str]] = field(
        default_factory=dict
    )
    docs: Dict[int, Tuple[str, str]] = field(default_factory=dict)


class ChurnDriver:
    """Run ``steps`` random mutations with periodic coherence checks."""

    def __init__(self, seed: int = 0, steps: int = 24,
                 check_every: int = 6) -> None:
        self.rng = random.Random(seed)
        self.steps = steps
        self.check_every = max(1, check_every)
        self.report = ChurnReport()

    # -- lifecycle ----------------------------------------------------------

    def run(self) -> ChurnReport:
        self._setup()
        for step in range(self.steps):
            self._mutate()
            self.report.steps += 1
            if (step + 1) % self.check_every == 0:
                self._check_all()
        self._check_all()
        return self.report

    def _setup(self) -> None:
        from repro.clouds import CloudBuilder, CloudNavigator, SearchShard
        from repro.minidb import Database

        rng = self.rng
        self.shadow = _Shadow()
        for suid in range(1, 7):
            self.shadow.students[suid] = (
                f"s{suid}", 2010, "M", rng.randint(0, 16) / 4.0
            )
        for course_id in range(1, 7):
            self.shadow.courses[course_id] = (
                1, f"Course {course_id}", "", rng.choice((3, 4)), ""
            )
        for _ in range(12):
            key = (rng.randint(1, 6), rng.randint(1, 6))
            self.shadow.ratings[key] = (
                rng.randint(4, 20) / 4.0, self._comment_text()
            )
        for doc_id in range(1, 7):
            self.shadow.docs[doc_id] = self._doc_text()
        self._next_doc_id = 7
        self.db = Database()
        self.db.execute_script(SCHEMA)
        self._populate(self.db, with_docs=True)
        self.engine = self._make_engine(self.db)
        self.builder = CloudBuilder(self.engine, min_result_df=1)
        self.builder.prepare()
        # The live side of the search checks: cached answers.
        self.navigator = CloudNavigator(
            [SearchShard(self.engine, self.builder)]
        )

    def _doc_text(self) -> Tuple[str, str]:
        rng = self.rng
        title = " ".join(
            rng.choice(DOC_WORDS) for _ in range(rng.randint(1, 3))
        )
        body = " ".join(
            rng.choice(DOC_WORDS) for _ in range(rng.randint(3, 8))
        )
        return title, body

    def _comment_text(self) -> str:
        rng = self.rng
        return f"{rng.choice(DOC_WORDS)} {rng.choice(DOC_WORDS)}"

    @staticmethod
    def _dims_for(title: str, body: str) -> Tuple[str, int]:
        """Deterministic cube coordinates of one shadow doc."""
        return title.split()[0], len(body.split()) % 3

    def _populate(self, db: Any, with_docs: bool) -> None:
        for suid, row in sorted(self.shadow.students.items()):
            db.table("Students").insert([suid, *row])
        for course_id, row in sorted(self.shadow.courses.items()):
            db.table("Courses").insert([course_id, *row])
        self._populate_ratings(db)
        if with_docs:
            for doc_id, (title, body) in sorted(self.shadow.docs.items()):
                db.table("Docs").insert([doc_id, title, body])
                topic, shelf = self._dims_for(title, body)
                db.table("DocDims").insert([doc_id, topic, shelf])

    def _populate_ratings(self, db: Any) -> None:
        for (suid, course_id), (rating, text) in sorted(
            self.shadow.ratings.items()
        ):
            db.table("Comments").insert(
                [suid, course_id, 2008, "Aut", text, rating, "2008-01-01"]
            )
            db.table("Enrollments").insert(
                [suid, course_id, 2008, "Aut", "A"]
            )

    def _make_engine(self, db: Any) -> Any:
        from repro.search.engine import SearchEngine
        from repro.search.entity import EntityDefinition, FieldSpec

        entity = EntityDefinition(
            "doc",
            (
                FieldSpec("title", "SELECT DocID, Title FROM Docs",
                          weight=3.0),
                FieldSpec("body", "SELECT DocID, Body FROM Docs",
                          weight=1.0),
            ),
        )
        engine = SearchEngine(db, entity)
        engine.build()
        return engine

    def _replica(self, with_docs: bool = False) -> Any:
        from repro.minidb import Database

        db = Database()
        db.execute_script(SCHEMA)
        self._populate(db, with_docs=with_docs)
        return db

    # -- mutations ----------------------------------------------------------

    def _mutate(self) -> None:
        rng = self.rng
        roll = rng.random()
        if roll < 0.30:
            self._rating_insert()
        elif roll < 0.48:
            self._rating_update()
        elif roll < 0.62:
            self._rating_delete()
        elif roll < 0.72:
            self._student_update()
        elif roll < 0.94:
            self._doc_churn()
        else:
            self._drop_recreate_comments()

    def _rating_insert(self) -> None:
        rng = self.rng
        key = (rng.randint(1, 6), rng.randint(1, 6))
        if key in self.shadow.ratings:
            return
        rating = rng.randint(4, 20) / 4.0
        text = self._comment_text()
        self.shadow.ratings[key] = (rating, text)
        suid, course_id = key
        self.db.execute(
            f"INSERT INTO Comments VALUES ({suid}, {course_id}, 2008, "
            f"'Aut', '{text}', {rating!r}, '2008-01-01')"
        )
        self.db.execute(
            f"INSERT INTO Enrollments VALUES ({suid}, {course_id}, "
            f"2008, 'Aut', 'A')"
        )

    def _rating_update(self) -> None:
        if not self.shadow.ratings:
            return
        rng = self.rng
        key = rng.choice(sorted(self.shadow.ratings))
        rating = rng.randint(4, 20) / 4.0
        text = self._comment_text()
        self.shadow.ratings[key] = (rating, text)
        self.db.execute(
            f"UPDATE Comments SET Rating = {rating!r}, Text = '{text}' "
            f"WHERE SuID = {key[0]} AND CourseID = {key[1]}"
        )

    def _rating_delete(self) -> None:
        if not self.shadow.ratings:
            return
        key = self.rng.choice(sorted(self.shadow.ratings))
        del self.shadow.ratings[key]
        self.db.execute(
            f"DELETE FROM Comments "
            f"WHERE SuID = {key[0]} AND CourseID = {key[1]}"
        )
        self.db.execute(
            f"DELETE FROM Enrollments "
            f"WHERE SuID = {key[0]} AND CourseID = {key[1]}"
        )

    def _student_update(self) -> None:
        rng = self.rng
        suid = rng.choice(sorted(self.shadow.students))
        name, year, major, _gpa = self.shadow.students[suid]
        gpa = rng.randint(0, 16) / 4.0
        self.shadow.students[suid] = (name, year, major, gpa)
        self.db.execute(
            f"UPDATE Students SET GPA = {gpa!r} WHERE SuID = {suid}"
        )

    def _doc_churn(self) -> None:
        rng = self.rng
        roll = rng.random()
        if roll < 0.4 or not self.shadow.docs:
            doc_id = self._next_doc_id
            self._next_doc_id += 1
            title, body = self._doc_text()
            self.shadow.docs[doc_id] = (title, body)
            self.db.execute(
                f"INSERT INTO Docs VALUES ({doc_id}, '{title}', '{body}')"
            )
            topic, shelf = self._dims_for(title, body)
            self.db.execute(
                f"INSERT INTO DocDims VALUES ({doc_id}, '{topic}', {shelf})"
            )
        elif roll < 0.75:
            doc_id = rng.choice(sorted(self.shadow.docs))
            title, body = self._doc_text()
            self.shadow.docs[doc_id] = (title, body)
            self.db.execute(
                f"UPDATE Docs SET Title = '{title}', Body = '{body}' "
                f"WHERE DocID = {doc_id}"
            )
            topic, shelf = self._dims_for(title, body)
            self.db.execute(
                f"UPDATE DocDims SET Topic = '{topic}', Shelf = {shelf} "
                f"WHERE DocID = {doc_id}"
            )
        else:
            doc_id = rng.choice(sorted(self.shadow.docs))
            del self.shadow.docs[doc_id]
            self.db.execute(f"DELETE FROM Docs WHERE DocID = {doc_id}")
            self.db.execute(f"DELETE FROM DocDims WHERE DocID = {doc_id}")
        self.engine.refresh_document(doc_id)

    def _drop_recreate_comments(self) -> None:
        """Schema-epoch churn: the recreated table restarts its version
        counters, which the epoch-keyed caches must not alias."""
        self.db.execute("DROP TABLE Comments")
        self.db.execute(COMMENTS_DDL)
        self.db.execute(COMMENTS_INDEX_DDL)
        for (suid, course_id), (rating, text) in sorted(
            self.shadow.ratings.items()
        ):
            self.db.execute(
                f"INSERT INTO Comments VALUES ({suid}, {course_id}, 2008, "
                f"'Aut', '{text}', {rating!r}, '2008-01-01')"
            )

    # -- checks -------------------------------------------------------------

    def _fail(self, message: str) -> None:
        self.report.failures.append(message)

    def _bump(self, key: str, amount: int = 1) -> None:
        self.report.coverage[key] = self.report.coverage.get(key, 0) + amount

    def _check_all(self) -> None:
        self.report.checks += 1
        self._check_sql()
        self._check_recommend()
        self._check_search_and_cloud()
        self._check_graphrank()
        self._check_cube()

    def _check_sql(self) -> None:
        from repro.testkit.oracle import normalize_rows

        replica = self._replica()
        for sql, params in QUERIES:
            hits_before = self.db._plan_cache.hits
            live_first = self.db.query(sql, list(params) or None)
            live_second = self.db.query(sql, list(params) or None)
            if self.db._plan_cache.hits > hits_before:
                self._bump("plan_cache_hits")
            explain = self.db.query(f"EXPLAIN {sql}")
            if any("IndexScan" in row[0] for row in explain.rows):
                self._bump("indexed_plans")
            live_rows = normalize_rows(live_first.rows)
            if live_rows != normalize_rows(live_second.rows):
                self._fail(f"warm re-execution diverged: {sql}")
            fresh = replica.query(sql, list(params) or None)
            if live_rows != normalize_rows(fresh.rows):
                self._fail(f"live (cached) != replica (cold): {sql}")

    def _check_recommend(self) -> None:
        from repro.core import strategies as flexrecs
        from repro.testkit.recommend import reference_recommend

        workflows = {
            "jaccard": flexrecs.similar_audience_courses(1, top_k=4),
            "pearson": flexrecs.similar_students_pearson(1),
            "collab": flexrecs.collaborative_filtering(1, top_k=5),
        }
        for name, workflow in workflows.items():
            cold = workflow.run(self.db)
            warm = workflow.run(self.db)
            oracle = reference_recommend(workflow, self.db)
            for label, candidate in (("cold", cold), ("warm", warm)):
                if self._rec_rows(candidate) != self._rec_rows(oracle):
                    self._fail(
                        f"direct recommend ({name}, {label}) != oracle "
                        f"after churn"
                    )
            self._bump(
                "recommend_cache_hits",
                sum(record.cache_hits for record in warm.stats),
            )

    @staticmethod
    def _rec_rows(recommendation: Any) -> List[Tuple[Any, ...]]:
        return [
            tuple(sorted(row.items(), key=lambda item: item[0]))
            for row in recommendation.rows
        ]

    def _check_search_and_cloud(self) -> None:
        from repro.clouds.cloud import CloudBuilder
        from repro.clouds.refinement import RefinementSession

        cold_db = self._replica(with_docs=True)
        cold_engine = self._make_engine(cold_db)
        for text in SEARCH_QUERIES:
            live = self.navigator.answer(text).result
            warm = self.navigator.answer(text).result
            if warm.cache_hit:
                self._bump("search_cache_hits")
            cold = cold_engine.search(text)
            cold_hits = [(hit.doc_id, hit.score) for hit in cold.hits]
            for answer in (live, warm):
                live_hits = [(hit.doc_id, hit.score) for hit in answer.hits]
                if live_hits != cold_hits:
                    self._fail(
                        f"live search != cold rebuild for {text!r}: "
                        f"{live_hits} != {cold_hits}"
                    )
        # Cloud refinement on the live navigator (its builder's forward
        # index has followed every refresh_document since the driver
        # started) vs a cold build over the same narrowed result, on the
        # cold engine (no shared caches at all).
        session = RefinementSession.over(self.navigator, "american")
        term = self.rng.choice(CLOUD_TERMS)
        step = session.refine(term)
        cold_builder = CloudBuilder(cold_engine, min_result_df=1)
        cold_builder.prepare()
        live_signature = self._cloud_signature(step.cloud)
        cold_signature = self._cloud_signature(
            cold_builder.build(step.result)
        )
        if live_signature != cold_signature:
            self._fail(
                f"incremental cloud != cold build for refine({term!r})"
            )
        else:
            self._bump("cloud_refinements")

    def _check_graphrank(self) -> None:
        from repro.core import strategies as flexrecs
        from repro.graphrank.engine import GraphRankEngine

        # The live engine persists across checks (for_database memo), so
        # after churn it refreshes *incrementally* — only layers whose
        # source tables moved rebuild.  The cold engine never cached
        # anything; bit-identical differentials prove incremental ≡ cold.
        live = GraphRankEngine.for_database(self.db)
        reused_before = live.layers_reused
        replica = self._replica()
        cold = GraphRankEngine(replica)
        preference = (("user", 1),)
        live_scores = live.differential(preference)
        cold_scores = cold.differential(preference)
        if live_scores != cold_scores:
            self._fail(
                "incremental graph differential != cold rebuild after churn"
            )
        else:
            self._bump("graphrank_checks")
        self._bump(
            "graphrank_layer_reuse", live.layers_reused - reused_before
        )
        live_rec = flexrecs.similar_by_folkrank(1, top_k=4).run(self.db)
        cold_rec = flexrecs.similar_by_folkrank(1, top_k=4).run(replica)
        if self._rec_rows(live_rec) != self._rec_rows(cold_rec):
            self._fail("similar_by_folkrank live != replica after churn")

    def _check_cube(self) -> None:
        from repro.clouds.cloud import CloudBuilder
        from repro.clouds.cube import CloudCube, DimensionSpec

        dims = tuple(
            DimensionSpec(name=name, sql=sql, tables=("DocDims",))
            for name, sql in DOC_DIMENSIONS
        )
        cold_db = self._replica(with_docs=True)
        cold_builder = CloudBuilder(self._make_engine(cold_db), min_result_df=1)
        cold_builder.prepare()
        cube = CloudCube(self.db, self.builder, dimensions=dims)
        root = cube.root()
        # The root's partial and every cell's may be ones the previous
        # check cached and the writes since patched: each must match a
        # cold build over the same doc subset on an engine that shares no
        # caches with the live stack.
        if self._cloud_signature(root.cloud) != self._cloud_signature(
            cold_builder.build_for_docs(root.doc_ids)
        ):
            self._fail("cube root != cold build after churn")
        for topic, cell in cube.drill_down(root, "topic").items():
            cold = cold_builder.build_for_docs(cell.doc_ids)
            if self._cloud_signature(cell.cloud) != self._cloud_signature(
                cold
            ):
                self._fail(
                    f"cube slice topic={topic!r} != cold build after churn"
                )
            else:
                self._bump("cube_cells")
            shelves = cube.dimension_values(cell, "shelf")
            if shelves:
                deeper = cube.slice(cell, "shelf", shelves[0])
                cold_deep = cold_builder.build_for_docs(deeper.doc_ids)
                if self._cloud_signature(
                    deeper.cloud
                ) != self._cloud_signature(cold_deep):
                    self._fail(
                        f"cube slice (topic={topic!r}, shelf="
                        f"{shelves[0]!r}) != cold build after churn"
                    )
                parent = cube.roll_up(deeper)
                if parent.coordinate != cell.coordinate or (
                    parent.doc_ids != cell.doc_ids
                ):
                    self._fail("cube roll_up did not restore the parent")
                else:
                    self._bump("cube_walks")
        # Partials served since the last check that a write had patched.
        patched = self.builder.source.cache_info()["patched"]
        self._bump(
            "gather_patched",
            patched - self.report.coverage.get("gather_patched", 0),
        )

    @staticmethod
    def _cloud_signature(cloud: Any) -> List[Tuple[Any, ...]]:
        return [
            (term.term, term.score, term.occurrences, term.result_df,
             term.bucket)
            for term in cloud.terms
        ]
