"""Clouds see writes: the forward index follows the search index's epoch.

``TermSource`` keeps per-document term maps and corpus document
frequencies derived from the search index.  They used to be filled by
``prepare()`` and never again, so a comment became searchable at once but
showed in no cloud until a rebuild.  Now the source catches up, on the
next gather, with exactly the documents the index touched since.  The
reference is always a *cold* ``CourseRank`` built over the database as
the writes left it; clouds must be ``==`` on full ``CloudTerm`` tuples.
"""

import pytest

from repro.courserank import CourseRank
from repro.courserank.accounts import Role
from repro.datagen import generate_university
from repro.service import CourseRankService
from tests.clouds.oracle import oracle_cloud

QUERIES = ("history", "data", "zanzibar", "quokka", "introduction systems")


def commenter(app, name="cloudwriter"):
    return app.accounts.register(name, Role.STUDENT, person_id=1)


def churn(database, execute, refresh, comment):
    """Comments with a new word, a removed course, a term that disappears.

    ``comment(course_id, text)`` writes through the public write path;
    ``execute(sql)`` edits rows behind its back and ``refresh(course_id)``
    re-indexes the course they belong to.  Returns the removed course.
    """
    titles = dict(database.query("SELECT CourseID, Title FROM Courses").rows)
    history = [cid for cid, title in titles.items() if "History" in title]
    assert len(history) >= 3
    for course_id in history:
        comment(course_id, "zanzibar field trip, would go again")
    # A word that exists in one comment only, then is edited away: its
    # corpus df must drop to nothing, not linger at zero.
    comment(history[0], "the quokka lecture was a highlight")
    comment(history[0], "the lecture was a highlight")
    removed = history[-1]
    for table in database.table_names():
        for key in database.table(table).schema.foreign_keys:
            if key.ref_table == "Courses":
                execute(
                    f"DELETE FROM {table} WHERE {key.columns[0]} = {removed}"
                )
    execute(f"DELETE FROM Courses WHERE CourseID = {removed}")
    refresh(removed)
    edited = history[1]
    execute(
        f"UPDATE Courses SET Title = 'Plain Survey' WHERE CourseID = {edited}"
    )
    refresh(edited)
    return removed


def search_clouds(search):
    return {query: search(query)[1].terms for query in QUERIES}


@pytest.mark.parametrize("reference", ["forward", "rescan"])
def test_facade_cloud_equals_cold_build_after_writes(reference):
    """Live clouds against a cold build (``forward``) or against the
    oracle over the raw text rescanned (``rescan``)."""
    app = CourseRank(generate_university(scale="tiny", seed=7))
    search = app.cloudsearch
    search.build()
    search.search("history")  # the source has served a cloud before the writes
    user = commenter(app)
    removed = churn(
        app.db,
        app.db.execute,
        search.engine.refresh_document,
        lambda course_id, text: app.comment_on_course(
            user, course_id, text, 4.0
        ),
    )
    source = search.builder.source
    # Cube cells are clouds over slices: the same forward index feeds them.
    root = search.cube().root()
    if reference == "forward":
        cold = CourseRank(app.db)
        cold.cloudsearch.build()
        assert search_clouds(search.search) == search_clouds(
            cold.cloudsearch.search
        )
        cold_source = cold.cloudsearch.builder.source
        assert source._corpus_df == cold_source._corpus_df
        assert source._doc_terms == cold_source._doc_terms
        assert root.cloud.terms == cold.cloudsearch.cube().root().cloud.terms
    else:
        for query in QUERIES:
            result, cloud = search.search(query)
            assert cloud.terms == oracle_cloud(
                search.builder,
                [source],
                [result.doc_ids()],
                len(result),
                result.terms,
            )
        assert root.cloud.terms == oracle_cloud(
            search.builder, [source], [root.doc_ids], root.result_size, None
        )
    zanzibar = search.search("history")[1].find("zanzibar")
    assert zanzibar is not None and zanzibar.result_df >= 2
    assert "quokka" not in source._corpus_df
    assert removed not in source._doc_terms


@pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 5])
def test_service_cloud_equals_cold_unsharded_build_after_writes(num_shards):
    service = CourseRankService(
        generate_university(scale="tiny", seed=7), num_shards=num_shards
    )
    service.search("history")
    users = [commenter(app) for app in service.apps]
    mirror = CourseRank(generate_university(scale="tiny", seed=7))
    mirror_user = commenter(mirror)

    def on_shard(course_id):
        return service.sharded.shard_of_course(course_id)

    def comment(course_id, text):
        service.comment_on_course(
            users[on_shard(course_id)], course_id, text, 4.0
        )
        mirror.comment_on_course(mirror_user, course_id, text, 4.0)

    def execute(sql):
        mirror.db.execute(sql)
        for shard in service.sharded.shards:
            shard.execute(sql)

    def refresh(course_id):
        with service.rwlock.write_locked():
            service.apps[on_shard(course_id)].cloudsearch.engine.refresh_document(
                course_id
            )

    churn(mirror.db, execute, refresh, comment)
    cold = CourseRank(mirror.db)
    cold.cloudsearch.build()
    assert search_clouds(service.search) == search_clouds(
        cold.cloudsearch.search
    )
    assert service.cube().root().cloud.terms == (
        cold.cloudsearch.cube().root().cloud.terms
    )
    session = service.session("history")
    cold_session = cold.cloudsearch.session("history")
    assert session.refine("zanzibar").cloud.terms == (
        cold_session.refine("zanzibar").cloud.terms
    )


def test_rebuilding_the_engine_is_followed_too():
    """``engine.build()`` clears and re-adds everything: all of it is touched."""
    app = CourseRank(generate_university(scale="tiny", seed=7))
    search = app.cloudsearch
    search.build()
    before = search.search("history")[1].terms
    app.db.execute("UPDATE Courses SET Description = 'zanzibar zanzibar'")
    search.engine.build()
    cold = CourseRank(app.db)
    cold.cloudsearch.build()
    after = search.search("history")[1].terms
    assert after == cold.cloudsearch.search("history")[1].terms
    assert after != before
