"""One cached answer over N shards: cached == uncached == unsharded.

The facade and the service answer every search and refinement step
through one :class:`~repro.clouds.refinement.CloudNavigator` (one shard
and N shards).  Whatever mix of writes, repeated and case-variant
searches and refine/back walks it sees, every answer it serves from its
cache must equal a fresh navigator's uncached answer and the unsharded
facade's, float for float.  The BM25 normalizer tables under it keep one
table per field however many distinct merged averages the writes make.
"""

from hypothesis import given, settings, strategies as st

from repro.clouds import CloudNavigator
from repro.courserank import CourseRank
from repro.courserank.accounts import Role
from repro.datagen import generate_university
from repro.service import CourseRankService

QUERIES = ["programming", "data systems", '"machine learning"', "history"]
COMMENTS = [
    "history of programming was great",
    "machine learning theory lab",
    "data systems and history",
]


def answer_of(result, cloud):
    return (
        [(hit.doc_id, hit.score) for hit in result.hits],
        result.terms,
        tuple(cloud.terms),
        cloud.result_size,
    )


def build_pair(num_shards, seed=5):
    base = CourseRank(generate_university(scale="tiny", seed=seed))
    base.cloudsearch.build()
    service = CourseRankService(
        generate_university(scale="tiny", seed=seed), num_shards=num_shards
    )
    base_user = base.accounts.register("w", Role.STUDENT, person_id=1)
    # Users are replicated at split time: one id on every shard.
    service_user = [
        app.accounts.register("w", Role.STUDENT, person_id=1)
        for app in service.apps
    ][0]
    return base, base_user, service, service_user


OPS = st.one_of(
    st.tuples(st.just("search"), st.sampled_from(QUERIES)),
    st.tuples(
        st.just("comment"),
        st.integers(min_value=1, max_value=48),
        st.sampled_from(COMMENTS),
    ),
    st.tuples(st.just("walk"), st.sampled_from(QUERIES)),
)


class TestCachedEqualsUncached:
    @settings(max_examples=10, deadline=None)
    @given(
        num_shards=st.integers(min_value=1, max_value=5),
        ops=st.lists(OPS, min_size=1, max_size=8),
    )
    def test_any_schedule_any_shard_count(self, num_shards, ops):
        base, base_user, service, service_user = build_pair(num_shards)
        ops = ops + [("search", "history"), ("walk", "programming")]
        for op in ops:
            if op[0] == "comment":
                _, course_id, text = op
                base.comment_on_course(base_user, course_id, text, 4.0)
                service.comment_on_course(service_user, course_id, text, 4.0)
                continue
            query = op[1]
            if op[0] == "search":
                for variant in (query, f"  {query.upper()} ", query):
                    result, cloud = service.search(variant)
                    assert (result.query, cloud.query) == (variant, variant)
                    fresh = CloudNavigator(service.navigator.shards).answer(
                        variant
                    )
                    assert not fresh.result.cache_hit
                    expected = answer_of(fresh.result, fresh.cloud)
                    assert answer_of(result, cloud) == expected
                    assert (
                        answer_of(*base.cloudsearch.search(variant)) == expected
                    )
                # The variants after the first share its entry.
                assert result.cache_hit
                continue
            session = service.session(query)
            base_session = base.search_session(query)
            steps = [session.current]
            if session.cloud.terms:
                term = session.cloud.terms[0].term
                steps.append(session.refine(term))
                base_session.refine(term)
                narrowed = session.current.result.doc_id_set()
                assert narrowed <= steps[0].result.doc_id_set()
            for depth in reversed(range(len(steps))):
                step = session.current
                parent = steps[depth - 1].shard_doc_ids if depth else None
                fresh = CloudNavigator(service.navigator.shards).answer(
                    step.query, parent
                )
                expected = answer_of(fresh.result, fresh.cloud)
                assert answer_of(step.result, step.cloud) == expected
                assert (
                    answer_of(base_session.result, base_session.cloud)
                    == expected
                )
                if depth:
                    session.back()
                    base_session.back()
        assert service.response_cache_info()["hits"] > 0


class TestNormalizerTables:
    def test_writes_leave_one_table_per_field(self):
        """Every write moves the merged average field lengths; each
        shard's index re-stamps its one table per field instead of
        keeping one per average ever seen."""
        base, base_user, service, service_user = build_pair(4)
        for write in range(60):
            course_id = 1 + write % 48
            text = f"history seminar number {write}"
            service.comment_on_course(service_user, course_id, text, 4.0)
            base.comment_on_course(base_user, course_id, text, 4.0)
            service.search("history")
        for app in service.apps:
            engine = app.cloudsearch.engine
            fields = [key[0] for key in engine.index._norm_tables]
            assert len(fields) == len(set(fields))
            assert set(fields) <= set(engine.field_weights)
        cold = CourseRank(base.db)
        cold.cloudsearch.build()
        result, cloud = service.search("history")
        assert answer_of(result, cloud) == answer_of(
            *cold.cloudsearch.search("history")
        )
