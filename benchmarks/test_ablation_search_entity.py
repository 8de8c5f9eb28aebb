"""Ablation A2 — search-entity field weights (Section 3.1's ranking question).

"If we search for 'Java' courses, should a course that mentions 'Java'
in its title have the same score as a course that mentions 'Java' in the
comments made by students about the course?"

We compare the default weighted entity (title 4x > description 2x >
comments 1x) against a uniform-weight variant: the match *sets* are
identical (weights affect ranking, not recall), but the weighted entity
puts title matches ahead of comment-only matches.
"""

import pytest
from conftest import write_report

from repro.search.engine import SearchEngine
from repro.search.entity import course_entity
from repro.search.tokenizer import stem

QUERY = "american"


@pytest.fixture(scope="module")
def engines(bench_db):
    weighted = SearchEngine(bench_db, course_entity())
    weighted.build()
    uniform = SearchEngine(
        bench_db,
        course_entity(
            title_weight=1.0,
            description_weight=1.0,
            comment_weight=1.0,
            instructor_weight=1.0,
            department_weight=1.0,
        ),
    )
    uniform.build()
    return weighted, uniform


def _title_match_rate(engine, result, k=10):
    """Fraction of the top-k whose *title field* contains the query stem."""
    postings = engine.index.postings(stem(QUERY))
    hits = result.top(k)
    if not hits:
        return 0.0
    matched = 0
    for hit in hits:
        fields = postings.get(hit.doc_id, {})
        if "title" in fields:
            matched += 1
    return matched / len(hits)


def test_weighted_search(benchmark, engines):
    weighted, _uniform = engines
    result = benchmark(weighted.search, QUERY)
    assert len(result) > 0


def test_uniform_search(benchmark, engines):
    _weighted, uniform = engines
    result = benchmark(uniform.search, QUERY)
    assert len(result) > 0


def test_weights_change_ranking_not_recall(benchmark, engines):
    weighted, uniform = engines

    def both():
        return weighted.search(QUERY), uniform.search(QUERY)

    weighted_result, uniform_result = benchmark(both)
    # Same match set (weights never drop a match)...
    assert weighted_result.doc_id_set() == uniform_result.doc_id_set()
    # ...but not necessarily the same order.
    weighted_rate = _title_match_rate(weighted, weighted_result)
    uniform_rate = _title_match_rate(uniform, uniform_result)
    assert weighted_rate >= uniform_rate
    lines = [
        f"query={QUERY!r}: {len(weighted_result)} matches under both entities",
        f"title-match rate in top-10, weighted entity : {weighted_rate:.0%}",
        f"title-match rate in top-10, uniform weights : {uniform_rate:.0%}",
    ]
    write_report("ablation_entity_weights", lines)


def test_weighted_top1_has_title_match(benchmark, engines):
    weighted, _uniform = engines
    result = benchmark(weighted.search, QUERY)
    top = result.hits[0]
    assert "title" in weighted.index.postings(stem(QUERY)).get(top.doc_id, {})
