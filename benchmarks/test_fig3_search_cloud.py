"""Experiment F3 — Figure 3: searching "American" and its course cloud.

Paper: the query "American" matches 1160 of 18,605 courses (6.2% of the
catalog), searched across multiple relations (titles, descriptions,
comments), and the cloud surfaces related concepts like "Latin American",
"Indians", "politics" — including multi-word phrases containing the query
word itself.

Shape targets checked here: the broad query matches a minority-but-
sizable slice of the catalog; matches arrive through more than one
relation; the cloud contains query-word phrases and cross-relation terms.
"""

from conftest import write_report

from repro.search.tokenizer import stem


def search_with_cloud(app, query):
    return app.search_courses(query)


def test_american_search_shape(benchmark, bench_app, scale_config):
    result, cloud = benchmark(search_with_cloud, bench_app, "american")
    catalog = scale_config.courses
    fraction = len(result) / catalog
    # Paper: 1160/18605 = 6.2%.  Synthetic vocabulary is denser in
    # american-topics, so allow a band: a minority slice, not a blip.
    assert 0.01 < fraction < 0.45, f"{len(result)}/{catalog} = {fraction:.1%}"

    names = cloud.term_names()
    # Multi-word phrases containing the query word (cf. "Latin American").
    phrases = [name for name in names if " " in name and "american" in name]
    assert phrases, f"no american-phrases in cloud: {names[:15]}"
    # The bare query word itself is suppressed.
    assert "american" not in names

    lines = [
        f"query='american'  matches={len(result)}  catalog={catalog}  "
        f"fraction={fraction:.1%}  (paper: 1160/18605 = 6.2%)",
        "top cloud terms (term, bucket, in-results-df):",
    ]
    for term in cloud.top(12):
        lines.append(f"  {term.term:<28} {term.bucket}  {term.result_df}")
    write_report("fig3_search_cloud", lines)


def test_matches_span_relations(benchmark, bench_app):
    """A course can match via its comments alone (multi-relation search)."""
    result, _cloud = benchmark(search_with_cloud, bench_app, "american")
    engine = bench_app.cloudsearch.engine
    via_comments_only = 0
    for hit in result.hits:
        entry = engine.index.postings(stem("american"))
        fields = entry.get(hit.doc_id, {})
        if "comments" in fields and "title" not in fields and (
            "description" not in fields
        ):
            via_comments_only += 1
    assert via_comments_only > 0, (
        "no course matched exclusively through student comments"
    )


def test_cloud_computation_latency(benchmark, bench_app):
    """Time just the cloud build over a fixed result set."""
    result = bench_app.cloudsearch.engine.search("american")
    cloud = benchmark(bench_app.cloudsearch.builder.build, result)
    assert len(cloud) > 0
