"""Data Clouds (Section 3.1 of the paper).

A *data cloud* is a tag cloud whose tags are the most significant terms in
the result set of a keyword search over the database.  Terms come from
every relation folded into the search entity (titles, descriptions,
comments, instructor names), are scored by a pluggable significance model,
and act as hyperlinks: clicking a term refines the search conjunctively
and the cloud is recomputed over the narrowed results.

Modules:

* :mod:`scoring` — term significance models (frequency, TF-IDF over the
  result set, popularity) and the one term-gathering strategy: a forward
  index that follows the search index, whose cached per-document-set
  counters are patched by the writes that touch them;
* :mod:`cloud` — :class:`CloudBuilder` producing :class:`DataCloud`, and
  :func:`cloud_over_shards`, the one cloud over N shards' documents (an
  unsharded build is N = 1);
* :mod:`refinement` — :class:`CloudNavigator`, the one cached search
  answer with its cloud over N shards, and :class:`RefinementSession`,
  the click-to-refine loop of Figures 3 and 4 on top of it;
* :mod:`render` — text/HTML rendering with font-size buckets.
"""

from repro.clouds.cloud import (
    CloudBuilder,
    CloudTerm,
    DataCloud,
    cloud_over_shards,
)
from repro.clouds.refinement import (
    CloudNavigator,
    RefinementSession,
    RefinementStep,
    SearchShard,
)
from repro.clouds.render import render_html, render_text
from repro.clouds.scoring import (
    FrequencyScoring,
    PopularityScoring,
    TfIdfScoring,
    TermStats,
)

__all__ = [
    "CloudBuilder",
    "CloudTerm",
    "DataCloud",
    "cloud_over_shards",
    "CloudNavigator",
    "RefinementSession",
    "RefinementStep",
    "SearchShard",
    "render_html",
    "render_text",
    "FrequencyScoring",
    "PopularityScoring",
    "TfIdfScoring",
    "TermStats",
]
