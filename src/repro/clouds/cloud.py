"""DataCloud construction.

:class:`CloudBuilder` connects a :class:`~repro.search.engine.SearchEngine`
to a term-gathering strategy and a significance model, and produces a
:class:`DataCloud` for any result set.  Query terms themselves are
suppressed from the cloud (searching "American" should not show
"american" as its own biggest tag), but *phrases containing* a query term
survive — the paper's Figure 3 cloud for "American" prominently features
"Latin American" and "African American".
"""

from __future__ import annotations

import copy
import time
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import CloudError
from repro.obs import OBS
from repro.search.engine import SearchEngine, SearchResult
from repro.clouds.scoring import (
    SignificanceScoring,
    TermPartial,
    TermSource,
    TermStats,
    get_scoring,
)

DocId = Any


@dataclass(frozen=True)
class CloudTerm:
    """One tag in a data cloud."""

    term: str
    score: float
    occurrences: float
    result_df: int
    bucket: int = 1  # font-size bucket 1..n, assigned at cloud build


@dataclass
class DataCloud:
    """A ranked collection of cloud terms for one result set."""

    query: str
    result_size: int
    terms: List[CloudTerm]

    def __len__(self) -> int:
        return len(self.terms)

    def term_names(self) -> List[str]:
        return [term.term for term in self.terms]

    def top(self, k: int) -> List[CloudTerm]:
        return self.terms[:k]

    def find(self, term: str) -> Optional[CloudTerm]:
        lowered = term.lower()
        for cloud_term in self.terms:
            if cloud_term.term == lowered:
                return cloud_term
        return None


def _column_sums(columns: Iterable[Iterable[Any]]) -> Iterator[Any]:
    """Element-wise sums of equally long columns, without a Python loop."""
    return map(sum, zip(*columns))


class CloudBuilder:
    """Builds data clouds over search results.

    ``max_terms`` caps the cloud size; ``min_result_df`` drops terms that
    appear in only a handful of result documents (noise suppression);
    ``buckets`` is the number of font-size classes for rendering.
    """

    def __init__(
        self,
        engine: SearchEngine,
        scoring: Any = "popularity",
        strategy: str = "forward",
        max_terms: int = 40,
        min_result_df: int = 2,
        buckets: int = 5,
        include_bigrams: bool = True,
        topk_per_doc: int = 12,
    ) -> None:
        if max_terms < 1:
            raise CloudError("max_terms must be at least 1")
        if buckets < 1:
            raise CloudError("buckets must be at least 1")
        self.engine = engine
        self.scoring: SignificanceScoring = get_scoring(scoring)
        self.source = TermSource(
            engine,
            strategy=strategy,
            topk_per_doc=topk_per_doc,
            include_bigrams=include_bigrams,
        )
        self.max_terms = max_terms
        self.min_result_df = min_result_df
        self.buckets = buckets
        self._prepared = False

    def prepare(self) -> None:
        """Precompute per-document term caches (run after engine.build())."""
        self.source.prepare()
        self._prepared = True

    def with_scoring(self, scoring: Any) -> "CloudBuilder":
        """A shallow variant of this builder using a different scoring.

        Shares the term source (and its gathered-stats caches) — only the
        significance model differs, so e.g. a graph-weighted cloud reuses
        every aggregate the plain builder already computed.
        """
        clone = copy.copy(self)
        clone.scoring = get_scoring(scoring)
        return clone

    def build(self, result: SearchResult) -> DataCloud:
        """Compute the data cloud for a search result."""
        return self.build_for_docs(
            result.doc_ids(), query=result.query, query_terms=result.terms
        )

    def build_for_docs(
        self,
        doc_ids: Sequence[DocId],
        query: str = "",
        query_terms: Optional[Sequence[str]] = None,
    ) -> DataCloud:
        if not self._prepared:
            self.prepare()
        with OBS.span("cloud.build") as span:
            started = time.perf_counter()
            cloud = self.build_from_stats(
                [self.source.partial_gather(doc_ids)],
                len(doc_ids),
                query,
                query_terms,
            )
            if OBS.enabled:
                span.set(docs=len(doc_ids), terms=len(cloud.terms))
                OBS.metrics.inc("cloud.build.count")
                OBS.metrics.observe(
                    "cloud.build.ms",
                    (time.perf_counter() - started) * 1000.0,
                )
        return cloud

    def build_from_stats(
        self,
        partials: Sequence[TermPartial],
        result_size: int,
        query: str = "",
        query_terms: Optional[Sequence[str]] = None,
    ) -> DataCloud:
        """The counters → cloud kernel: a top-k query over ``partials``.

        One partial (an unsharded build) or one per shard (the
        scatter-gather coordinator) — the same code, so the sharded cloud
        is bit-identical to the unsharded one: every quantity merged here
        is a sum over disjoint document sets (occurrence weights are
        dyadic, so their float sums are exact in any order).

        A cloud shows a few dozen of the hundreds of terms its documents
        hold, so the cuts come first: (1) merge the result df counters
        and keep only terms in ``min_result_df`` documents — the iceberg
        condition; (2) only for those, sum occurrences and corpus df
        across the partials and score them; (3) walk them best first,
        dropping echoes of the query, until ``max_terms`` are taken —
        the top-k; (4) bucket what is shown.
        """
        result_df: Counter = Counter()
        for partial in partials:
            result_df.update(partial.result_df)
        min_df = self.min_result_df if result_size >= self.min_result_df else 1
        terms = [term for term, df in result_df.items() if df >= min_df]
        occurrences = _column_sums(
            map(partial.occurrences.get, terms, repeat(0))
            for partial in partials
        )
        corpus_df = _column_sums(
            partial.source.corpus_document_frequencies(terms)
            for partial in partials
        )
        corpus_size = sum(partial.source.corpus_size for partial in partials)
        score = self.scoring.score
        ranked = []
        for term, occurred, in_corpus in zip(terms, occurrences, corpus_df):
            df = result_df[term]
            stats = TermStats(term, occurred, df, in_corpus or df)
            significance = score(stats, result_size, corpus_size)
            if significance > 0:
                ranked.append((-significance, term, stats))
        # Ties break on the term text, which is unique: the statistics
        # riding along are never compared.
        ranked.sort()
        suppressed = set(query_terms or ())
        shown = []
        for entry in ranked:
            if suppressed and self._is_suppressed(entry[1], suppressed):
                continue
            shown.append(entry)
            if len(shown) == self.max_terms:
                break
        return DataCloud(
            query=query, result_size=result_size, terms=self._bucketed(shown)
        )

    # -- helpers -----------------------------------------------------------

    def _is_suppressed(self, term: str, suppressed: Set[str]) -> bool:
        """A display term is suppressed when *all* its words echo the query.

        ``suppressed`` holds the query's stemmed terms.
        """
        stem = self.engine.tokenizer.stem_token
        return all(stem(word) in suppressed for word in term.split(" "))

    def _bucketed(
        self, shown: List[Tuple[float, str, TermStats]]
    ) -> List[CloudTerm]:
        """The displayed terms, scores mapped linearly to font buckets 1..n."""
        if not shown:
            return []
        low = -shown[-1][0]
        span = -shown[0][0] - low
        terms = []
        for negated, term, stats in shown:
            score = -negated
            if span <= 0:
                bucket = self.buckets
            else:
                fraction = (score - low) / span
                bucket = 1 + int(round(fraction * (self.buckets - 1)))
            terms.append(
                CloudTerm(
                    term=term,
                    score=score,
                    occurrences=stats.occurrences,
                    result_df=stats.result_df,
                    bucket=bucket,
                )
            )
        return terms
