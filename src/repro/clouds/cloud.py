"""DataCloud construction.

:class:`CloudBuilder` connects a :class:`~repro.search.engine.SearchEngine`
to its forward-index term source and a significance model, and produces a
:class:`DataCloud` for any result set.  Query terms themselves are
suppressed from the cloud (searching "American" should not show
"american" as its own biggest tag), but *phrases containing* a query term
survive — the paper's Figure 3 cloud for "American" prominently features
"Latin American" and "African American".
"""

from __future__ import annotations

import copy
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import repeat
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import CloudError
from repro.obs import COUNT_EDGES, OBS
from repro.search.engine import SearchEngine, SearchResult
from repro.search.tokenizer import stem
from repro.clouds.scoring import (
    SignificanceScoring,
    TermPartial,
    TermSource,
    TermStats,
    get_scoring,
)

DocId = Any


class CloudTerm(NamedTuple):
    """One tag in a data cloud (immutable; compared and hashed by value)."""

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


#: one ranking entry: (−score, term, statistics); sorts best first
_Entry = Tuple[float, str, TermStats]


def _cut(
    ranked: List[_Entry],
    limit: int,
    is_echo: Optional[Callable[[str], bool]],
) -> Optional[float]:
    """Keep only the first ``limit`` entries of ``ranked`` that are shown.

    Echoes of the query go, and so does everything after the
    ``limit``-th shown entry: more entries can only push it further
    back.  Returns that entry's score — what an unscored term has to
    reach — or None while fewer than ``limit`` are shown.
    """
    if is_echo is not None:
        shown = []
        for entry in ranked:
            if not is_echo(entry[1]):
                shown.append(entry)
                if len(shown) == limit:
                    break
        ranked[:] = shown
    else:
        del ranked[limit:]
    return -ranked[-1][0] if len(ranked) == limit else None


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
        max_terms: int = 40,
        min_result_df: int = 2,
        buckets: int = 5,
    ) -> None:
        if max_terms < 1:
            raise CloudError("max_terms must be at least 1")
        if buckets < 1:
            raise CloudError("buckets must be at least 1")
        self.engine = engine
        self.scoring: SignificanceScoring = get_scoring(scoring)
        self.source = TermSource(engine)
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
        """The cloud over ``doc_ids``: one-shard :func:`cloud_over_shards`."""
        return cloud_over_shards([(self, doc_ids)], query, query_terms)

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
        dyadic, so their float sums are exact in any order).  The
        ``cloud.build`` span and metrics report how many terms passed the
        ``min_result_df`` cut (``candidates``) and how many were scored.
        """
        with OBS.span("cloud.build") as span:
            started = time.perf_counter()
            shown, candidates, scored = self._top_k(
                partials, result_size, query_terms
            )
            cloud = DataCloud(
                query=query,
                result_size=result_size,
                terms=self._bucketed(shown),
            )
            if OBS.enabled:
                span.set(
                    docs=result_size,
                    candidates=candidates,
                    scored=scored,
                    terms=len(cloud.terms),
                )
                metrics = OBS.metrics
                metrics.inc("cloud.build.count")
                metrics.inc("cloud.terms_pruned", candidates - scored)
                metrics.observe(
                    "cloud.build.candidates", candidates, edges=COUNT_EDGES
                )
                metrics.observe("cloud.build.scored", scored, edges=COUNT_EDGES)
                metrics.observe(
                    "cloud.build.ms", (time.perf_counter() - started) * 1000.0
                )
        return cloud

    def _top_k(
        self,
        partials: Sequence[TermPartial],
        result_size: int,
        query_terms: Optional[Sequence[str]],
    ) -> Tuple[List[_Entry], int, int]:
        """(shown entries best first, candidates, scored).

        A cloud shows a few dozen of the hundreds of terms its documents
        hold, so the cuts come first. (1) *Iceberg*: merge the result df
        counters and keep only terms in ``min_result_df`` documents.
        (2) *Top-k by threshold* (Fagin's TA over the result-df levels):
        score a first slice — the fewest highest df levels holding
        2·``max_terms`` terms — and take the ``max_terms``-th score that
        is not an echo of the query; then score the next df levels only
        while the scoring's :meth:`~SignificanceScoring.upper_bound`
        there is not below that score, which no unscored term can then
        beat (nor tie: ties break on the term text).  Pruned terms cost
        no column lookup, ``TermStats`` or ``score()``; a scoring without
        a finite bound is scored in one pass.  (3) The survivors are
        walked best first, dropping echoes, until ``max_terms`` are taken.
        """
        result_df: Counter = Counter()
        for partial in partials:
            result_df.update(partial.result_df)
        min_df = self.min_result_df if result_size >= self.min_result_df else 1
        corpus_size = sum(partial.source.corpus_size for partial in partials)
        limit = self.max_terms
        levels: Dict[int, List[str]] = defaultdict(list)
        pending: List[int] = []  # df levels not scored yet, lowest first
        if len(result_df) <= 2 * limit:
            first = [term for term, df in result_df.items() if df >= min_df]
        else:
            for term, df in result_df.items():
                if df >= min_df:
                    levels[df].append(term)
            pending = sorted(levels)
            first = []
            while pending and len(first) < 2 * limit:
                first += levels[pending.pop()]
        candidates = len(first) + sum(len(levels[df]) for df in pending)
        if pending:
            # A merged occurrence total is one value from each partial, so
            # the partials' largest values summed bound every one of them.
            most = sum(max(p.occurrences.values(), default=0) for p in partials)
            bound = self.scoring.upper_bound

            def ceiling(df: int) -> float:
                return bound(df, result_size, corpus_size, most)

            if ceiling(pending[0]) == math.inf:  # nothing could be pruned
                while pending:
                    first += levels[pending.pop()]

        is_echo = self._echo_test(query_terms)
        score_terms = self._scorer(partials, result_df, result_size, corpus_size)
        ranked = score_terms(first, 0.0)
        ranked.sort()
        scored = len(first)
        kth = _cut(ranked, limit, is_echo)
        while pending:
            batch: List[str] = []
            while pending and (kth is None or ceiling(pending[-1]) >= kth):
                batch += levels[pending.pop()]
            if not batch:
                break
            scored += len(batch)
            # ``ranked`` is one sorted run; Timsort merges the new one in.
            ranked += score_terms(batch, 0.0 if kth is None else kth)
            ranked.sort()
            kth = _cut(ranked, limit, is_echo)
        return ranked, candidates, scored

    def _echo_test(
        self, query_terms: Optional[Sequence[str]]
    ) -> Optional[Callable[[str], bool]]:
        """``is_echo(term)``, memoised for one build; None without a query.

        A display term echoes the query when *all* its words do: each
        stems to one of ``query_terms`` (the query's stemmed terms).
        """
        suppressed = set(query_terms or ())
        if not suppressed:
            return None
        echoes: Dict[str, bool] = {}

        def is_echo(term: str) -> bool:
            echo = echoes.get(term)
            if echo is None:
                echo = echoes[term] = all(
                    stem(word) in suppressed for word in term.split(" ")
                )
            return echo

        return is_echo

    def _scorer(
        self,
        partials: Sequence[TermPartial],
        result_df: Counter,
        result_size: int,
        corpus_size: int,
    ) -> Callable[[List[str], float], List[_Entry]]:
        """``score_terms(terms, floor)``: the ranking entries of ``terms``.

        Only for ``terms`` are occurrences and corpus df summed across the
        partials; an entry is kept when its score is positive and at
        least ``floor``.  A term's corpus df is never below its result df
        (equal to the forward index's own count whenever that is
        consistent), which is what ``upper_bound`` may assume.
        """
        score = self.scoring.score

        def score_terms(terms: List[str], floor: float) -> List[_Entry]:
            occurrences = _column_sums(
                map(partial.occurrences.get, terms, repeat(0))
                for partial in partials
            )
            corpus_df = _column_sums(
                partial.source.corpus_document_frequencies(terms)
                for partial in partials
            )
            entries = []
            for term, occurred, in_corpus in zip(terms, occurrences, corpus_df):
                df = result_df[term]
                stats = TermStats(
                    term, occurred, df, in_corpus if in_corpus > df else df
                )
                significance = score(stats, result_size, corpus_size)
                if significance > 0 and significance >= floor:
                    # Ties break on the term text, which is unique: the
                    # statistics riding along are never compared.
                    entries.append((-significance, term, stats))
            return entries

        return score_terms

    # -- helpers -----------------------------------------------------------

    def _bucketed(self, shown: List[_Entry]) -> List[CloudTerm]:
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
                    term, score, stats.occurrences, stats.result_df, bucket
                )
            )
        return terms


def cloud_over_shards(
    shards: Iterable[Tuple[CloudBuilder, Sequence[DocId]]],
    query: str = "",
    query_terms: Optional[Sequence[str]] = None,
) -> DataCloud:
    """One cloud over each shard's documents, from ``(builder, doc_ids)``
    pairs — the one way every cloud is built.

    Each shard's term source gathers its own partial; the first builder's
    :meth:`~CloudBuilder.build_from_stats` merges, cuts, scores and
    buckets them.  An unsharded build is the one-shard call
    (:meth:`CloudBuilder.build_for_docs`); the service coordinator, a
    sharded cube and a session pass one pair per shard.
    """
    builders: List[CloudBuilder] = []
    partials: List[TermPartial] = []
    result_size = 0
    for builder, doc_ids in shards:
        if not builder._prepared:
            builder.prepare()
        builders.append(builder)
        partials.append(builder.source.partial_gather(doc_ids))
        result_size += len(doc_ids)
    return builders[0].build_from_stats(
        partials, result_size, query, query_terms
    )
