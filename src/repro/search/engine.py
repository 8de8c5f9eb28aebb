"""The search engine: indexing entities and answering keyword queries.

Matching is **conjunctive** (every query term must appear somewhere in
the entity), which is what produces the paper's refinement behaviour:
"American" matches 1160 courses, adding "African" narrows to 123.

Queries support **quoted phrases**: ``"african american" history``
requires the two quoted words to appear consecutively (in the same
field), which is how clicking a multi-word cloud term refines.

Ranking is BM25F-style: per field, term frequency times the entity
definition's field weight and a length normalizer, summed into one
pseudo term frequency that saturates at :data:`BM25_K1`.  The field
weights answer Section 3.1's ranking question (title hits beat comment
hits).

The query hot path is engineered like minidb's (DESIGN.md §7/§8):
scoring is term-at-a-time over postings with idf, field weight, and
BM25 length-normalizer lookups hoisted out of the inner loop, and
limited queries use a bounded heap instead of sorting every hit.  The
engine caches no answers: a search and its cloud are cached together,
once, by :class:`repro.clouds.refinement.CloudNavigator`.
"""

from __future__ import annotations

import heapq
import re
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SearchError
from repro.obs import COUNT_EDGES, OBS
from repro.minidb.catalog import Database
from repro.search.entity import EntityDefinition
from repro.search.inverted_index import InvertedIndex
from repro.search.stats import CorpusStats
from repro.search.tokenizer import tokens

DocId = Any

_QUOTED = re.compile(r'"([^"]*)"')

#: BM25's term-frequency saturation and field-length normalization
BM25_K1 = 1.4
BM25_B = 0.6


@dataclass(frozen=True)
class SearchHit:
    """One ranked entity."""

    doc_id: DocId
    score: float


@dataclass
class SearchResult:
    """The outcome of one query: ranked hits plus query metadata.

    The trailing fields are per-query observability: how many documents
    survived candidate generation, how many were scored, whether the
    answer came from a navigator's answer cache (never for
    :meth:`SearchEngine.search` itself), and wall-clock time spent
    answering.
    """

    query: str
    terms: List[str]  # all stemmed terms, phrase members included
    hits: List[SearchHit]
    phrases: List[List[str]] = field(default_factory=list)
    candidate_count: int = 0
    scored_count: int = 0
    cache_hit: bool = False
    elapsed_ms: float = 0.0

    def __len__(self) -> int:
        return len(self.hits)

    def doc_ids(self) -> List[DocId]:
        return [hit.doc_id for hit in self.hits]

    def doc_id_set(self) -> Set[DocId]:
        return {hit.doc_id for hit in self.hits}

    def top(self, k: int) -> List[SearchHit]:
        return self.hits[:k]


class SearchEngine:
    """Indexes one entity type from a database and answers queries."""

    def __init__(self, database: Database, entity: EntityDefinition) -> None:
        self.database = database
        self.entity = entity
        self.index = InvertedIndex()
        self.field_weights = entity.field_weights
        # Raw text store per document (cloud term extraction and snippets
        # read it).
        self._texts: Dict[DocId, Dict[str, str]] = {}
        self._built = False

    # -- indexing -----------------------------------------------------------

    def build(self) -> int:
        """(Re)build the index from the database; returns documents indexed."""
        self.index.clear()
        self._texts.clear()
        collected = self.entity.collect_texts(self.database)
        batch: Dict[DocId, Dict[str, List[str]]] = {}
        for doc_id, fields in collected.items():
            joined = {name: " ".join(chunks) for name, chunks in fields.items()}
            batch[doc_id] = {name: tokens(text) for name, text in joined.items()}
            self._texts[doc_id] = joined
        self.index.add_documents(batch)
        self._built = True
        return self.index.document_count

    def refresh_document(self, doc_id: DocId) -> None:
        """Re-index a single entity after its underlying rows changed.

        Runs key-filtered field queries (not a full corpus re-read), so
        the live site can refresh a course the moment a comment lands.
        Removes the entity when it disappeared from the database.  The
        index epoch moves either way, so cached results and norm tables
        never outlive the change.
        """
        fields = self.entity.collect_texts_for(self.database, doc_id)
        if fields is None:
            if self.index.has_document(doc_id):
                self.index.remove_document(doc_id)
                self._texts.pop(doc_id, None)
            return
        joined = {name: " ".join(chunks) for name, chunks in fields.items()}
        # Text first: whoever sees the new epoch (the clouds' forward
        # index re-extracts from it) must find the new text with it.
        self._texts[doc_id] = joined
        self.index.add_document(
            doc_id,
            {name: tokens(text) for name, text in joined.items()},
        )

    def document_text(self, doc_id: DocId) -> Dict[str, str]:
        """The stored raw text of an indexed entity (field → text)."""
        if doc_id not in self._texts:
            raise SearchError(f"document {doc_id!r} is not indexed")
        return self._texts[doc_id]

    @property
    def document_count(self) -> int:
        return self.index.document_count

    def require_built(self) -> None:
        if not self._built:
            raise SearchError("search index not built; call build() first")

    # -- query parsing -------------------------------------------------------

    def parse_query(self, query: str) -> Tuple[List[str], List[List[str]]]:
        """Split a query into loose terms and quoted phrases (stemmed).

        A quoted segment that reduces to a single token degenerates into
        a loose term; empty quotes are ignored.
        """
        phrases: List[List[str]] = []
        loose_text_parts: List[str] = []
        cursor = 0
        for match in _QUOTED.finditer(query):
            loose_text_parts.append(query[cursor : match.start()])
            quoted = tokens(match.group(1))
            if len(quoted) >= 2:
                phrases.append(quoted)
            elif quoted:
                loose_text_parts.append(" " + quoted[0] + " ")
            cursor = match.end()
        loose_text_parts.append(query[cursor:])
        loose = tokens(" ".join(loose_text_parts))
        return loose, phrases

    # -- querying ------------------------------------------------------------

    def search(
        self,
        query: str,
        limit: Optional[int] = None,
        within: Optional[Set[DocId]] = None,
        corpus_stats: Optional[CorpusStats] = None,
    ) -> SearchResult:
        """Answer a keyword query.

        ``within`` restricts candidates to a document subset — the data-cloud
        refinement path uses it.  Idf and average field lengths come
        from ``corpus_stats``, by default this index's own
        (:meth:`CorpusStats.local <repro.search.stats.CorpusStats.local>`);
        a navigator over N shards passes the merged corpus's, so every
        shard scores its candidates exactly as the unsharded build would.
        """
        if not OBS.enabled:
            return self._search_impl(query, limit, within, corpus_stats)
        # The result's own observability fields are the single source of
        # truth; the span and metrics are views over the same numbers.
        with OBS.tracer.span("search.query") as span:
            result = self._search_impl(query, limit, within, corpus_stats)
            span.set(
                terms=len(result.terms),
                hits=len(result.hits),
                candidates=result.candidate_count,
                cache_hit=result.cache_hit,
            )
            OBS.metrics.inc("search.query.count")
            OBS.metrics.observe("search.query.ms", result.elapsed_ms)
            OBS.metrics.observe(
                "search.query.candidates",
                result.candidate_count,
                edges=COUNT_EDGES,
            )
        return result

    def _search_impl(
        self,
        query: str,
        limit: Optional[int] = None,
        within: Optional[Set[DocId]] = None,
        corpus_stats: Optional[CorpusStats] = None,
    ) -> SearchResult:
        self.require_built()
        started = time.perf_counter()
        loose, phrases = self.parse_query(query)
        all_terms = list(loose) + [term for phrase in phrases for term in phrase]
        if not all_terms:
            return SearchResult(
                query=query,
                terms=[],
                hits=[],
                phrases=[],
                elapsed_ms=(time.perf_counter() - started) * 1000.0,
            )
        if corpus_stats is None:
            corpus_stats = CorpusStats.local(self.index, all_terms)
        candidates = self._candidates(loose, phrases)
        if within is not None:
            candidates &= within
        scored = self._score_candidates(candidates, all_terms, corpus_stats)
        scored_count = len(scored)
        if limit is not None and limit < len(scored):
            # Bounded heap: O(n log k) and no full materialized sort.  The
            # key mirrors the full-sort ordering exactly, ties included.
            hits = heapq.nsmallest(
                limit, scored, key=lambda hit: (-hit.score, _tiebreak(hit.doc_id))
            )
        else:
            scored.sort(key=lambda hit: (-hit.score, _tiebreak(hit.doc_id)))
            hits = scored
        return SearchResult(
            query=query,
            terms=all_terms,
            hits=hits,
            phrases=phrases,
            candidate_count=len(candidates),
            scored_count=scored_count,
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
        )

    def _candidates(
        self, loose: Sequence[str], phrases: Sequence[Sequence[str]]
    ) -> Set[DocId]:
        """The documents holding every loose term and every phrase."""
        sets = [self.index.matching_documents(term) for term in loose]
        sets.extend(self.index.phrase_documents(phrase) for phrase in phrases)
        if not sets:
            return set()
        sets.sort(key=len)  # intersect smallest-first
        result = set(sets[0])
        for other in sets[1:]:
            result &= other
            if not result:
                break
        return result

    # -- scoring ---------------------------------------------------------

    def _score_candidates(
        self,
        candidates: Set[DocId],
        terms: Sequence[str],
        corpus_stats: CorpusStats,
    ) -> List[SearchHit]:
        """Term-at-a-time accumulation over postings.

        Per term the idf is computed once; per field the weight and the
        per-document inverse BM25 normalizer table are fetched once.  The
        inner loop walks whichever of (postings, candidates) is smaller,
        so rare terms over broad candidate sets never scan every
        candidate, and broad terms over narrow ``within`` sets never scan
        every posting.

        Idf and the normalizer averages come from ``corpus_stats``;
        everything else — tf, field weights, accumulation order — is
        this index's, which is what makes per-document scores
        bit-identical across shardings.
        """
        if not candidates:
            return []
        scores: Dict[DocId, float] = dict.fromkeys(candidates, 0.0)
        k1 = BM25_K1
        k1_plus_1 = k1 + 1.0
        weights = self.field_weights
        index = self.index
        # field -> {doc: 1/normalizer}; fetched lazily per field, shared
        # across terms (the table itself is epoch-cached in the index).
        inverse_norms: Dict[str, Dict[DocId, float]] = {}
        for term in terms:
            postings = index.positional_postings(term)
            if not postings:
                continue
            idf = corpus_stats.idf(term)
            if len(postings) <= len(candidates):
                matched = (
                    (doc_id, entry)
                    for doc_id, entry in postings.items()
                    if doc_id in scores
                )
            else:
                matched = (
                    (doc_id, postings[doc_id])
                    for doc_id in candidates
                    if doc_id in postings
                )
            for doc_id, entry in matched:
                pseudo_tf = 0.0
                for field_name, positions in entry.items():
                    inverse = inverse_norms.get(field_name)
                    if inverse is None:
                        inverse = index.length_normalizers(
                            field_name,
                            BM25_B,
                            corpus_stats.average_field_length(field_name),
                        )
                        inverse_norms[field_name] = inverse
                    pseudo_tf += (
                        weights.get(field_name, 1.0)
                        * len(positions)
                        * inverse.get(doc_id, 1.0)
                    )
                scores[doc_id] += (
                    idf * pseudo_tf * k1_plus_1 / (pseudo_tf + k1)
                )
        return [SearchHit(doc_id, score) for doc_id, score in scores.items()]


def _tiebreak(doc_id: DocId) -> Tuple[str, str]:
    """Deterministic ordering for equal scores across mixed id types."""
    return (type(doc_id).__name__, str(doc_id))
