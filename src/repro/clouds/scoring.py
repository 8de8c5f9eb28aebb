"""Term gathering and significance scoring for data clouds.

The paper poses two open questions ("How do we find and rank terms in the
results of a search and how can we dynamically and efficiently compute
their data cloud?"), answered here by two parts:

**Gathering** (the cost question) — :class:`TermSource` keeps a forward
index of per-document term counters in step with the search index; a
cloud's statistics are the merged counters of its result documents, and
the merged counters of a repeated document set are cached and patched,
document by document, when a write touches one of its documents.  Exact.

**Significance model** — how gathered terms are ranked (quality question):

* :class:`FrequencyScoring`   — raw weighted occurrence count;
* :class:`TfIdfScoring`       — occurrences in the result set, discounted
  by corpus-wide document frequency (rare-in-corpus terms bubble up);
* :class:`PopularityScoring`  — fraction of result documents containing
  the term, discounted by corpus df (favors terms that characterize the
  whole result set rather than one verbose document).
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.caching import LRUCache
from repro.errors import CloudError
from repro.obs import OBS
from repro.search.engine import SearchEngine
from repro.search.tokenizer import cloud_terms

DocId = Any


@dataclass
class TermStats:
    """Aggregate statistics of one display term over a result set."""

    __slots__ = ("term", "occurrences", "result_df", "corpus_df")

    term: str
    occurrences: float  # field-weight-scaled occurrence mass in results
    result_df: int  # number of result documents containing the term
    corpus_df: int  # number of corpus documents containing the term


class TermPartial(NamedTuple):
    """One source's raw counters over one document set.

    The unit the cloud kernel (:meth:`CloudBuilder.build_from_stats`)
    merges: an unsharded build hands it one partial, the scatter-gather
    coordinator one per shard.  Treat both counters as immutable — they
    are shared with the source's gather cache.
    """

    source: "TermSource"
    occurrences: Dict[str, float]  # field-weight-scaled occurrence mass
    result_df: Counter  # number of the documents containing each term


#: what a document the forward index does not know contributes
_NO_TERMS: Mapping[str, float] = {}


class TermSource:
    """Extracts and caches display terms (unigrams + bigrams) per document.

    Display terms are unstemmed so the cloud shows readable words; the
    search index remains stemmed.  Field weights from the entity
    definition scale occurrence counts, so a term in a title counts more
    than in a comment, mirroring the ranking of the search itself.

    The per-document forward index and the corpus document frequencies
    are derived artifacts of the search index and follow its epoch: when
    the epoch has moved since they were last brought up to date, the next
    gather re-extracts exactly the documents the index touched since, and
    patches the cached partials holding them (:meth:`_catch_up`).

    Exactness precondition: every field weight is dyadic (the shipped 4,
    2, 1.5 and 1 are), so occurrence counts and their sums are exact
    binary floats and adding or subtracting them is exact in any order —
    a patched partial equals a fresh gather, as the sharded merge of
    :meth:`partial_gather` equals an unsharded one.
    """

    def __init__(self, engine: SearchEngine) -> None:
        self.engine = engine
        self._doc_terms: Dict[DocId, Counter] = {}
        self._corpus_df: Counter = Counter()
        # Index epoch the two structures above describe; None until
        # prepare().  Concurrent readers may find it stale together.
        self._epoch: Optional[int] = None
        self._catch_up_lock = threading.Lock()
        # Result sets repeat (identical searches, refinement back(), a
        # cube cell after a write): the raw counters per ordered doc-id
        # tuple as ``(epoch, partial, patched since last served)``, served
        # only at the current epoch.
        self._gather_cache = LRUCache(maxsize=64)
        self._gather_counts: Counter = Counter()
        self._counts_lock = threading.Lock()

    # -- build-time work -----------------------------------------------------

    def prepare(self) -> None:
        """Extract every document of the index (called once per build).

        Refuses an unbuilt index (``SearchError``): it would answer every
        cloud empty rather than fail.
        """
        self.engine.require_built()
        index = self.engine.index
        with self._catch_up_lock:
            self._doc_terms.clear()
            self._corpus_df.clear()
            self._gather_cache.clear()
            epoch = index.epoch
            for doc_id in index.document_ids():
                self._remember(doc_id)
            self._epoch = epoch

    def _extract(self, doc_id: DocId) -> Counter:
        texts = self.engine.document_text(doc_id)
        weights = self.engine.field_weights
        counts: Counter = Counter()
        for field_name, text in texts.items():
            weight = weights.get(field_name, 1.0)
            for term in cloud_terms(text):
                counts[term] += weight
        return counts

    def _remember(self, doc_id: DocId) -> Mapping[str, float]:
        counts = self._doc_terms[doc_id] = self._extract(doc_id)
        self._corpus_df.update(counts.keys())
        return counts

    def _forget(self, doc_id: DocId) -> Mapping[str, float]:
        counts = self._doc_terms.pop(doc_id, _NO_TERMS)
        corpus_df = self._corpus_df
        for term in counts:
            if corpus_df[term] > 1:
                corpus_df[term] -= 1
            else:
                del corpus_df[term]
        return counts

    def _catch_up(self) -> None:
        """Follow the index to its current epoch (DESIGN §8).

        Only the documents added, replaced or removed since ``_epoch``
        are re-extracted; their old and new counters then patch the
        cached partials (:meth:`_patch`).  Readers that find the epoch
        moved arrive here together (the service holds only a read lock),
        so one catches up and the rest wait for it.  The epoch is read
        before the change log: a write that lands meanwhile (the facade
        does not lock searches out) leaves ``_epoch`` behind it, to be
        followed by the next gather.
        """
        index = self.engine.index
        with self._catch_up_lock:
            if self._epoch is None:
                raise CloudError(
                    "TermSource.prepare() must run before gather()"
                )
            epoch = index.epoch
            # Taken before the first document changes: a partial put
            # after this point may hold half of the change, and keeps its
            # old stamp — a miss, never patched.
            cached = self._gather_cache.items()
            changes = {}
            for doc_id in index.touched_since(self._epoch):
                old = self._forget(doc_id)
                new = (
                    self._remember(doc_id)
                    if index.has_document(doc_id)
                    else _NO_TERMS
                )
                changes[doc_id] = (old, new)
            self._patch(cached, changes, epoch)
            self._epoch = epoch

    def _patch(
        self,
        cached: Sequence[Tuple[Tuple[DocId, ...], Tuple[Any, ...]]],
        changes: Mapping[DocId, Tuple[Mapping[str, float], ...]],
        epoch: int,
    ) -> None:
        """Re-stamp the partials of ``_epoch`` with ``epoch``, patched.

        Each ``(old, new)`` counter pair of ``changes`` moves a partial
        holding its document by the difference, times the document's
        multiplicity in the tuple; a term whose result df reaches 0 goes.
        The patched counters are new dicts: readers may hold the old ones.
        """
        for ordered, (stamp, partial, patched) in cached:
            if stamp != self._epoch:
                continue
            if changes.keys().isdisjoint(ordered):
                self._gather_cache.put(ordered, (epoch, partial, patched))
                continue
            occurrences = dict(partial.occurrences)
            result_df = Counter(partial.result_df)
            multiplicity = Counter(ordered)
            for doc_id, (old, new) in changes.items():
                times = multiplicity[doc_id]
                if not times:
                    continue
                for term, count in old.items():
                    occurrences[term] -= times * count
                    result_df[term] -= times
                    if not result_df[term]:
                        del result_df[term], occurrences[term]
                for term, count in new.items():
                    occurrences[term] = occurrences.get(term, 0) + times * count
                    result_df[term] += times
            partial = TermPartial(self, occurrences, result_df)
            self._gather_cache.put(ordered, (epoch, partial, True))

    # -- query-time work ----------------------------------------------------

    def _count(self, outcome: str) -> None:
        with self._counts_lock:  # concurrent readers share the counters
            self._gather_counts[outcome] += 1

    def partial_gather(self, doc_ids: Iterable[DocId]) -> TermPartial:
        """Raw ``(occurrences, result_df)`` counters over ``doc_ids``.

        Both counters are plain sums over the result documents, so
        per-shard partials over disjoint doc sets add up to exactly the
        counters one source would produce over the union (field weights
        are dyadic, so float addition here is exact and order-independent).
        Result df is counted in C (``Counter`` over the chained
        per-document term maps); the occurrence sums take one dict update
        per (document, term) pair.  A cached partial is served only at the
        epoch it is stamped with.
        """
        if self._epoch != self.engine.index.epoch:
            self._catch_up()
        epoch = self._epoch
        ordered = tuple(doc_ids)
        cached = self._gather_cache.get(ordered)
        if cached is not None and cached[0] == epoch:
            _stamp, partial, patched = cached
            if patched:  # its first read since a catch-up patched it
                self._gather_cache.put(ordered, (epoch, partial, False))
                self._count("patched")
                if OBS.enabled:
                    OBS.metrics.inc("cloud.gather.patched")
            self._count("hits")
            return partial
        self._count("misses")
        per_doc = list(map(self._doc_terms.get, ordered, repeat(_NO_TERMS)))
        result_df = Counter(chain.from_iterable(per_doc))
        occurrences = dict.fromkeys(result_df, 0)
        for counts in per_doc:
            for term, count in counts.items():
                occurrences[term] += count
        partial = TermPartial(self, occurrences, result_df)
        self._gather_cache.put(ordered, (epoch, partial, False))
        return partial

    def cache_info(self) -> Dict[str, int]:
        """Gather-cache counters: ``hits`` (``patched`` of them the first
        read of a partial a write had patched), ``misses``, ``size``."""
        with self._counts_lock:
            counts = dict(self._gather_counts)
        return {
            "hits": counts.get("hits", 0),
            "misses": counts.get("misses", 0),
            "patched": counts.get("patched", 0),
            "size": len(self._gather_cache),
        }

    def gather(self, doc_ids: Iterable[DocId]) -> List[TermStats]:
        """Statistics of *every* term in ``doc_ids`` (a fresh list).

        The whole-vocabulary view for inspection and tests; cloud
        construction goes through :meth:`partial_gather` and only ever
        builds statistics for the terms that survive its cuts.
        """
        _source, occurrences, result_df = self.partial_gather(doc_ids)
        corpus_df = self._corpus_df
        return [
            TermStats(
                term=term,
                occurrences=count,
                result_df=result_df[term],
                corpus_df=corpus_df.get(term, result_df[term]),
            )
            for term, count in occurrences.items()
        ]

    def gather_narrowed(
        self, parent_ids: Iterable[DocId], doc_ids: Iterable[DocId]
    ) -> List[TermStats]:
        """:meth:`gather` over ``doc_ids``, a subset of ``parent_ids``.

        The superset buys nothing: subtracting a refinement's dropped
        documents from its parent walks as many (document, term) pairs as
        counting the kept ones.  The name stays for callers that know it.
        """
        return self.gather(doc_ids)

    def corpus_document_frequencies(self, terms: Iterable[str]) -> List[int]:
        """This source's corpus df of each of ``terms``, 0 where absent.

        Shard corpora are disjoint, so summing these across shards yields
        the unsharded corpus df exactly.
        """
        if self._epoch != self.engine.index.epoch:
            self._catch_up()
        return list(map(self._corpus_df.get, terms, repeat(0)))

    @property
    def corpus_size(self) -> int:
        return self.engine.index.document_count


class SignificanceScoring:
    """Base class for term significance models."""

    name = "base"

    def upper_bound(
        self,
        result_df: int,
        result_size: int,
        corpus_size: int,
        max_occurrences: float,
    ) -> float:
        """A ceiling on :meth:`score` below a result-df level.

        Must be non-decreasing in ``result_df`` and at least the score
        of any term whose result df is at most ``result_df``, whose
        corpus df is at least its result df and whose occurrences are at
        most ``max_occurrences``.  The cloud kernel stops scoring once the
        ceiling at the next df level is below the last term it shows.
        The default, ``inf``, never stops it: every candidate is scored.
        """
        return math.inf


class FrequencyScoring(SignificanceScoring):
    """Raw weighted occurrence mass — the classic tag-cloud rule."""

    name = "frequency"

    def score(self, stats: TermStats, result_size: int, corpus_size: int) -> float:
        return float(stats.occurrences)


class TfIdfScoring(SignificanceScoring):
    """Occurrences in the results, discounted by corpus-wide rarity."""

    name = "tfidf"

    def score(self, stats: TermStats, result_size: int, corpus_size: int) -> float:
        if corpus_size == 0:
            return 0.0
        idf = math.log(1.0 + corpus_size / (1.0 + stats.corpus_df))
        return stats.occurrences * idf


class PopularityScoring(SignificanceScoring):
    """Coverage of the result set, discounted by corpus-wide rarity.

    A term in 80% of the matching courses characterizes the result set
    even if each mention is brief; a term mentioned 40 times in a single
    verbose comment does not.
    """

    name = "popularity"

    def score(self, stats: TermStats, result_size: int, corpus_size: int) -> float:
        if result_size == 0 or corpus_size == 0:
            return 0.0
        coverage = stats.result_df / result_size
        idf = math.log(1.0 + corpus_size / (1.0 + stats.corpus_df))
        return coverage * idf * math.log(1.0 + stats.occurrences)

    def upper_bound(
        self,
        result_df: int,
        result_size: int,
        corpus_size: int,
        max_occurrences: float,
    ) -> float:
        """The score at ``corpus_df = result_df`` with ``max_occurrences``.

        A term's corpus df is at least its result df, so its idf is at
        most ``log(1 + N/(1 + df))``; and ``df · log(1 + N/(1 + df))``
        grows with df (its derivative is ``log(1+u) − df/(1+df) · u/(1+u)``
        with ``u = N/(1+df)``, positive since ``log(1+u) ≥ u/(1+u)``), so
        the value at ``result_df`` bounds every lower df too.  The
        relative 1e-9 covers the rounding of either side.
        """
        if result_size == 0 or corpus_size == 0:
            return 0.0
        coverage = result_df / result_size
        idf = math.log(1.0 + corpus_size / (1.0 + result_df))
        return coverage * idf * math.log(1.0 + max_occurrences) * (1.0 + 1e-9)


SCORINGS = {
    scoring.name: scoring
    for scoring in (FrequencyScoring(), TfIdfScoring(), PopularityScoring())
}


def get_scoring(name_or_instance) -> SignificanceScoring:
    if isinstance(name_or_instance, SignificanceScoring):
        return name_or_instance
    try:
        return SCORINGS[name_or_instance]
    except KeyError:
        raise CloudError(
            f"unknown significance model {name_or_instance!r}; "
            f"choose from {sorted(SCORINGS)}"
        ) from None
