"""Click-to-refine sessions over data clouds (Figures 3 and 4).

A :class:`RefinementSession` holds the current query, its results, and its
cloud.  ``refine(term)`` appends the clicked cloud term to the query,
re-runs the (conjunctive) search, and rebuilds the cloud over the narrowed
result set — exactly the "American" → "African American" walk-through in
the paper.  ``back()`` undoes the last refinement.

Every step is one :meth:`CloudNavigator.answer`: a search and its cloud
over a tuple of shards (each an ``engine`` and its ``builder``), narrowed
within the parent step's per-shard doc ids and cached.  The facade's
search and sessions are the one-shard navigator; the service
coordinator's (:mod:`repro.service.frontend`) is the N-shard one, so the
two walk through bit-identical queries, results, and clouds.  Each step carries
its results' doc ids per shard, which is what a refinement narrows
within and what :meth:`RefinementSession.cube` roots its cube at.

Invariant (tested property): because matching is conjunctive, every
refinement step's result set is a subset of the previous step's.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.caching import LRUCache
from repro.errors import CloudError
from repro.clouds.cloud import CloudBuilder, DataCloud, cloud_over_shards
from repro.search.engine import SearchEngine, SearchResult, _tiebreak
from repro.search.stats import CorpusStats

DocId = Any

#: answers one navigator keeps, least recently used dropped first
ANSWER_CACHE_SIZE = 256

_HIT_KEY = lambda hit: (-hit.score, _tiebreak(hit.doc_id))  # noqa: E731


class SearchShard(NamedTuple):
    """One shard of a navigator: an indexed engine and its cloud builder.

    A navigator reads ``engine`` and ``builder`` off its shards on every
    answer, so any object with the two attributes serves — a
    :class:`~repro.courserank.cloudsearch.CourseCloudSearch` builds its
    index on the first read of either.
    """

    engine: SearchEngine
    builder: CloudBuilder


@dataclass
class RefinementStep:
    """One state of the session: the query, its results, and its cloud,
    with the results' doc ids on each shard."""

    query: str
    result: SearchResult
    cloud: DataCloud
    shard_doc_ids: Tuple[Tuple[DocId, ...], ...]


class CloudNavigator:
    """Cached search answers with their clouds over N shards.

    :meth:`answer` is two-phase distributed BM25 plus one cloud: it
    merges every shard's :class:`~repro.search.stats.CorpusStats` for the
    query terms (integer sums over disjoint documents, so exact), scores
    each shard's candidates under the merged statistics, k-way merges the
    per-shard rankings under the engine's own sort key, and builds the
    cloud with :func:`~repro.clouds.cloud.cloud_over_shards`.  At one
    shard the merged statistics are that shard's own, so the facade's
    answer is the engine's; at N shards it is bit-identical to the
    unsharded build's.

    Answers are cached under the per-shard index epochs, the parsed
    query and the parent's per-shard doc ids: any write rotates the key
    and strands every answer that predates it, and queries differing
    only in case or whitespace share an entry.
    """

    def __init__(self, shards: Iterable[SearchShard]) -> None:
        self.shards: Tuple[SearchShard, ...] = tuple(shards)
        self._cache = LRUCache(maxsize=ANSWER_CACHE_SIZE)

    def epochs(self) -> Tuple[int, ...]:
        """One index epoch per shard (reading a shard's engine builds it)."""
        return tuple(shard.engine.index.epoch for shard in self.shards)

    def cache_info(self) -> Dict[str, int]:
        """Answer-cache counters: hits, misses, current size."""
        cache = self._cache
        return {"hits": cache.hits, "misses": cache.misses, "size": len(cache)}

    def answer(
        self,
        query: str,
        parent: Optional[Tuple[Tuple[DocId, ...], ...]] = None,
    ) -> RefinementStep:
        """The step for ``query``, within each shard's ``parent`` doc ids.

        Every call returns fresh result and cloud shells carrying
        ``query`` as given; a cached answer is marked ``cache_hit``.
        """
        started = time.perf_counter()
        loose, phrases = self.shards[0].engine.parse_query(query)
        key = (
            self.epochs(),
            tuple(loose),
            tuple(map(tuple, phrases)),
            parent,
        )
        step = self._cache.get(key)
        cache_hit = step is not None
        if step is None:
            terms = list(loose) + [term for phrase in phrases for term in phrase]
            step = self._gather(query, terms, phrases, parent)
            self._cache.put(key, step)
        result, cloud = step.result, step.cloud
        return RefinementStep(
            query=query,
            result=replace(
                result,
                query=query,
                terms=list(result.terms),
                hits=list(result.hits),
                phrases=[list(phrase) for phrase in result.phrases],
                cache_hit=cache_hit,
                elapsed_ms=(time.perf_counter() - started) * 1000.0,
            ),
            cloud=replace(cloud, query=query, terms=list(cloud.terms)),
            shard_doc_ids=step.shard_doc_ids,
        )

    def _gather(
        self,
        query: str,
        terms: List[str],
        phrases: List[List[str]],
        parent: Optional[Tuple[Tuple[DocId, ...], ...]],
    ) -> RefinementStep:
        stats = CorpusStats.merged(
            CorpusStats.local(shard.engine.index, terms)
            for shard in self.shards
        )
        within = repeat(None) if parent is None else map(set, parent)
        results = [
            shard.engine.search(query, within=shard_within, corpus_stats=stats)
            for shard, shard_within in zip(self.shards, within)
        ]
        shard_doc_ids = tuple(tuple(result.doc_ids()) for result in results)
        return RefinementStep(
            query=query,
            result=SearchResult(
                query=query,
                terms=terms,
                hits=list(
                    heapq.merge(*(r.hits for r in results), key=_HIT_KEY)
                ),
                phrases=phrases,
                candidate_count=sum(r.candidate_count for r in results),
                scored_count=sum(r.scored_count for r in results),
            ),
            cloud=cloud_over_shards(
                zip([shard.builder for shard in self.shards], shard_doc_ids),
                query,
                terms,
            ),
            shard_doc_ids=shard_doc_ids,
        )


class RefinementSession:
    """Interactive narrow-down over a :class:`CloudNavigator`."""

    def __init__(
        self,
        engine: SearchEngine,
        builder: CloudBuilder,
        query: str,
    ) -> None:
        """A one-shard session over its own navigator."""
        self._start(CloudNavigator([SearchShard(engine, builder)]), query)

    @classmethod
    def over(cls, navigator: CloudNavigator, query: str) -> "RefinementSession":
        """A session whose every step ``navigator`` answers."""
        session = cls.__new__(cls)
        session._start(navigator, query)
        return session

    def _start(self, navigator: CloudNavigator, query: str) -> None:
        self.navigator = navigator
        self._steps: List[RefinementStep] = []
        self._push(query)

    # -- state ------------------------------------------------------------

    @property
    def current(self) -> RefinementStep:
        return self._steps[-1]

    @property
    def query(self) -> str:
        return self.current.query

    @property
    def result(self) -> SearchResult:
        return self.current.result

    @property
    def cloud(self) -> DataCloud:
        return self.current.cloud

    @property
    def depth(self) -> int:
        """Number of refinements applied (0 for the initial query)."""
        return len(self._steps) - 1

    def history(self) -> List[str]:
        return [step.query for step in self._steps]

    # -- interaction -----------------------------------------------------------

    def refine(self, term: str) -> RefinementStep:
        """Click a cloud term: conjunctively narrow the current results.

        Multi-word cloud terms ("african american") refine as *phrases* —
        the words must appear consecutively, matching what the cloud
        displayed rather than any scattered co-occurrence.
        """
        term = term.strip()
        if not term:
            raise CloudError("refinement term must be non-empty")
        if " " in term and not term.startswith('"'):
            term = f'"{term}"'
        return self._push(f"{self.query} {term}".strip(), self.current)

    def cube(self, dimensions: Optional[Any] = None):
        """A cloud cube rooted at the current result set.

        The paper's Figure 4 step sideways: instead of refining by a
        term, break the current hits down along course dimensions.
        """
        step = self.current
        return self._cube(
            step.shard_doc_ids,
            dimensions=dimensions,
            query=step.query,
            query_terms=step.result.terms,
        )

    def back(self) -> RefinementStep:
        """Undo the last refinement."""
        if len(self._steps) == 1:
            raise CloudError("already at the initial query")
        self._steps.pop()
        return self.current

    def reset(self, query: str) -> RefinementStep:
        """Start over with a fresh query."""
        self._steps.clear()
        return self._push(query)

    # -- internals ---------------------------------------------------------

    def _push(
        self, query: str, parent: Optional[RefinementStep] = None
    ) -> RefinementStep:
        step = self.navigator.answer(
            query, None if parent is None else parent.shard_doc_ids
        )
        self._steps.append(step)
        return step

    def _cube(
        self, shard_doc_ids: Tuple[Tuple[DocId, ...], ...], **spec: Any
    ):
        """A cube rooted at ``shard_doc_ids`` (this session's one shard)."""
        from repro.clouds.cube import CloudCube

        (shard,) = self.navigator.shards
        (base_doc_ids,) = shard_doc_ids
        return CloudCube(
            shard.engine.database, shard.builder, base_doc_ids, **spec
        )
