"""Corpus-level statistics for distributed (scatter-gather) scoring.

BM25 scoring depends on three corpus aggregates: the document count, the
per-term document frequency, and the per-field average length.  On a
sharded corpus each shard only sees its slice, so scoring locally with
local statistics would rank differently than the unsharded build.

:class:`CorpusStats` is the fix: a small, immutable bundle of exactly
those aggregates.  A :class:`~repro.clouds.refinement.CloudNavigator`
gathers one per shard (:meth:`CorpusStats.local`), merges them
(:meth:`CorpusStats.merged` — every component is an **integer sum over
disjoint document sets**, so the merge is exact and order-independent),
and hands the merged stats back to each shard's engine, which then
scores its local candidates with *global* idf and *global* average field
lengths.  Unsharded, the engine scores under :meth:`CorpusStats.local`,
whose formulas are the index's own.  Per-document score arithmetic is
bit-identical to the unsharded engine because the inputs (idf, inverse
normalizer, tf, field weights) are bit-identical floats and are combined
in the same order.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence

from repro.search.inverted_index import InvertedIndex


class CorpusStats:
    """Global corpus aggregates: doc count, per-term df, field lengths."""

    __slots__ = ("document_count", "term_df", "field_tokens", "field_holders")

    def __init__(
        self,
        document_count: int,
        term_df: Dict[str, int],
        field_tokens: Dict[str, int],
        field_holders: Dict[str, int],
    ) -> None:
        self.document_count = document_count
        self.term_df = term_df
        self.field_tokens = field_tokens
        self.field_holders = field_holders

    # -- scoring inputs ----------------------------------------------------

    def idf(self, term: str) -> float:
        """Same smoothed idf formula as :meth:`InvertedIndex.idf`."""
        df = self.term_df.get(term, 0)
        n = self.document_count
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5)) if n else 0.0

    def average_field_length(self, field: str) -> float:
        total = self.field_tokens.get(field, 0)
        if not total:
            return 0.0
        holders = self.field_holders.get(field, 0)
        return total / holders if holders else 0.0

    # -- construction ------------------------------------------------------

    @staticmethod
    def local(index: InvertedIndex, terms: Sequence[str]) -> "CorpusStats":
        """One shard's contribution, restricted to the query's terms."""
        return CorpusStats(
            document_count=index.document_count,
            term_df={term: index.document_frequency(term) for term in set(terms)},
            field_tokens=dict(index.field_token_counts()),
            field_holders=dict(index.field_holder_counts()),
        )

    @staticmethod
    def merged(parts: Iterable["CorpusStats"]) -> "CorpusStats":
        """Exact merge over disjoint shards: every component is an
        integer sum, so the result is independent of part order."""
        document_count = 0
        term_df: Dict[str, int] = {}
        field_tokens: Dict[str, int] = {}
        field_holders: Dict[str, int] = {}
        for part in parts:
            document_count += part.document_count
            for term, df in part.term_df.items():
                term_df[term] = term_df.get(term, 0) + df
            for field, tokens in part.field_tokens.items():
                field_tokens[field] = field_tokens.get(field, 0) + tokens
            for field, holders in part.field_holders.items():
                field_holders[field] = field_holders.get(field, 0) + holders
        return CorpusStats(document_count, term_df, field_tokens, field_holders)
