"""Positional inverted index with per-field granularity.

Documents are identified by an application-chosen hashable id (CourseRank
uses the course primary key).  Each document is a mapping of *field name*
to a token list; the index records, per term, the documents, fields, and
token positions it occurs at.  Positions enable true phrase matching —
the multi-word cloud terms of the paper's Figure 3 ("Latin American",
"African American") refine as phrases, not as independent words.

A forward index (doc → field → term counts) is kept alongside — the
data-cloud scorers iterate it to gather term statistics over a result
set without re-tokenizing source text.

Statistics are maintained **incrementally**: per-field token totals,
per-field holder counts, and per-(doc, field) lengths are updated on
every add/remove, so ``average_field_length``, ``field_length``,
``document_frequency`` and ``idf`` are all O(1) at query time.  An
**epoch** counter is bumped on every mutation; derived artifacts (the
BM25 length-normalizer tables here, the answer and cloud caches in
the layers above) key themselves to the epoch and rebuild lazily when it
moves — the same version-counter invalidation discipline the minidb plan
cache uses.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence, Set, Tuple

from repro.errors import SearchError

DocId = Any

#: per-document postings entry: field name -> sorted token positions
FieldPositions = Dict[str, List[int]]


class InvertedIndex:
    """Term → postings with field-level positions."""

    def __init__(self) -> None:
        # term -> doc_id -> field -> [positions]
        self._postings: Dict[str, Dict[DocId, FieldPositions]] = {}
        # doc_id -> field -> Counter(term)
        self._forward: Dict[DocId, Dict[str, Counter]] = {}
        # field -> total token count (entries removed when they reach 0)
        self._field_tokens: Dict[str, int] = {}
        # field -> number of documents holding the field (incremental)
        self._field_holders: Dict[str, int] = {}
        # doc_id -> field -> token count (O(1) field_length)
        self._field_lengths: Dict[DocId, Dict[str, int]] = {}
        # Mutation counter; bumped by add/remove/clear.  Derived caches at
        # every layer key themselves to this value.
        self._epoch = 0
        # (field, b) -> (epoch, average, {doc_id: 1 / bm25-length-normalizer})
        self._norm_tables: Dict[
            Tuple[str, float], Tuple[int, float, Dict[DocId, float]]
        ] = {}
        # doc_id -> epoch published by its latest add/remove, oldest
        # first (a re-touched document moves to the end).  One entry per
        # document ever indexed: bounded by the corpus, not by the number
        # of writes.
        self._touched: Dict[DocId, int] = {}
        # The same changes as an append-only (epoch, doc_id) log, so the
        # changes since any epoch are a suffix found by bisection.  When
        # it holds twice as many entries as ``_touched`` it is replaced
        # (never edited) by a copy of ``_touched``'s one entry per doc.
        self._touch_log: List[Tuple[int, DocId]] = []

    # -- building ----------------------------------------------------------

    def add_document(self, doc_id: DocId, fields: Mapping[str, List[str]]) -> None:
        """Index one document; re-adding an existing id replaces it."""
        self._add(doc_id, fields)
        self._epoch += 1

    def add_documents(
        self, documents: Mapping[DocId, Mapping[str, List[str]]]
    ) -> int:
        """Batch-index many documents with a single epoch bump.

        Equivalent to calling :meth:`add_document` per entry, but derived
        caches (norm tables, answer caches) are invalidated once instead
        of per document.  Returns the number of documents indexed.
        """
        count = 0
        for doc_id, fields in documents.items():
            self._add(doc_id, fields)
            count += 1
        if count:
            self._epoch += 1
        return count

    def _touch(self, doc_id: DocId) -> None:
        """Log a change to ``doc_id``; the caller bumps the epoch next."""
        published = self._epoch + 1
        touched = self._touched
        touched.pop(doc_id, None)
        touched[doc_id] = published
        log = self._touch_log
        log.append((published, doc_id))
        if len(log) > 2 * len(touched):
            self._touch_log = [(epoch, doc) for doc, epoch in touched.items()]

    def _add(self, doc_id: DocId, fields: Mapping[str, List[str]]) -> None:
        self._touch(doc_id)
        replaced = self._forward.get(doc_id)
        if replaced is not None:
            # Replaced in place: the document keeps its position in
            # document_ids(), so a document set listed from it (a cube
            # root) is the same tuple after the write.
            self._unindex(doc_id, replaced)
        forward: Dict[str, Counter] = {}
        lengths: Dict[str, int] = {}
        for field, tokens in fields.items():
            if not tokens:
                continue
            counts = Counter(tokens)
            forward[field] = counts
            lengths[field] = len(tokens)
            self._field_tokens[field] = (
                self._field_tokens.get(field, 0) + len(tokens)
            )
            self._field_holders[field] = self._field_holders.get(field, 0) + 1
            for position, term in enumerate(tokens):
                by_doc = self._postings.setdefault(term, {})
                by_doc.setdefault(doc_id, {}).setdefault(field, []).append(
                    position
                )
        self._forward[doc_id] = forward
        self._field_lengths[doc_id] = lengths

    def remove_document(self, doc_id: DocId) -> None:
        self._remove(doc_id)
        self._epoch += 1

    def _remove(self, doc_id: DocId) -> None:
        forward = self._forward.pop(doc_id, None)
        if forward is None:
            raise SearchError(f"document {doc_id!r} is not indexed")
        self._touch(doc_id)
        self._unindex(doc_id, forward)

    def _unindex(self, doc_id: DocId, forward: Dict[str, Counter]) -> None:
        """Take ``doc_id``'s statistics and postings out of the index."""
        self._field_lengths.pop(doc_id, None)
        for field, counts in forward.items():
            remaining = self._field_tokens[field] - sum(counts.values())
            if remaining:
                self._field_tokens[field] = remaining
            else:
                # Zeroed entries must not linger: a later holder-count of 0
                # with a stale token total would corrupt average lengths.
                del self._field_tokens[field]
            holders = self._field_holders[field] - 1
            if holders:
                self._field_holders[field] = holders
            else:
                del self._field_holders[field]
            for term in counts:
                by_doc = self._postings.get(term)
                if by_doc is None:
                    continue
                entry = by_doc.get(doc_id)
                if entry is not None:
                    entry.pop(field, None)
                    if not entry:
                        del by_doc[doc_id]
                if not by_doc:
                    del self._postings[term]

    def clear(self) -> None:
        for doc_id in self._forward:
            self._touch(doc_id)
        self._postings.clear()
        self._forward.clear()
        self._field_tokens.clear()
        self._field_holders.clear()
        self._field_lengths.clear()
        self._norm_tables.clear()
        self._epoch += 1

    # -- statistics -----------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Mutation counter; changes whenever indexed content changes."""
        return self._epoch

    def touched_since(self, epoch: int) -> List[DocId]:
        """Documents added, replaced or removed after ``epoch``.

        What an epoch-keyed derived artifact (the clouds' forward index)
        has to redo to follow the index from ``epoch`` to now; whether a
        listed document still exists is :meth:`has_document`.  Newest
        first; the cost is the number of changes logged after ``epoch``.

        An unlocked facade reader may get here mid-write: the log is only
        ever appended to or replaced whole, so one read of it and one
        slice are a snapshot (``(epoch + 1,)`` sorts before every entry
        published at ``epoch + 1`` without comparing document ids).
        """
        log = self._touch_log
        since = log[bisect_left(log, (epoch + 1,)):]
        return list(dict.fromkeys(doc_id for _, doc_id in reversed(since)))

    @property
    def document_count(self) -> int:
        return len(self._forward)

    @property
    def vocabulary_size(self) -> int:
        return len(self._postings)

    def document_frequency(self, term: str) -> int:
        return len(self._postings.get(term, ()))

    def idf(self, term: str) -> float:
        """Smoothed inverse document frequency (never negative)."""
        df = self.document_frequency(term)
        n = self.document_count
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5)) if n else 0.0

    def average_field_length(self, field: str) -> float:
        total = self._field_tokens.get(field, 0)
        if not total:
            return 0.0
        holders = self._field_holders.get(field, 0)
        return total / holders if holders else 0.0

    def field_holder_count(self, field: str) -> int:
        """Number of documents holding a non-empty ``field``."""
        return self._field_holders.get(field, 0)

    def field_token_counts(self) -> Dict[str, int]:
        """Per-field total token counts (scatter-gather stats export)."""
        return dict(self._field_tokens)

    def field_holder_counts(self) -> Dict[str, int]:
        """Per-field holder counts (scatter-gather stats export)."""
        return dict(self._field_holders)

    def field_length(self, doc_id: DocId, field: str) -> int:
        lengths = self._field_lengths.get(doc_id)
        if not lengths:
            return 0
        return lengths.get(field, 0)

    def document_length(self, doc_id: DocId) -> int:
        return sum(self._field_lengths.get(doc_id, {}).values())

    def length_normalizers(
        self, field: str, b: float, average: float
    ) -> Dict[DocId, float]:
        """Per-document *inverse* BM25 length normalizers for ``field``.

        Returns ``{doc_id: 1 / (1 - b + b * length/average)}`` for every
        document holding the field.  ``average`` is the corpus's average
        field length: this index's own (:meth:`average_field_length`)
        unsharded, the merged corpus's when a shard scores for the whole
        corpus.  One table is cached per ``(field, b)`` and rebuilt when
        the index epoch or ``average`` moves, so the scoring inner loop
        pays one dict lookup per (doc, field) instead of recomputing
        lengths per candidate, and no past average leaves a table behind.
        """
        key = (field, b)
        cached = self._norm_tables.get(key)
        if cached is not None and cached[:2] == (self._epoch, average):
            return cached[2]
        table: Dict[DocId, float] = {}
        if average:
            base = 1.0 - b
            scale = b / average
            for doc_id, lengths in self._field_lengths.items():
                length = lengths.get(field)
                if length:
                    table[doc_id] = 1.0 / (base + scale * length)
        self._norm_tables[key] = (self._epoch, average, table)
        return table

    # -- access -------------------------------------------------------------

    def postings(self, term: str) -> Dict[DocId, Dict[str, int]]:
        """Documents containing ``term`` with per-field term frequencies."""
        return {
            doc_id: {field: len(positions) for field, positions in entry.items()}
            for doc_id, entry in self._postings.get(term, {}).items()
        }

    def positional_postings(self, term: str) -> Dict[DocId, FieldPositions]:
        """Documents containing ``term`` with per-field position lists."""
        return self._postings.get(term, {})

    def matching_documents(self, term: str) -> Set[DocId]:
        return set(self._postings.get(term, ()))

    def has_document(self, doc_id: DocId) -> bool:
        return doc_id in self._forward

    def document_ids(self) -> Iterator[DocId]:
        return iter(self._forward)

    def document_terms(self, doc_id: DocId) -> Dict[str, Counter]:
        """Forward-index entry: field → Counter(term)."""
        forward = self._forward.get(doc_id)
        if forward is None:
            raise SearchError(f"document {doc_id!r} is not indexed")
        return forward

    def term_frequency(self, doc_id: DocId, term: str) -> int:
        """Total tf of ``term`` in the document, across fields."""
        by_doc = self._postings.get(term, {})
        entry = by_doc.get(doc_id)
        if not entry:
            return 0
        return sum(len(positions) for positions in entry.values())

    def terms(self) -> Iterator[str]:
        return iter(self._postings)

    def collection_frequency(self, term: str) -> int:
        """Total occurrences of ``term`` across the whole collection."""
        by_doc = self._postings.get(term, {})
        return sum(
            sum(len(positions) for positions in entry.values())
            for entry in by_doc.values()
        )

    # -- phrases --------------------------------------------------------------

    def phrase_match(self, doc_id: DocId, terms: Sequence[str]) -> bool:
        """True when ``terms`` occur consecutively in some field.

        Positions are indices into the *filtered* token stream, so
        phrases are stopword-insensitive ("war peace" matches a document
        saying "war and peace") — the same convention the cloud's bigram
        extractor uses for its displayed phrases.
        """
        if not terms:
            return False
        if len(terms) == 1:
            entry = self._postings.get(terms[0], {})
            return doc_id in entry
        entries = []
        for term in terms:
            entry = self._postings.get(term, {}).get(doc_id)
            if not entry:
                return False
            entries.append(entry)
        fields = set(entries[0])
        for entry in entries[1:]:
            fields &= set(entry)
        for field in fields:
            starts = set(entries[0][field])
            for offset, entry in enumerate(entries[1:], start=1):
                starts &= {
                    position - offset for position in entry[field]
                }
                if not starts:
                    break
            if starts:
                return True
        return False

    def phrase_documents(self, terms: Sequence[str]) -> Set[DocId]:
        """All documents where ``terms`` occur as a phrase."""
        if not terms:
            return set()
        candidates = self.matching_documents(terms[0])
        for term in terms[1:]:
            candidates &= self.matching_documents(term)
            if not candidates:
                return set()
        return {
            doc_id
            for doc_id in candidates
            if self.phrase_match(doc_id, terms)
        }
