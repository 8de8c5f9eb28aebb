"""Result snippets: show *why* an entity matched.

The course list of Figure 3 shows each hit with enough text to judge
relevance.  :func:`best_snippet` picks the window of an entity's stored
text densest in query terms (preferring the highest-weighted field that
matched) and marks the matches, e.g.::

    ...covers the **american** revolution and the civil war...
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.search.engine import SearchEngine
from repro.search.tokenizer import tokens

DocId = Any


def best_snippet(
    engine: SearchEngine,
    doc_id: DocId,
    terms: Sequence[str],
    width: int = 12,
    mark: str = "**",
) -> Optional[str]:
    """The densest ``width``-word window containing query terms.

    ``terms`` are stemmed query tokens (``SearchResult.terms``).  Fields
    are tried in descending weight order; the first field containing any
    term supplies the snippet.  Returns None when nothing matches (e.g.
    the hit came via a field with empty stored text).
    """
    texts = engine.document_text(doc_id)
    term_set = set(terms)
    ordered_fields = sorted(
        texts,
        key=lambda name: -engine.field_weights.get(name, 1.0),
    )
    for field_name in ordered_fields:
        snippet = _snippet_from_text(texts[field_name], term_set, width, mark)
        if snippet is not None:
            return snippet
    return None


def annotate_hits(
    engine: SearchEngine,
    result,
    limit: int = 10,
    width: int = 12,
) -> List[Tuple[DocId, str]]:
    """(doc_id, snippet) pairs for the top hits of a SearchResult."""
    annotated = []
    for hit in result.top(limit):
        snippet = best_snippet(engine, hit.doc_id, result.terms, width=width)
        annotated.append((hit.doc_id, snippet or ""))
    return annotated


def _snippet_from_text(
    text: str,
    term_set,
    width: int,
    mark: str,
) -> Optional[str]:
    words = text.split()
    if not words:
        return None
    hit_positions = [
        position
        for position, word in enumerate(words)
        if _stem_of(word) in term_set
    ]
    if not hit_positions:
        return None
    # Densest window: slide over hit positions.
    best_start = 0
    best_count = 0
    for anchor in hit_positions:
        start = max(0, anchor - width // 2)
        end = start + width
        count = sum(1 for p in hit_positions if start <= p < end)
        if count > best_count:
            best_count = count
            best_start = start
    start = best_start
    end = min(len(words), start + width)
    rendered = []
    for position in range(start, end):
        word = words[position]
        if _stem_of(word) in term_set:
            rendered.append(f"{mark}{word}{mark}")
        else:
            rendered.append(word)
    prefix = "..." if start > 0 else ""
    suffix = "..." if end < len(words) else ""
    return f"{prefix}{' '.join(rendered)}{suffix}"


def _stem_of(word: str) -> Optional[str]:
    stems = tokens(word)
    return stems[0] if stems else None
