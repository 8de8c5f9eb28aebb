"""Similarity measures used by the FlexRecs recommend operator.

The paper: *"The operator may call upon functions in a library that
implement common tasks for recommendations, such as computing the Jaccard
or Pearson similarity of two sets of objects."*

All functions return ``None`` (SQL NULL) when a similarity is undefined
(empty overlap, zero variance, ...) so the direct execution path and the
compiled-SQL path agree exactly: NULL pair scores are skipped by AVG/MAX
aggregation in both worlds.

Vector arguments are mappings (e.g. ``{course_id: rating}``); set
arguments are Python sets.  Pairwise vector measures operate over the
*co-rated* keys only — the standard convention for collaborative
filtering, and the one the compiled SQL joins reproduce.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Dict, Hashable, Mapping, NamedTuple, Optional, Sequence

from repro.caching import LRUCache


def jaccard(left: AbstractSet, right: AbstractSet) -> Optional[float]:
    """|A ∩ B| / |A ∪ B|; None when both sets are empty."""
    if not left and not right:
        return None
    intersection = len(left & right)
    union = len(left) + len(right) - intersection
    return intersection / union


def overlap_coefficient(left: AbstractSet, right: AbstractSet) -> Optional[float]:
    """|A ∩ B| / min(|A|, |B|); None when either set is empty."""
    if not left or not right:
        return None
    return len(left & right) / min(len(left), len(right))


def common_count(left: AbstractSet, right: AbstractSet) -> Optional[float]:
    """|A ∩ B| as a float score; None when there is no overlap."""
    intersection = len(left & right)
    return float(intersection) if intersection else None


class VectorStats(NamedTuple):
    """Whole-vector aggregates precomputed once per cached extend vector.

    ``total`` and ``sum_squares`` accumulate in the vector's iteration
    order with the same operations (``+=`` / ``v * v``) the pairwise
    measures use, so substituting them for an on-the-fly sum is
    bit-identical whenever the co-rated keys cover the whole vector.
    """

    count: int
    total: float
    sum_squares: float
    norm: float
    mean: float


def vector_stats(vector: Mapping[Hashable, float]) -> VectorStats:
    """Single-pass :class:`VectorStats` for one ``{key: value}`` vector."""
    total = 0
    sum_squares = 0
    for value in vector.values():
        total += value
        sum_squares += value * value
    count = len(vector)
    return VectorStats(
        count=count,
        total=total,
        sum_squares=sum_squares,
        norm=math.sqrt(sum_squares),
        mean=total / count if count else 0.0,
    )


def _corated(
    left: Mapping[Hashable, float], right: Mapping[Hashable, float]
) -> Sequence[Hashable]:
    if not left or not right:
        return ()
    if len(left) > len(right):
        left, right = right, left
    # Disjoint vectors are the common case once candidate pruning is off
    # (and the reason it is sound): bail before building a list.  Iterate
    # the smaller side; membership tests hit the bigger side's hash.
    if right.keys().isdisjoint(left):
        return ()
    return [key for key in left if key in right]


def inverse_euclidean(
    left: Mapping[Hashable, float], right: Mapping[Hashable, float]
) -> Optional[float]:
    """1 / (1 + Euclidean distance) over co-rated keys.

    The comparator of the paper's Figure 5(b) lower recommend operator
    ("similarity between students is computed by taking the inverse
    Euclidean distance of their ratings").  None without co-rated keys.
    """
    keys = _corated(left, right)
    if not keys:
        return None
    total = 0
    for key in keys:
        difference = left[key] - right[key]
        total += difference * difference
    return 1.0 / (1.0 + math.sqrt(total))


def pearson(
    left: Mapping[Hashable, float], right: Mapping[Hashable, float]
) -> Optional[float]:
    """Pearson correlation over co-rated keys.

    None when fewer than two co-rated keys or when either side has zero
    variance — exactly the cases where the compiled SQL's NULLIF guards
    produce NULL.
    """
    return pearson_with_stats(left, right)


def pearson_with_stats(
    left: Mapping[Hashable, float],
    right: Mapping[Hashable, float],
    left_stats: Optional[VectorStats] = None,
    right_stats: Optional[VectorStats] = None,
) -> Optional[float]:
    """Pearson over co-rated keys in one combined pass.

    All five sums accumulate during a single walk of the co-rated keys
    (the separate-comprehension version walked them six times).  When the
    overlap covers the *iterated* (smaller) side entirely and that side's
    :class:`VectorStats` are supplied, its sum/sum-of-squares come from
    the stats instead of the loop — same additions in the same order, so
    the result is bit-identical either way.
    """
    keys = _corated(left, right)
    n = len(keys)
    if n < 2:
        return None
    swapped = len(left) > len(right)
    small = right if swapped else left
    small_stats = right_stats if swapped else left_stats
    use_stats = small_stats is not None and n == len(small)
    sum_x = sum_y = sum_xy = sum_xx = sum_yy = 0
    if use_stats:
        if swapped:
            sum_y, sum_yy = small_stats.total, small_stats.sum_squares
            for key in keys:
                x = left[key]
                sum_x += x
                sum_xx += x * x
                sum_xy += x * right[key]
        else:
            sum_x, sum_xx = small_stats.total, small_stats.sum_squares
            for key in keys:
                y = right[key]
                sum_y += y
                sum_yy += y * y
                sum_xy += left[key] * y
    else:
        for key in keys:
            x = left[key]
            y = right[key]
            sum_x += x
            sum_y += y
            sum_xy += x * y
            sum_xx += x * x
            sum_yy += y * y
    var_x = n * sum_xx - sum_x * sum_x
    var_y = n * sum_yy - sum_y * sum_y
    if var_x <= 0 or var_y <= 0:
        return None
    return (n * sum_xy - sum_x * sum_y) / (math.sqrt(var_x) * math.sqrt(var_y))


def cosine(
    left: Mapping[Hashable, float], right: Mapping[Hashable, float]
) -> Optional[float]:
    """Cosine similarity over co-rated keys (norms over the overlap).

    Using overlap-restricted norms keeps the measure computable from the
    same co-rated join the other vector measures compile to.
    """
    return cosine_with_stats(left, right)


def cosine_with_stats(
    left: Mapping[Hashable, float],
    right: Mapping[Hashable, float],
    left_stats: Optional[VectorStats] = None,
    right_stats: Optional[VectorStats] = None,
) -> Optional[float]:
    """Cosine over co-rated keys in one combined pass.

    Norms stay overlap-restricted (the compiled SQL computes them the
    same way), so precomputed stats only substitute for a side whose
    keys the overlap covers completely — see :func:`pearson_with_stats`
    for why that substitution is bit-identical.
    """
    keys = _corated(left, right)
    if not keys:
        return None
    n = len(keys)
    swapped = len(left) > len(right)
    small = right if swapped else left
    small_stats = right_stats if swapped else left_stats
    use_stats = small_stats is not None and n == len(small)
    dot = sum_xx = sum_yy = 0
    if use_stats:
        if swapped:
            sum_yy = small_stats.sum_squares
            for key in keys:
                x = left[key]
                sum_xx += x * x
                dot += x * right[key]
        else:
            sum_xx = small_stats.sum_squares
            for key in keys:
                y = right[key]
                sum_yy += y * y
                dot += left[key] * y
    else:
        for key in keys:
            x = left[key]
            y = right[key]
            dot += x * y
            sum_xx += x * x
            sum_yy += y * y
    norm_left = math.sqrt(sum_xx)
    norm_right = math.sqrt(sum_yy)
    if norm_left == 0 or norm_right == 0:
        return None
    return dot / (norm_left * norm_right)


def numeric_closeness(
    left: Optional[float], right: Optional[float], scale: float = 1.0
) -> Optional[float]:
    """1 / (1 + |a - b| / scale); None when either value is NULL.

    SQL-inlinable — compiles to arithmetic inside the generated query.
    Used e.g. for "students with similar grades" (GPA closeness).
    """
    if left is None or right is None:
        return None
    return 1.0 / (1.0 + abs(left - right) / scale)


def equality_match(left, right) -> Optional[float]:
    """1.0 when equal, 0.0 otherwise; None when either is NULL."""
    if left is None or right is None:
        return None
    return 1.0 if left == right else 0.0


#: tokenization memo: as a SQL function ``text_jaccard`` sees the same
#: titles once per pair; the result is a pure function of the text, so a
#: small LRU removes the rescans.  (The direct executor tokenises through
#: ``TextJaccard.prepare``, once per row of a cached relation.)
_TOKEN_CACHE = LRUCache(maxsize=8192)


def token_set(text: Optional[str]) -> frozenset:
    """Lowercased word tokens of a string as a set (for text Jaccard)."""
    if not text:
        return frozenset()
    cached = _TOKEN_CACHE.get(text)
    if cached is not None:
        return cached
    tokens = frozenset(
        token for token in _split_words(text.lower()) if len(token) >= 2
    )
    _TOKEN_CACHE.put(text, tokens)
    return tokens


def _split_words(text: str):
    word = []
    for char in text:
        if char.isalnum():
            word.append(char)
        elif word:
            yield "".join(word)
            word = []
    if word:
        yield "".join(word)


def text_jaccard(left: Optional[str], right: Optional[str]) -> Optional[float]:
    """Jaccard similarity of the word-token sets of two strings.

    The comparator of Figure 5(a): "find courses with titles similar to
    the indicated course".  None when either string is NULL/empty.
    """
    return token_jaccard(token_set(left), token_set(right))


def token_jaccard(left: AbstractSet, right: AbstractSet) -> Optional[float]:
    """:func:`text_jaccard` on already tokenised sides (see :func:`token_set`)."""
    if not left or not right:
        return None
    return jaccard(left, right)


def levenshtein(left: str, right: str) -> int:
    """Classic edit distance (insert/delete/substitute, all cost 1)."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    previous = list(range(len(right) + 1))
    for row, left_char in enumerate(left, start=1):
        current = [row]
        for column, right_char in enumerate(right, start=1):
            cost = 0 if left_char == right_char else 1
            current.append(
                min(
                    previous[column] + 1,  # delete
                    current[column - 1] + 1,  # insert
                    previous[column - 1] + cost,  # substitute
                )
            )
        previous = current
    return previous[-1]


def levenshtein_similarity(
    left: Optional[str], right: Optional[str]
) -> Optional[float]:
    """1 - edit_distance / max_length, case-insensitive; None on NULLs."""
    if left is None or right is None:
        return None
    left_lower = left.lower()
    right_lower = right.lower()
    longest = max(len(left_lower), len(right_lower))
    if longest == 0:
        return None
    return 1.0 - levenshtein(left_lower, right_lower) / longest
