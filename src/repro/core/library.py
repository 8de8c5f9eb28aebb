"""The FlexRecs comparator library.

A :class:`Comparator` scores a (target tuple, reference tuple) pair.  Each
comparator supports both execution paths:

* **direct** — :meth:`Comparator.score` evaluates in Python over row
  dicts (including set-valued attributes attached by the extend operator);
* **compiled** — a SQL descriptor consumed by
  :mod:`repro.core.compiler`.  ``kind`` selects the compilation scheme:

  - ``scalar`` — inlined arithmetic/CASE SQL over two scalar columns
    (the paper: "when possible, library functions are compiled into the
    SQL statements themselves");
  - ``udf``    — a registered scalar function called from the generated
    SQL ("in other cases we can rely on external functions that are
    called by the SQL statements");
  - ``vector`` — pairwise measure over extend-attached rating vectors,
    compiled to a co-rated join + GROUP BY with the measure expressed in
    SQL aggregates;
  - ``set``    — measure over extend-attached value sets, compiled to an
    intersection join plus per-key size subqueries;
  - ``lookup`` — the reference tuples' vector is probed with a target
    column (Figure 5(b)'s upper recommend: a course's score is the
    average rating given by the similar students).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.backends.dialects import MINIDB_DIALECT, SqlDialect
from repro.errors import FlexRecsError
from repro.core import similarity


def _get(row: Mapping[str, Any], attribute: str) -> Any:
    try:
        return row[attribute]
    except KeyError:
        # Case-insensitive fallback: schemas use CamelCase (CourseID), and
        # strategy authors shouldn't have to match it exactly.
        lowered = attribute.lower()
        for key, value in row.items():
            if key.lower() == lowered:
                return value
        raise FlexRecsError(
            f"tuple has no attribute {attribute!r}; available: {sorted(row)}"
        ) from None


class Comparator:
    """Base class; concrete comparators set ``kind`` and implement
    ``score(target_row, reference_row)``.  Scalar and udf kinds also
    implement ``pair_function()``: the ``(target_value, reference_value)
    -> score`` form the direct executor calls per pair."""

    kind: str = "abstract"
    name: str = "comparator"

    #: True when a (target, reference) pair whose extend attributes share
    #: no key can only ever score NULL.  The direct executor uses this to
    #: prune the cross product down to overlapping candidates — a subclass
    #: whose ``measure`` can score disjoint attributes must set it False.
    requires_overlap: bool = False

    #: Optional pure function of one attribute value.  When set,
    #: :meth:`pair_function` takes ``prepare(value)`` on both sides in
    #: place of the raw values; the executor computes it once per row and
    #: keeps the target side's with the cached relation.
    prepare: Optional[Callable[[Any], Any]] = None

    #: attribute names this comparator reads from target / reference tuples
    target_attribute: str = ""
    reference_attribute: str = ""

    def describe(self) -> str:
        return (
            f"{self.name}(target.{self.target_attribute}, "
            f"reference.{self.reference_attribute})"
        )

    # Value semantics: two comparators of one class over the same
    # attributes (and settings) are the same comparator, so equal
    # workflows built per request compare and hash equal.
    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def __hash__(self) -> int:
        return hash((type(self), tuple(sorted(vars(self).items()))))


# ---------------------------------------------------------------------------
# scalar (SQL-inlinable) comparators
# ---------------------------------------------------------------------------


class EqualityMatch(Comparator):
    """1.0 when the two attributes are equal, 0.0 otherwise."""

    kind = "scalar"
    name = "equality_match"

    def __init__(self, target_attribute: str, reference_attribute: str) -> None:
        self.target_attribute = target_attribute
        self.reference_attribute = reference_attribute

    def score(self, target_row, reference_row):
        return similarity.equality_match(
            _get(target_row, self.target_attribute),
            _get(reference_row, self.reference_attribute),
        )

    def pair_function(self):
        return similarity.equality_match

    def inline_sql(
        self,
        target_ref: str,
        reference_ref: str,
        dialect: SqlDialect = MINIDB_DIALECT,
    ) -> str:
        return (
            f"CASE WHEN {target_ref} IS NULL THEN NULL "
            f"WHEN {reference_ref} IS NULL THEN NULL "
            f"WHEN {target_ref} = {reference_ref} THEN 1.0 ELSE 0.0 END"
        )


class NumericCloseness(Comparator):
    """1 / (1 + |a - b| / scale) over two numeric attributes.

    "Recommendations based on people with similar grades" compiles to
    plain arithmetic in the generated SQL.
    """

    kind = "scalar"
    name = "numeric_closeness"

    def __init__(
        self,
        target_attribute: str,
        reference_attribute: str,
        scale: float = 1.0,
    ) -> None:
        if scale <= 0:
            raise FlexRecsError("scale must be positive")
        self.target_attribute = target_attribute
        self.reference_attribute = reference_attribute
        # Kept float so the inlined SQL literal divides as a float even
        # on engines whose integer division truncates.
        self.scale = float(scale)

    def score(self, target_row, reference_row):
        return similarity.numeric_closeness(
            _get(target_row, self.target_attribute),
            _get(reference_row, self.reference_attribute),
            scale=self.scale,
        )

    def pair_function(self):
        scale = self.scale

        def closeness(left, right):
            return similarity.numeric_closeness(left, right, scale=scale)

        return closeness

    def inline_sql(
        self,
        target_ref: str,
        reference_ref: str,
        dialect: SqlDialect = MINIDB_DIALECT,
    ) -> str:
        # ABS(a - b) may be integer-typed, but the outer division's left
        # operand is the float literal 1.0, so no dialect promotion is
        # needed even on truncating-division engines.
        return (
            f"1.0 / (1.0 + ABS({target_ref} - {reference_ref}) / {self.scale!r})"
        )


# ---------------------------------------------------------------------------
# UDF comparators (external functions called from the SQL)
# ---------------------------------------------------------------------------


class TextJaccard(Comparator):
    """Jaccard similarity of word-token sets of two text attributes.

    Figure 5(a)'s "courses with titles similar to ..." comparator.
    """

    kind = "udf"
    name = "text_jaccard"
    udf_name = "frx_text_jaccard"
    udf = staticmethod(similarity.text_jaccard)
    prepare = staticmethod(similarity.token_set)

    def __init__(self, target_attribute: str, reference_attribute: str) -> None:
        self.target_attribute = target_attribute
        self.reference_attribute = reference_attribute

    def score(self, target_row, reference_row):
        return similarity.text_jaccard(
            _get(target_row, self.target_attribute),
            _get(reference_row, self.reference_attribute),
        )

    def pair_function(self):
        return similarity.token_jaccard


class LevenshteinSimilarity(Comparator):
    """Normalized edit-distance similarity of two text attributes."""

    kind = "udf"
    name = "levenshtein_similarity"
    udf_name = "frx_levenshtein_similarity"
    udf = staticmethod(similarity.levenshtein_similarity)

    def __init__(self, target_attribute: str, reference_attribute: str) -> None:
        self.target_attribute = target_attribute
        self.reference_attribute = reference_attribute

    def score(self, target_row, reference_row):
        return similarity.levenshtein_similarity(
            _get(target_row, self.target_attribute),
            _get(reference_row, self.reference_attribute),
        )

    def pair_function(self):
        return similarity.levenshtein_similarity


# ---------------------------------------------------------------------------
# vector comparators (over extend-attached {key: value} attributes)
# ---------------------------------------------------------------------------


class _VectorComparator(Comparator):
    """Subclasses set ``measure`` and implement ``pair_sql(target_value,
    reference_value, dialect)``: the SQL aggregate over the co-rated join."""

    kind = "vector"
    # Every library vector measure operates over co-rated keys only and
    # returns None without overlap, so disjoint pairs are prunable.
    requires_overlap = True
    measure: Callable = None  # type: ignore[assignment]

    def __init__(self, target_attribute: str, reference_attribute: str) -> None:
        self.target_attribute = target_attribute
        self.reference_attribute = reference_attribute

    def score(self, target_row, reference_row):
        left = _get(target_row, self.target_attribute)
        right = _get(reference_row, self.reference_attribute)
        if not isinstance(left, Mapping) or not isinstance(right, Mapping):
            raise FlexRecsError(
                f"{self.name} requires vector (extend-map) attributes; "
                f"got {type(left).__name__} and {type(right).__name__}"
            )
        return type(self).measure(left, right)


class InverseEuclidean(_VectorComparator):
    """1 / (1 + Euclidean distance) over co-rated keys — Figure 5(b)."""

    name = "inverse_euclidean"
    measure = staticmethod(similarity.inverse_euclidean)

    def pair_sql(
        self,
        target_value: str,
        reference_value: str,
        dialect: SqlDialect = MINIDB_DIALECT,
    ) -> str:
        difference = f"({target_value} - {reference_value})"
        return f"1.0 / (1.0 + SQRT(SUM({difference} * {difference})))"


class PearsonCorrelation(_VectorComparator):
    """Pearson correlation over co-rated keys, NULL-guarded in SQL."""

    name = "pearson"
    measure = staticmethod(similarity.pearson)

    def pair_sql(
        self,
        target_value: str,
        reference_value: str,
        dialect: SqlDialect = MINIDB_DIALECT,
    ) -> str:
        tv, rv = target_value, reference_value
        n = dialect.cast_float("COUNT(*)")
        var_x = f"({n} * SUM({tv} * {tv}) - SUM({tv}) * SUM({tv}))"
        var_y = f"({n} * SUM({rv} * {rv}) - SUM({rv}) * SUM({rv}))"
        covariance = f"({n} * SUM({tv} * {rv}) - SUM({tv}) * SUM({rv}))"
        guard_x = dialect.func("greatest", var_x, "0.0")
        guard_y = dialect.func("greatest", var_y, "0.0")
        return (
            f"{covariance} / NULLIF(SQRT({guard_x}) * "
            f"SQRT({guard_y}), 0.0)"
        )


class CosineVector(_VectorComparator):
    """Cosine over co-rated keys (norms restricted to the overlap)."""

    name = "cosine"
    measure = staticmethod(similarity.cosine)

    def pair_sql(
        self,
        target_value: str,
        reference_value: str,
        dialect: SqlDialect = MINIDB_DIALECT,
    ) -> str:
        tv, rv = target_value, reference_value
        return (
            f"SUM({tv} * {rv}) / NULLIF(SQRT(SUM({tv} * {tv})) * "
            f"SQRT(SUM({rv} * {rv})), 0.0)"
        )


# ---------------------------------------------------------------------------
# set comparators (over extend-attached value-set attributes)
# ---------------------------------------------------------------------------


class _SetComparator(Comparator):
    """Subclasses set ``measure`` and implement ``set_sql(common,
    target_size, reference_size, dialect)``: the score in SQL."""

    kind = "set"
    # The library set measures score disjoint sets NULL (the compiled
    # intersection join produces no row), so disjoint pairs are prunable.
    requires_overlap = True
    measure: Callable = None  # type: ignore[assignment]

    def __init__(self, target_attribute: str, reference_attribute: str) -> None:
        self.target_attribute = target_attribute
        self.reference_attribute = reference_attribute

    def score(self, target_row, reference_row):
        left = _get(target_row, self.target_attribute)
        right = _get(reference_row, self.reference_attribute)
        if isinstance(left, Mapping) or isinstance(right, Mapping):
            raise FlexRecsError(
                f"{self.name} requires set attributes, not vectors"
            )
        return type(self).measure(frozenset(left), frozenset(right))


class SetJaccard(_SetComparator):
    """Jaccard over value sets.

    Pairs with an empty intersection score NULL (no evidence) on *both*
    paths — the compiled intersection join simply produces no row, and the
    direct path mirrors that so rankings agree.
    """

    name = "set_jaccard"

    @staticmethod
    def measure(left, right):
        value = similarity.jaccard(left, right)
        if value is None or value == 0.0:
            return None
        return value

    def set_sql(self, common, target_size, reference_size, dialect=MINIDB_DIALECT):
        return (
            f"{dialect.cast_float(common)} / "
            f"({target_size} + {reference_size} - {common})"
        )


class SetOverlap(_SetComparator):
    """Overlap coefficient |A∩B| / min(|A|,|B|); NULL without overlap."""

    name = "set_overlap"

    @staticmethod
    def measure(left, right):
        value = similarity.overlap_coefficient(left, right)
        if value is None or value == 0.0:
            return None
        return value

    def set_sql(self, common, target_size, reference_size, dialect=MINIDB_DIALECT):
        least = dialect.func("least", target_size, reference_size)
        return f"{dialect.cast_float(common)} / {least}"


class CommonCount(_SetComparator):
    """Plain intersection size; NULL without overlap."""

    name = "common_count"
    measure = staticmethod(similarity.common_count)

    def set_sql(self, common, target_size, reference_size, dialect=MINIDB_DIALECT):
        return dialect.cast_float(common)


# ---------------------------------------------------------------------------
# lookup comparator
# ---------------------------------------------------------------------------


class VectorLookup(Comparator):
    """Probe the reference tuple's vector with a target column.

    Figure 5(b) upper recommend: target = courses, reference = similar
    students extended with their rating vectors; a course's pair score
    against a student is that student's rating of the course (absent →
    NULL, skipped by the AVG aggregation).
    """

    kind = "lookup"
    name = "vector_lookup"
    # A reference whose vector lacks the probed key scores None by
    # definition, so references can be pruned to the key's holders.
    requires_overlap = True

    def __init__(self, target_attribute: str, reference_attribute: str) -> None:
        self.target_attribute = target_attribute  # scalar key on target
        self.reference_attribute = reference_attribute  # vector on reference

    def score(self, target_row, reference_row):
        vector = _get(reference_row, self.reference_attribute)
        if not isinstance(vector, Mapping):
            raise FlexRecsError(
                f"{self.name} requires a vector reference attribute"
            )
        value = vector.get(_get(target_row, self.target_attribute))
        return None if value is None else float(value)


COMPARATORS: Dict[str, type] = {
    cls.name: cls
    for cls in (
        EqualityMatch,
        NumericCloseness,
        TextJaccard,
        LevenshteinSimilarity,
        InverseEuclidean,
        PearsonCorrelation,
        CosineVector,
        SetJaccard,
        SetOverlap,
        CommonCount,
        VectorLookup,
    )
}


def make_comparator(name: str, *args, **kwargs) -> Comparator:
    """Instantiate a comparator from the library by name."""
    try:
        cls = COMPARATORS[name]
    except KeyError:
        raise FlexRecsError(
            f"unknown comparator {name!r}; available: {sorted(COMPARATORS)}"
        ) from None
    return cls(*args, **kwargs)
