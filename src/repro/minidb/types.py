"""Column types for the relational substrate.

The type system is deliberately small — INTEGER, FLOAT, TEXT, BOOLEAN and
DATE — which covers every relation CourseRank uses.  Values are stored as
plain Python objects; each type knows how to validate, coerce and compare.

NULL is represented by Python ``None`` and is a member of every type.
Comparison semantics follow SQL three-valued logic at the expression layer
(:mod:`repro.minidb.expressions`); this module only defines value domains.
"""

from __future__ import annotations

import datetime
from enum import Enum
from typing import Any, Optional

from repro.errors import TypeMismatchError


class DataType(Enum):
    """Enumeration of supported column types."""

    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"
    DATE = "DATE"


_NUMERIC = {DataType.INTEGER, DataType.FLOAT}


def is_numeric(dtype: DataType) -> bool:
    """Return True for types that participate in arithmetic."""
    return dtype in _NUMERIC


def parse_date(text: str) -> datetime.date:
    """Parse an ISO ``YYYY-MM-DD`` string into a date.

    Raises :class:`TypeMismatchError` on malformed input so callers inside
    the engine surface a database error, not a ValueError.
    """
    try:
        return datetime.date.fromisoformat(text)
    except ValueError as exc:
        raise TypeMismatchError(f"invalid DATE literal {text!r}: {exc}") from exc


def coerce(value: Any, dtype: DataType) -> Any:
    """Coerce ``value`` into the Python representation of ``dtype``.

    ``None`` passes through (NULL belongs to every type).  Coercions are the
    conservative ones a small SQL engine performs on insert: int→float,
    numeric strings are *not* silently parsed, booleans are not ints.
    """
    if value is None:
        return None
    if dtype is DataType.INTEGER:
        # bool is a subclass of int; reject it explicitly.
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeMismatchError(f"expected INTEGER, got {value!r}")
        return value
    if dtype is DataType.FLOAT:
        if isinstance(value, bool):
            raise TypeMismatchError(f"expected FLOAT, got {value!r}")
        if isinstance(value, int):
            return float(value)
        if isinstance(value, float):
            return value
        raise TypeMismatchError(f"expected FLOAT, got {value!r}")
    if dtype is DataType.TEXT:
        if not isinstance(value, str):
            raise TypeMismatchError(f"expected TEXT, got {value!r}")
        return value
    if dtype is DataType.BOOLEAN:
        if not isinstance(value, bool):
            raise TypeMismatchError(f"expected BOOLEAN, got {value!r}")
        return value
    if dtype is DataType.DATE:
        if isinstance(value, datetime.date) and not isinstance(value, datetime.datetime):
            return value
        if isinstance(value, str):
            return parse_date(value)
        raise TypeMismatchError(f"expected DATE, got {value!r}")
    raise TypeMismatchError(f"unknown data type {dtype!r}")  # pragma: no cover


def infer_type(value: Any) -> Optional[DataType]:
    """Infer the narrowest DataType for a Python value (None → None)."""
    if value is None:
        return None
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, str):
        return DataType.TEXT
    if isinstance(value, datetime.date):
        return DataType.DATE
    return None


def common_type(left: DataType, right: DataType) -> Optional[DataType]:
    """The type two operands jointly promote to, or None if incompatible."""
    if left is right:
        return left
    if {left, right} == _NUMERIC:
        return DataType.FLOAT
    return None


def sort_key(value: Any) -> tuple:
    """A total-order key placing NULLs first, then by value.

    Mixed-type columns cannot occur (tables enforce types), so within one
    column ordering by the raw value is safe; the leading flag only
    separates NULLs.
    """
    if value is None:
        return (0, 0)
    return (1, value)


def format_value(value: Any) -> str:
    """Render a value the way the REPL/report layer prints it."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, datetime.date):
        return value.isoformat()
    return str(value)
