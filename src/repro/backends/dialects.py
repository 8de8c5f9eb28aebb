"""SQL dialects: how each engine spells what the renderers emit.

A :class:`SqlDialect` knows how to spell literals, casts, and function
names for one SQL engine, and carries the few flags that say what the
engine can and cannot do.  The FlexRecs compiler
(:mod:`repro.core.compiler`) is parameterized by a dialect, so the same
workflow tree lowers to engine-appropriate SQL text for minidb or
sqlite3 — the paper's "executed by a conventional DBMS" made literal.

The handful of genuine engine differences live in these two constants;
both renderers read them — the compiler, and
:mod:`repro.testkit.dialects` (which renders the fuzzer's query AST for
the minidb-vs-sqlite oracle).

Known dialect differences captured here:

==============================  =======================  ====================
construct                       minidb                   sqlite
==============================  =======================  ====================
float cast                      ``CAST_FLOAT(x)``        ``CAST(x AS REAL)``
LEAST / GREATEST                ``LEAST`` / ``GREATEST`` ``MIN`` / ``MAX``
integer division                true division            truncates (needs
                                                         ``* 1.0`` promotion)
date literal                    ``DATE '2008-01-05'``    ``'2008-01-05'``
boolean literal                 ``TRUE`` / ``FALSE``     ``1`` / ``0``
bound date parameter            ``datetime.date``        ISO string
bound bool parameter            ``bool``                 ``int``
CREATE INDEX                    ``... USING <kind>``     no ``USING`` clause
==============================  =======================  ====================

The set is closed: :func:`get_dialect` resolves ``"minidb"`` and
``"sqlite"`` to the two constants below.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import BackendCapabilityError
from repro.minidb.types import DataType

__all__ = [
    "SqlDialect",
    "MINIDB_DIALECT",
    "SQLITE_DIALECT",
    "get_dialect",
]


@dataclass(frozen=True, eq=False)
class SqlDialect:
    """Rendering helpers for one engine, driven by its flags."""

    name: str
    #: query results carry real ``datetime.date`` / ``bool`` values
    #: (False: dates come back as ISO strings, booleans as 0/1 ints, and
    #: literals and bound parameters are spelled the same way)
    typed_values: bool
    #: ``/`` over two INTEGER operands performs true (float) division
    #: (False: the renderer must promote with ``* 1.0``)
    float_division: bool
    #: CREATE INDEX accepts a trailing ``USING <kind>`` clause
    index_using_clause: bool
    cast_float_template: str
    #: minidb column type -> this engine's SQL type name
    type_names: Mapping[DataType, str]
    #: canonical function name -> this engine's spelling; names absent
    #: from the map render as their uppercase canonical spelling
    function_names: Mapping[str, str] = field(default_factory=dict)

    # -- types ---------------------------------------------------------------

    def type_name(self, dtype: DataType) -> str:
        return self.type_names[dtype]

    # -- literals and parameters -------------------------------------------

    def literal(self, value: Any) -> str:
        """Render a Python value as a SQL literal for this engine."""
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            if self.typed_values:
                return "TRUE" if value else "FALSE"
            return "1" if value else "0"
        if isinstance(value, datetime.date):
            if self.typed_values:
                return f"DATE '{value.isoformat()}'"
            return f"'{value.isoformat()}'"
        if isinstance(value, float):
            return repr(value)
        if isinstance(value, int):
            return str(value)
        if isinstance(value, str):
            return "'" + value.replace("'", "''") + "'"
        raise BackendCapabilityError(
            f"dialect {self.name!r} cannot render literal {value!r}"
        )

    def bind(self, value: Any) -> Any:
        """Convert a parameter for this engine's driver binding layer."""
        if self.typed_values:
            return value
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, datetime.date) and not isinstance(
            value, datetime.datetime
        ):
            return value.isoformat()
        return value

    # -- expressions ---------------------------------------------------------

    def cast_float(self, expr: str) -> str:
        return self.cast_float_template.format(expr=expr)

    def func(self, canonical: str, *args: str) -> str:
        """Render a scalar function call by its canonical name."""
        name = self.function_names.get(canonical.lower(), canonical.upper())
        return f"{name}({', '.join(args)})"

    def true_div(self, numerator: str, denominator: str) -> str:
        """A division that is true (float) division even over integers."""
        if self.float_division:
            return f"({numerator} / {denominator})"
        return f"({numerator} * 1.0 / {denominator})"


MINIDB_DIALECT = SqlDialect(
    "minidb",
    typed_values=True,
    float_division=True,
    index_using_clause=True,
    cast_float_template="CAST_FLOAT({expr})",
    type_names={
        DataType.INTEGER: "INTEGER",
        DataType.FLOAT: "FLOAT",
        DataType.TEXT: "TEXT",
        DataType.BOOLEAN: "BOOLEAN",
        DataType.DATE: "DATE",
    },
)

#: sqlite's affinity rules make these type names storage-faithful: REAL
#: keeps our floats, TEXT keeps ISO date strings, INTEGER keeps 0/1
#: booleans.
SQLITE_DIALECT = SqlDialect(
    "sqlite",
    typed_values=False,
    float_division=False,
    index_using_clause=False,
    cast_float_template="CAST({expr} AS REAL)",
    type_names={
        DataType.INTEGER: "INTEGER",
        DataType.FLOAT: "REAL",
        DataType.TEXT: "TEXT",
        DataType.BOOLEAN: "INTEGER",
        DataType.DATE: "TEXT",
    },
    function_names={"least": "MIN", "greatest": "MAX"},
)


def get_dialect(name_or_dialect: Any) -> SqlDialect:
    """Resolve ``"minidb"``/``"sqlite"`` (or pass an instance through)."""
    if isinstance(name_or_dialect, SqlDialect):
        return name_or_dialect
    for dialect in (MINIDB_DIALECT, SQLITE_DIALECT):
        if dialect.name == name_or_dialect:
            return dialect
    raise BackendCapabilityError(
        f"unknown SQL dialect {name_or_dialect!r}; "
        f"available: {[MINIDB_DIALECT.name, SQLITE_DIALECT.name]}"
    )
