"""The FlexRecs oracle: a workflow evaluated the slow, obvious way.

No cache, no index, no postings, no heap — every σ scans, every ε groups
its whole source table again, and the recommend operator calls
``Comparator.score`` on every (target, reference) pair.  The direct
executor must return tuple-identical rows with exact floats.  Covers the
operators a recommend is made of (``Source``, ``SqlSource``, ``Select``,
``Extend``, ``Recommend``); anything else raises ``NotImplementedError``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.library import _get
from repro.core.operators import (
    Extend,
    Operator,
    Recommend,
    Select,
    Source,
    SqlSource,
)
from repro.core.workflow import Recommendation, Workflow
from repro.minidb.catalog import Database
from repro.minidb.sql.parser import parse_expression
from repro.minidb.types import sort_key

_AGGREGATES = {
    "max": max,
    "min": min,
    "sum": sum,
    "avg": lambda values: sum(values) / len(values),
    "count": len,
}


def reference_recommend(workflow: Workflow, database: Database) -> Recommendation:
    """What ``workflow.run(database)`` must equal, rows and exact floats."""
    columns = workflow.validate(database)
    rows = _rows(workflow.root, database)
    return Recommendation(
        columns, [{column: row[column] for column in columns} for row in rows]
    )


def _rows(node: Operator, database: Database) -> List[Dict[str, Any]]:
    if isinstance(node, Source):
        table = database.table(node.table)
        names = table.schema.column_names
        return [dict(zip(names, row)) for row in table.rows()]
    if isinstance(node, SqlSource):
        result = database.query(node.sql)
        return [dict(zip(result.columns, row)) for row in result.rows]
    if isinstance(node, Select):
        predicate = parse_expression(node.condition)
        functions = {"__functions__": database.functions}
        return [
            row
            for row in _rows(node.child, database)
            if predicate.evaluate(
                {**functions, **{key.lower(): row[key] for key in row}}
            )
            is True
        ]
    if isinstance(node, Extend):
        info = node.info
        source = database.table(info.source_table)
        columns = [info.source_key, info.value_column]
        if info.is_vector:
            columns.append(info.map_column)
        positions = [source.schema.column_position(name) for name in columns]
        grouped: Dict[Any, Any] = {}
        for record in source.rows():
            key, value, *mapped = (record[position] for position in positions)
            if key is None or value is None or mapped == [None]:
                continue
            if mapped:
                grouped.setdefault(key, {})[mapped[0]] = value
            else:
                grouped.setdefault(key, set()).add(value)
        empty: Any = {} if info.is_vector else set()
        return [
            {**row, info.attribute: grouped.get(_get(row, info.key_column), empty)}
            for row in _rows(node.child, database)
        ]
    if isinstance(node, Recommend):
        references = _rows(node.reference, database)
        scored = []
        for target in _rows(node.target, database):
            values = []
            for reference in references:
                if node.exclude_self is not None:
                    left = _get(target, node.exclude_self[0])
                    if left is not None and left == _get(
                        reference, node.exclude_self[1]
                    ):
                        continue
                value = node.comparator.score(target, reference)
                if value is not None:
                    values.append(value)
            if values:
                score = _AGGREGATES[node.aggregate](values)
                scored.append({**target, node.score_column: score})
        scored.sort(
            key=lambda row: (
                -row[node.score_column],
                sort_key(_get(row, node.target_key)),
            )
        )
        return scored[: node.top_k]
    raise NotImplementedError(
        f"reference_recommend does not evaluate {type(node).__name__}"
    )
