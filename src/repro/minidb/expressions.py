"""Scalar expression AST with SQL three-valued logic.

Expressions are shared by the SQL executor and the FlexRecs direct
evaluator.  An expression evaluates against an *environment*: a mapping
from column names (both qualified ``alias.column`` and unqualified
``column``) to values.  Unqualified names that are ambiguous across joined
inputs are bound to the :data:`AMBIGUOUS` sentinel by the executor, and
referencing one raises :class:`AmbiguousColumnError`.

Boolean results use Kleene logic: ``True`` / ``False`` / ``None`` (UNKNOWN).
``WHERE`` keeps a row only when the predicate is exactly ``True``.

``evaluate`` is minidb's only expression evaluator: every plan node of
the row tree (:mod:`repro.minidb.planner`) and every DML predicate runs
through it.  The testkit's differential sweep holds it to sqlite3.
"""

from __future__ import annotations

import datetime
import operator
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    AmbiguousColumnError,
    ExecutionError,
    UnknownColumnError,
)
from repro.minidb.types import format_value, sort_key


AMBIGUOUS = object()

Env = Dict[str, Any]


def _quote_string(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


class Expression:
    """Base class; subclasses implement ``evaluate`` and ``to_sql``."""

    def columns_referenced(self) -> List[str]:
        """All column names (as written) referenced by this expression."""
        found: List[str] = []
        self._collect_columns(found)
        return found

    def _collect_columns(self, out: List[str]) -> None:
        pass

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_sql()})"


class Literal(Expression):
    """A constant value (NULL, number, string, boolean, date)."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def evaluate(self, env: Env) -> Any:
        return self.value

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            return _quote_string(self.value)
        if isinstance(self.value, datetime.date):
            return f"DATE {_quote_string(self.value.isoformat())}"
        return format_value(self.value)


class ColumnRef(Expression):
    """A reference to ``column`` or ``qualifier.column``."""

    def __init__(self, column: str, qualifier: Optional[str] = None) -> None:
        self.column = column
        self.qualifier = qualifier
        #: the env key this reference reads
        self.key = (
            f"{qualifier.lower()}.{column.lower()}"
            if qualifier
            else column.lower()
        )

    def evaluate(self, env: Env) -> Any:
        try:
            value = env[self.key]
        except KeyError:
            raise UnknownColumnError(
                f"unknown column {self.to_sql()!r}"
            ) from None
        if value is AMBIGUOUS:
            raise AmbiguousColumnError(
                f"column reference {self.to_sql()!r} is ambiguous"
            )
        return value

    def to_sql(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.column}"
        return self.column

    def _collect_columns(self, out: List[str]) -> None:
        out.append(self.to_sql())


class Parameter(Expression):
    """A ``?`` placeholder bound at execution time.

    Parameters are numbered left-to-right by the parser and resolved
    through the environment's reserved ``"__params__"`` tuple, which
    :meth:`~repro.minidb.planner.QueryPlan.bind_parameters` refreshes on
    every execution so bindings never leak between runs.
    """

    def __init__(self, index: int) -> None:
        self.index = index

    def evaluate(self, env: Env) -> Any:
        params = env.get("__params__")
        if params is None or self.index >= len(params):
            raise ExecutionError(
                f"parameter ?{self.index + 1} is not bound; "
                "execute through a prepared statement with enough arguments"
            )
        return params[self.index]

    def to_sql(self) -> str:
        return "?"


def _is_null(value: Any) -> bool:
    return value is None


def _numeric_binop(op: str, left: Any, right: Any) -> Any:
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise ExecutionError("division by zero")
            result = left / right
            return result
        if op == "%":
            if right == 0:
                raise ExecutionError("modulo by zero")
            return left % right
    except TypeError as exc:
        raise ExecutionError(
            f"cannot apply {op!r} to {left!r} and {right!r}"
        ) from exc
    raise ExecutionError(f"unknown arithmetic operator {op!r}")  # pragma: no cover


_COMPARE_FUNCS = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compare(op: str, left: Any, right: Any) -> Optional[bool]:
    """SQL comparison; NULL operand → UNKNOWN (None)."""
    compare = _COMPARE_FUNCS.get(op)
    if compare is None:  # pragma: no cover
        raise ExecutionError(f"unknown comparison operator {op!r}")
    if _is_null(left) or _is_null(right):
        return None
    try:
        return compare(left, right)
    except TypeError as exc:
        raise ExecutionError(
            f"cannot compare {left!r} with {right!r}"
        ) from exc


def kleene_and(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def kleene_or(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def kleene_not(value: Optional[bool]) -> Optional[bool]:
    if value is None:
        return None
    return not value


_ARITH = {"+", "-", "*", "/", "%"}

class BinaryOp(Expression):
    """Arithmetic, comparison, string concatenation (||), AND/OR."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        self.op = op.upper() if op.upper() in ("AND", "OR") else op
        self.left = left
        self.right = right

    def evaluate(self, env: Env) -> Any:
        # Kleene AND/OR, inlined (this is every WHERE/ON conjunction):
        # an operand must be TRUE, FALSE or NULL, checked left first.
        op = self.op
        if op == "AND":
            left = self.left.evaluate(env)
            # Short-circuit: FALSE AND x is FALSE without evaluating x.
            if left is False:
                return False
            if left is not True and left is not None:
                _as_bool(left)  # raises
            right = self.right.evaluate(env)
            if right is True:
                return left
            if right is False or right is None:
                return right
            return _as_bool(right)  # raises
        if op == "OR":
            left = self.left.evaluate(env)
            if left is True:
                return True
            if left is not False and left is not None:
                _as_bool(left)  # raises
            right = self.right.evaluate(env)
            if right is False:
                return left
            if right is True or right is None:
                return right
            return _as_bool(right)  # raises
        left = self.left.evaluate(env)
        right = self.right.evaluate(env)
        compare = _COMPARE_FUNCS.get(op)
        if compare is not None:
            if left is None or right is None:
                return None
            try:
                return compare(left, right)
            except TypeError as exc:
                raise ExecutionError(
                    f"cannot compare {left!r} with {right!r}"
                ) from exc
        if op == "||":
            if _is_null(left) or _is_null(right):
                return None
            return str(left) + str(right)
        if op in _ARITH:
            if _is_null(left) or _is_null(right):
                return None
            return _numeric_binop(op, left, right)
        raise ExecutionError(f"unknown binary operator {op!r}")

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"

    def _collect_columns(self, out: List[str]) -> None:
        self.left._collect_columns(out)
        self.right._collect_columns(out)


def _as_bool(value: Any) -> Optional[bool]:
    if value is None or isinstance(value, bool):
        return value
    raise ExecutionError(f"expected boolean, got {value!r}")


class UnaryOp(Expression):
    """NOT and unary minus."""

    def __init__(self, op: str, operand: Expression) -> None:
        self.op = op.upper() if op.upper() == "NOT" else op
        self.operand = operand

    def evaluate(self, env: Env) -> Any:
        value = self.operand.evaluate(env)
        if self.op == "NOT":
            return kleene_not(_as_bool(value))
        if self.op == "-":
            if value is None:
                return None
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ExecutionError(f"cannot negate {value!r}")
            return -value
        raise ExecutionError(f"unknown unary operator {self.op!r}")

    def to_sql(self) -> str:
        if self.op == "NOT":
            return f"(NOT {self.operand.to_sql()})"
        return f"(-{self.operand.to_sql()})"

    def _collect_columns(self, out: List[str]) -> None:
        self.operand._collect_columns(out)


class IsNull(Expression):
    """``expr IS NULL`` / ``expr IS NOT NULL`` (always two-valued)."""

    def __init__(self, operand: Expression, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def evaluate(self, env: Env) -> bool:
        value = self.operand.evaluate(env)
        result = value is None
        return not result if self.negated else result

    def to_sql(self) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {keyword})"

    def _collect_columns(self, out: List[str]) -> None:
        self.operand._collect_columns(out)


class InList(Expression):
    """``expr IN (v1, v2, ...)`` with SQL NULL semantics."""

    def __init__(
        self, operand: Expression, items: Sequence[Expression], negated: bool = False
    ) -> None:
        self.operand = operand
        self.items = list(items)
        self.negated = negated

    def evaluate(self, env: Env) -> Optional[bool]:
        # ``x IN ()`` is FALSE — not UNKNOWN — even when x is NULL. The
        # parser can't produce an empty list, but the planner's subquery
        # folding can (an IN (SELECT ...) whose subquery yields no rows).
        if not self.items:
            return self.negated
        value = self.operand.evaluate(env)
        if value is None:
            return None
        saw_null = False
        for item in self.items:
            candidate = item.evaluate(env)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return not self.negated
        if saw_null:
            return None
        return self.negated

    def to_sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        inner = ", ".join(item.to_sql() for item in self.items)
        return f"({self.operand.to_sql()} {keyword} ({inner}))"

    def _collect_columns(self, out: List[str]) -> None:
        self.operand._collect_columns(out)
        for item in self.items:
            item._collect_columns(out)


class Between(Expression):
    """``expr BETWEEN low AND high`` (inclusive)."""

    def __init__(
        self,
        operand: Expression,
        low: Expression,
        high: Expression,
        negated: bool = False,
    ) -> None:
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def evaluate(self, env: Env) -> Optional[bool]:
        value = self.operand.evaluate(env)
        low = self.low.evaluate(env)
        high = self.high.evaluate(env)
        result = kleene_and(_compare(">=", value, low), _compare("<=", value, high))
        return kleene_not(result) if self.negated else result

    def to_sql(self) -> str:
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (
            f"({self.operand.to_sql()} {keyword} "
            f"{self.low.to_sql()} AND {self.high.to_sql()})"
        )

    def _collect_columns(self, out: List[str]) -> None:
        self.operand._collect_columns(out)
        self.low._collect_columns(out)
        self.high._collect_columns(out)


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern (% and _) to an anchored regex."""
    parts = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("".join(parts) + r"\Z", re.DOTALL)


class Like(Expression):
    """``expr LIKE pattern`` — case-sensitive; ILIKE variant via flag."""

    def __init__(
        self,
        operand: Expression,
        pattern: Expression,
        negated: bool = False,
        case_insensitive: bool = False,
    ) -> None:
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        self.case_insensitive = case_insensitive
        self._cache: Dict[str, "re.Pattern[str]"] = {}

    def evaluate(self, env: Env) -> Optional[bool]:
        value = self.operand.evaluate(env)
        pattern = self.pattern.evaluate(env)
        if value is None or pattern is None:
            return None
        if not isinstance(value, str) or not isinstance(pattern, str):
            raise ExecutionError("LIKE requires text operands")
        if self.case_insensitive:
            value = value.lower()
            pattern = pattern.lower()
        regex = self._cache.get(pattern)
        if regex is None:
            regex = like_to_regex(pattern)
            self._cache[pattern] = regex
        matched = regex.match(value) is not None
        return not matched if self.negated else matched

    def to_sql(self) -> str:
        operator = "ILIKE" if self.case_insensitive else "LIKE"
        if self.negated:
            operator = "NOT " + operator
        return f"({self.operand.to_sql()} {operator} {self.pattern.to_sql()})"

    def _collect_columns(self, out: List[str]) -> None:
        self.operand._collect_columns(out)
        self.pattern._collect_columns(out)


class Case(Expression):
    """Searched CASE: WHEN cond THEN value ... [ELSE value] END."""

    def __init__(
        self,
        branches: Sequence[Tuple[Expression, Expression]],
        default: Optional[Expression] = None,
    ) -> None:
        self.branches = list(branches)
        self.default = default

    def evaluate(self, env: Env) -> Any:
        for condition, value in self.branches:
            if _as_bool(condition.evaluate(env)) is True:
                return value.evaluate(env)
        if self.default is not None:
            return self.default.evaluate(env)
        return None

    def to_sql(self) -> str:
        parts = ["CASE"]
        for condition, value in self.branches:
            parts.append(f"WHEN {condition.to_sql()} THEN {value.to_sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.to_sql()}")
        parts.append("END")
        return "(" + " ".join(parts) + ")"

    def _collect_columns(self, out: List[str]) -> None:
        for condition, value in self.branches:
            condition._collect_columns(out)
            value._collect_columns(out)
        if self.default is not None:
            self.default._collect_columns(out)


class FunctionCall(Expression):
    """A scalar function call resolved against a function registry.

    The registry is injected at evaluation time through the environment's
    reserved ``"__functions__"`` key so the expression tree stays data-only.
    """

    def __init__(self, name: str, arguments: Sequence[Expression]) -> None:
        self.name = name.lower()
        self.arguments = list(arguments)

    def evaluate(self, env: Env) -> Any:
        registry = env.get("__functions__")
        if registry is None:
            raise ExecutionError(
                f"no function registry available for {self.name!r}"
            )
        function = registry.scalar(self.name)
        values = [argument.evaluate(env) for argument in self.arguments]
        return function(*values)

    def to_sql(self) -> str:
        inner = ", ".join(argument.to_sql() for argument in self.arguments)
        return f"{self.name.upper()}({inner})"

    def _collect_columns(self, out: List[str]) -> None:
        for argument in self.arguments:
            argument._collect_columns(out)


class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)`` — uncorrelated.

    The planner resolves the subquery once at plan time and substitutes
    an :class:`InList` of literals (see
    ``repro.minidb.planner._resolve_subqueries``); evaluating the raw
    node directly is an error, which keeps the expression layer free of
    database references.
    """

    #: set by the parser when the subquery text contains ``?`` placeholders;
    #: the planner rejects such subqueries (they are resolved at plan time,
    #: before any bindings exist).
    has_parameters = False

    def __init__(self, operand: Expression, query: Any, negated: bool = False) -> None:
        self.operand = operand
        self.query = query  # a SelectStatement (kept opaque here)
        self.negated = negated

    def evaluate(self, env: Env) -> Any:
        raise ExecutionError(
            "IN (SELECT ...) must be resolved by the planner before evaluation"
        )

    def to_sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.to_sql()} {keyword} ({self.query.to_sql()}))"


class ExistsSubquery(Expression):
    """``[NOT] EXISTS (SELECT ...)`` — uncorrelated, planner-resolved."""

    #: see :attr:`InSubquery.has_parameters`
    has_parameters = False

    def __init__(self, query: Any, negated: bool = False) -> None:
        self.query = query
        self.negated = negated

    def to_sql(self) -> str:
        keyword = "NOT EXISTS" if self.negated else "EXISTS"
        return f"({keyword} ({self.query.to_sql()}))"


# -- helpers used by planner & FlexRecs -------------------------------------


def conjuncts(expression: Optional[Expression]) -> List[Expression]:
    """Split a predicate into its top-level AND-ed conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, BinaryOp) and expression.op == "AND":
        return conjuncts(expression.left) + conjuncts(expression.right)
    return [expression]


def conjoin(expressions: Sequence[Expression]) -> Optional[Expression]:
    """Combine predicates with AND; None for an empty sequence."""
    result: Optional[Expression] = None
    for expression in expressions:
        result = (
            expression if result is None else BinaryOp("AND", result, expression)
        )
    return result


def order_key(values: Sequence[Any], descending: Sequence[bool]) -> Tuple:
    """Build a sort key honouring per-column direction with NULLs first."""
    parts = []
    for value, is_desc in zip(values, descending):
        key = sort_key(value)
        if is_desc:
            parts.append(_Reversed(key))
        else:
            parts.append(key)
    return tuple(parts)


class _Reversed:
    """Wrapper inverting comparison order (for DESC sort keys)."""

    __slots__ = ("inner",)

    def __init__(self, inner: Any) -> None:
        self.inner = inner

    def __lt__(self, other: "_Reversed") -> bool:
        return other.inner < self.inner

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.inner == self.inner
