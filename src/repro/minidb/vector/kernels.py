"""Vectorized expression compiler: expression tree -> batch kernel.

A *kernel* evaluates one expression over a selection of batch rows::

    kernel(ctx, columns, sel) -> [value, ...]   # aligned with sel

``ctx`` is the plan's shared base env (``__params__``, ``__functions__``,
AMBIGUOUS markers), ``columns`` maps env keys to column lists, and
``sel`` is a selection vector of row indices.  The result list is
positionally aligned with ``sel``.

Semantics are **element-wise identical** to ``expressions.py`` — the
same NULL propagation, Kleene connectives, coercion errors, and division
messages — including *which rows* each sub-expression is evaluated for:

* ``AND`` evaluates its right operand only where the left is not FALSE,
  ``OR`` only where the left is not TRUE (selection narrowing mirrors
  the row path's short-circuit row by row);
* ``CASE`` evaluates each condition only on still-unresolved rows and a
  branch value only where its condition is TRUE;
* ``IN (...)`` probes items left to right, dropping resolved rows;
* errors that depend on a row's *presence* (unknown/ambiguous column,
  unbound parameter) raise only when the selection is non-empty, so an
  empty input stays silent exactly like a never-pulled iterator.

The one permitted divergence: within a batch an error may surface from a
*different row* than the row path's first failing row (columns are
evaluated column-at-a-time).  The testkit compares errors by parity, and
both paths consume their full input wherever the planner routes
vectorized (see ``ops.py`` gating), so whether a query errors never
diverges.

Unsupported constructs (user-defined/scalar function calls, unresolved
subqueries) raise :class:`KernelUnsupported` at *compile* time; the plan
builder reacts by leaving the affected operator on the row path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

from repro.errors import (
    AmbiguousColumnError,
    ExecutionError,
    UnknownColumnError,
)
from repro.minidb.expressions import (
    AMBIGUOUS,
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    InList,
    IsNull,
    Like,
    Literal,
    Parameter,
    UnaryOp,
    _COMPARE_FUNCS,
    _as_bool,
    _compare,
    _numeric_binop,
    kleene_and,
    kleene_not,
    like_to_regex,
)
from repro.minidb.sql.ast import AggregateRef

__all__ = ["Kernel", "KernelUnsupported", "compile_kernel", "supports"]

Kernel = Callable[[Dict[str, Any], Dict[str, List[Any]], Sequence[int]], List[Any]]


class KernelUnsupported(Exception):
    """Raised at compile time for constructs the batch path cannot run."""


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<missing>"


_MISSING = _Missing()


def supports(expression: Any) -> bool:
    """True when ``expression`` compiles to a kernel."""
    try:
        compile_kernel(expression)
    except KernelUnsupported:
        return False
    return True


def compile_kernel(expression: Any) -> Kernel:
    """Compile ``expression`` into a batch kernel (or raise)."""
    if isinstance(expression, Literal):
        value = expression.value
        return lambda ctx, cols, sel: [value] * len(sel)
    if isinstance(expression, ColumnRef):
        return _column_kernel(expression.key, expression)
    if isinstance(expression, AggregateRef):
        return _aggregate_ref_kernel(expression.key)
    if isinstance(expression, Parameter):
        return _parameter_kernel(expression.index)
    if isinstance(expression, BinaryOp):
        return _binary_kernel(expression)
    if isinstance(expression, UnaryOp):
        return _unary_kernel(expression)
    if isinstance(expression, IsNull):
        return _is_null_kernel(expression)
    if isinstance(expression, InList):
        return _in_list_kernel(expression)
    if isinstance(expression, Between):
        return _between_kernel(expression)
    if isinstance(expression, Like):
        return _like_kernel(expression)
    if isinstance(expression, Case):
        return _case_kernel(expression)
    # FunctionCall (scalar UDFs), InSubquery/ExistsSubquery (resolved by
    # the planner before execution; reaching one raw is a row-path
    # concern), and anything newer stay on the iterator path.
    raise KernelUnsupported(type(expression).__name__)


# ---------------------------------------------------------------------------
# leaves
# ---------------------------------------------------------------------------


def _column_kernel(key: str, expression: ColumnRef) -> Kernel:
    def kernel(ctx: Dict[str, Any], cols: Dict[str, List[Any]],
               sel: Sequence[int]) -> List[Any]:
        column = cols.get(key)
        if column is not None:
            return [column[index] for index in sel]
        if not sel:
            return []
        value = ctx.get(key, _MISSING)
        if value is _MISSING:
            raise UnknownColumnError(
                f"unknown column {expression.to_sql()!r}"
            )
        if value is AMBIGUOUS:
            raise AmbiguousColumnError(
                f"column reference {expression.to_sql()!r} is ambiguous"
            )
        return [value] * len(sel)

    return kernel


def _aggregate_ref_kernel(key: str) -> Kernel:
    def kernel(ctx: Dict[str, Any], cols: Dict[str, List[Any]],
               sel: Sequence[int]) -> List[Any]:
        column = cols.get(key)
        if column is not None:
            return [column[index] for index in sel]
        if not sel:
            return []
        # Mirror AggregateRef.evaluate's bare env[key] lookup.
        raise KeyError(key)

    return kernel


def _parameter_kernel(index: int) -> Kernel:
    def kernel(ctx: Dict[str, Any], cols: Dict[str, List[Any]],
               sel: Sequence[int]) -> List[Any]:
        if not sel:
            return []
        params = ctx.get("__params__")
        if params is None or index >= len(params):
            raise ExecutionError(
                f"parameter ?{index + 1} is not bound; "
                "execute through a prepared statement with enough arguments"
            )
        return [params[index]] * len(sel)

    return kernel


# ---------------------------------------------------------------------------
# connectives and operators
# ---------------------------------------------------------------------------


def _binary_kernel(expression: BinaryOp) -> Kernel:
    op = expression.op
    left = compile_kernel(expression.left)
    right = compile_kernel(expression.right)
    if op == "AND" or op == "OR":
        strict = expression.left.is_boolean() and expression.right.is_boolean()
        skip = False if op == "AND" else True
        return _connective_kernel(left, right, skip, strict)
    if op == "||":

        def concat_kernel(ctx, cols, sel):
            lvals = left(ctx, cols, sel)
            rvals = right(ctx, cols, sel)
            return [
                None if (a is None or b is None) else str(a) + str(b)
                for a, b in zip(lvals, rvals)
            ]

        return concat_kernel
    if op in _COMPARE_FUNCS:
        comparator = _COMPARE_FUNCS[op]

        def compare_kernel(ctx, cols, sel):
            lvals = left(ctx, cols, sel)
            rvals = right(ctx, cols, sel)
            out: List[Any] = []
            append = out.append
            for a, b in zip(lvals, rvals):
                if a is None or b is None:
                    append(None)
                    continue
                try:
                    append(comparator(a, b))
                except TypeError as exc:
                    raise ExecutionError(
                        f"cannot compare {a!r} with {b!r}"
                    ) from exc
            return out

        return compare_kernel
    if op in ("+", "-", "*", "/", "%"):

        def arith_kernel(ctx, cols, sel):
            lvals = left(ctx, cols, sel)
            rvals = right(ctx, cols, sel)
            return [
                None if (a is None or b is None)
                else _numeric_binop(op, a, b)
                for a, b in zip(lvals, rvals)
            ]

        return arith_kernel
    raise KernelUnsupported(f"binary operator {op!r}")


def _connective_kernel(
    left: Kernel, right: Kernel, skip: bool, strict: bool
) -> Kernel:
    """AND (``skip=False``) / OR (``skip=True``) with selection narrowing.

    The right operand is evaluated only for rows where the left did not
    already decide the result — the exact row set the row path's
    short-circuit evaluates it for.
    """

    def kernel(ctx: Dict[str, Any], cols: Dict[str, List[Any]],
               sel: Sequence[int]) -> List[Any]:
        lvals = left(ctx, cols, sel)
        if not strict:
            lvals = [_as_bool(value) for value in lvals]
        out: List[Any] = [skip] * len(lvals)
        pending = [pos for pos, value in enumerate(lvals) if value is not skip]
        if pending:
            sub_sel = [sel[pos] for pos in pending]
            rvals = right(ctx, cols, sub_sel)
            if not strict:
                rvals = [_as_bool(value) for value in rvals]
            for pos, rv in zip(pending, rvals):
                if rv is skip:
                    out[pos] = skip
                elif lvals[pos] is None or rv is None:
                    out[pos] = None
                else:
                    out[pos] = not skip
        return out

    return kernel


def _unary_kernel(expression: UnaryOp) -> Kernel:
    operand = compile_kernel(expression.operand)
    if expression.op == "NOT":

        def not_kernel(ctx, cols, sel):
            return [
                kleene_not(_as_bool(value))
                for value in operand(ctx, cols, sel)
            ]

        return not_kernel
    if expression.op == "-":

        def negate_kernel(ctx, cols, sel):
            out: List[Any] = []
            append = out.append
            for value in operand(ctx, cols, sel):
                if value is None:
                    append(None)
                elif not isinstance(value, (int, float)) or isinstance(
                    value, bool
                ):
                    raise ExecutionError(f"cannot negate {value!r}")
                else:
                    append(-value)
            return out

        return negate_kernel
    raise KernelUnsupported(f"unary operator {expression.op!r}")


def _is_null_kernel(expression: IsNull) -> Kernel:
    operand = compile_kernel(expression.operand)
    if expression.negated:
        return lambda ctx, cols, sel: [
            value is not None for value in operand(ctx, cols, sel)
        ]
    return lambda ctx, cols, sel: [
        value is None for value in operand(ctx, cols, sel)
    ]


def _in_list_kernel(expression: InList) -> Kernel:
    operand = compile_kernel(expression.operand)
    negated = expression.negated
    if not expression.items:
        # Empty folded subquery: constant FALSE/TRUE, NULL-immune.
        return lambda ctx, cols, sel: [negated] * len(sel)
    if all(isinstance(item, Literal) for item in expression.items):
        values = [item.value for item in expression.items]
        saw_null = any(value is None for value in values)
        non_null = [value for value in values if value is not None]
        try:
            lookup = set(non_null)
        except TypeError:  # unhashable literal; keep the linear scan
            lookup = None

        def literal_kernel(ctx, cols, sel):
            out: List[Any] = []
            append = out.append
            for value in operand(ctx, cols, sel):
                if value is None:
                    append(None)
                    continue
                if lookup is not None:
                    try:
                        found = value in lookup
                    except TypeError:
                        found = any(c == value for c in non_null)
                else:
                    found = any(c == value for c in non_null)
                if found:
                    append(not negated)
                elif saw_null:
                    append(None)
                else:
                    append(negated)
            return out

        return literal_kernel
    items = [compile_kernel(item) for item in expression.items]

    def kernel(ctx: Dict[str, Any], cols: Dict[str, List[Any]],
               sel: Sequence[int]) -> List[Any]:
        values = operand(ctx, cols, sel)
        out: List[Any] = [None] * len(values)
        saw_null = [False] * len(values)
        pending = [pos for pos, value in enumerate(values) if value is not None]
        for item in items:
            if not pending:
                break
            sub_sel = [sel[pos] for pos in pending]
            candidates = item(ctx, cols, sub_sel)
            still: List[int] = []
            for pos, candidate in zip(pending, candidates):
                if candidate is None:
                    saw_null[pos] = True
                    still.append(pos)
                elif candidate == values[pos]:
                    out[pos] = not negated
                else:
                    still.append(pos)
            pending = still
        for pos in pending:
            out[pos] = None if saw_null[pos] else negated
        return out

    return kernel


def _between_kernel(expression: Between) -> Kernel:
    operand = compile_kernel(expression.operand)
    low = compile_kernel(expression.low)
    high = compile_kernel(expression.high)
    negated = expression.negated

    def kernel(ctx: Dict[str, Any], cols: Dict[str, List[Any]],
               sel: Sequence[int]) -> List[Any]:
        values = operand(ctx, cols, sel)
        lows = low(ctx, cols, sel)
        highs = high(ctx, cols, sel)
        out: List[Any] = []
        append = out.append
        for value, lo, hi in zip(values, lows, highs):
            # Both compares run unconditionally (either may raise on a
            # type mismatch), exactly like Between.evaluate.
            result = kleene_and(
                _compare(">=", value, lo), _compare("<=", value, hi)
            )
            append(kleene_not(result) if negated else result)
        return out

    return kernel


def _like_kernel(expression: Like) -> Kernel:
    operand = compile_kernel(expression.operand)
    negated = expression.negated
    case_insensitive = expression.case_insensitive
    pattern = expression.pattern
    if isinstance(pattern, Literal) and isinstance(pattern.value, str):
        text = pattern.value.lower() if case_insensitive else pattern.value
        regex = like_to_regex(text)

        def literal_kernel(ctx, cols, sel):
            out: List[Any] = []
            append = out.append
            for value in operand(ctx, cols, sel):
                if value is None:
                    append(None)
                    continue
                if not isinstance(value, str):
                    raise ExecutionError("LIKE requires text operands")
                if case_insensitive:
                    value = value.lower()
                matched = regex.match(value) is not None
                append(not matched if negated else matched)
            return out

        return literal_kernel
    pattern_kernel = compile_kernel(pattern)
    cache = expression._cache

    def kernel(ctx: Dict[str, Any], cols: Dict[str, List[Any]],
               sel: Sequence[int]) -> List[Any]:
        values = operand(ctx, cols, sel)
        patterns = pattern_kernel(ctx, cols, sel)
        out: List[Any] = []
        append = out.append
        for value, pat in zip(values, patterns):
            if value is None or pat is None:
                append(None)
                continue
            if not isinstance(value, str) or not isinstance(pat, str):
                raise ExecutionError("LIKE requires text operands")
            if case_insensitive:
                value = value.lower()
                pat = pat.lower()
            regex = cache.get(pat)
            if regex is None:
                regex = like_to_regex(pat)
                cache[pat] = regex
            matched = regex.match(value) is not None
            append(not matched if negated else matched)
        return out

    return kernel


def _case_kernel(expression: Case) -> Kernel:
    branches = [
        (compile_kernel(condition), compile_kernel(value))
        for condition, value in expression.branches
    ]
    default = (
        compile_kernel(expression.default)
        if expression.default is not None
        else None
    )

    def kernel(ctx: Dict[str, Any], cols: Dict[str, List[Any]],
               sel: Sequence[int]) -> List[Any]:
        out: List[Any] = [None] * len(sel)
        pending = list(range(len(sel)))
        for condition, value in branches:
            if not pending:
                break
            sub_sel = [sel[pos] for pos in pending]
            conditions = [
                _as_bool(cv) for cv in condition(ctx, cols, sub_sel)
            ]
            taken = [
                pos for pos, cv in zip(pending, conditions) if cv is True
            ]
            if taken:
                taken_sel = [sel[pos] for pos in taken]
                for pos, result in zip(taken, value(ctx, cols, taken_sel)):
                    out[pos] = result
            pending = [
                pos for pos, cv in zip(pending, conditions) if cv is not True
            ]
        if default is not None and pending:
            sub_sel = [sel[pos] for pos in pending]
            for pos, result in zip(pending, default(ctx, cols, sub_sel)):
                out[pos] = result
        return out

    return kernel
