"""Scalar and aggregate function registries.

The engine ships a standard library (string, math, date helpers) and — key
for FlexRecs — supports *user-defined functions*.  The paper states that
FlexRecs library functions are "compiled into the SQL statements themselves;
in other cases we can rely on external functions that are called by the SQL
statements": :meth:`FunctionRegistry.register_scalar` is that external
function hook.

Scalar functions receive already-evaluated argument values and must handle
NULL (``None``) inputs; most built-ins are NULL-propagating.

Aggregate functions are implemented as small accumulator classes with
``add`` / ``result``; ``DISTINCT`` is handled by the executor before values
reach the accumulator.
"""

from __future__ import annotations

import datetime
import math
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ExecutionError


def _null_propagating(function: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*values: Any) -> Any:
        if any(value is None for value in values):
            return None
        return function(*values)

    wrapper.__name__ = function.__name__
    return wrapper


def _sql_round(value: float, digits: int = 0) -> float:
    factor = 10 ** digits
    # SQL-style half-away-from-zero rounding, not banker's rounding.
    scaled = value * factor
    rounded = math.floor(abs(scaled) + 0.5)
    result = math.copysign(rounded, scaled) / factor
    return result if digits > 0 else float(result)

def _substr(text: str, start: int, length: Optional[int] = None) -> str:
    # SQL SUBSTR is 1-based.
    begin = max(start - 1, 0)
    if length is None:
        return text[begin:]
    if length < 0:
        raise ExecutionError("SUBSTR length must be non-negative")
    return text[begin : begin + length]


def _sqrt(value: float) -> float:
    if value < 0:
        raise ExecutionError("SQRT of negative value")
    return math.sqrt(value)


def _ln(value: float) -> float:
    if value <= 0:
        raise ExecutionError("LN of non-positive value")
    return math.log(value)


def _year(value: datetime.date) -> int:
    return value.year


def _month(value: datetime.date) -> int:
    return value.month


def _coalesce(*values: Any) -> Any:
    for value in values:
        if value is not None:
            return value
    return None


def _nullif(left: Any, right: Any) -> Any:
    if left is not None and left == right:
        return None
    return left


def _sign(value: float) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


class FunctionRegistry:
    """Holds scalar and aggregate functions by lowercase name."""

    def __init__(self) -> None:
        self._scalars: Dict[str, Callable[..., Any]] = {}
        self._aggregates: Dict[str, Callable[[], "Accumulator"]] = {}
        # Bumped whenever a name starts resolving to a different function,
        # so cached query plans that baked in function results revalidate.
        self.version = 0
        self._install_builtins()

    # -- scalar ------------------------------------------------------------

    def register_scalar(self, name: str, function: Callable[..., Any]) -> None:
        """Register (or replace) a scalar function / UDF.

        Re-registering the *same* function object is a no-op for the
        version counter: the FlexRecs compiler re-registers workflow UDFs
        on every compile, and that must not invalidate cached plans.
        """
        key = name.lower()
        if self._scalars.get(key) is not function:
            self.version += 1
        self._scalars[key] = function

    def scalar(self, name: str) -> Callable[..., Any]:
        try:
            return self._scalars[name.lower()]
        except KeyError:
            raise ExecutionError(f"unknown function {name.upper()!r}") from None

    def has_scalar(self, name: str) -> bool:
        return name.lower() in self._scalars

    # -- aggregate -----------------------------------------------------------

    def aggregate(self, name: str) -> "Accumulator":
        try:
            return self._aggregates[name.lower()]()
        except KeyError:
            raise ExecutionError(
                f"unknown aggregate function {name.upper()!r}"
            ) from None

    # -- builtins -------------------------------------------------------------

    def _install_builtins(self) -> None:
        scalars: Dict[str, Callable[..., Any]] = {
            "abs": _null_propagating(abs),
            "round": _null_propagating(_sql_round),
            "floor": _null_propagating(lambda v: math.floor(v)),
            "ceil": _null_propagating(lambda v: math.ceil(v)),
            "sqrt": _null_propagating(_sqrt),
            "power": _null_propagating(lambda base, exp: float(base) ** exp),
            "exp": _null_propagating(math.exp),
            "ln": _null_propagating(_ln),
            "sign": _null_propagating(_sign),
            "mod": _null_propagating(lambda a, b: a % b),
            "length": _null_propagating(len),
            "lower": _null_propagating(lambda s: s.lower()),
            "upper": _null_propagating(lambda s: s.upper()),
            "trim": _null_propagating(lambda s: s.strip()),
            "ltrim": _null_propagating(lambda s: s.lstrip()),
            "rtrim": _null_propagating(lambda s: s.rstrip()),
            "substr": _null_propagating(_substr),
            "replace": _null_propagating(lambda s, a, b: s.replace(a, b)),
            "concat": _null_propagating(lambda *parts: "".join(str(p) for p in parts)),
            "year": _null_propagating(_year),
            "month": _null_propagating(_month),
            "least": _null_propagating(min),
            "greatest": _null_propagating(max),
            "coalesce": _coalesce,
            "nullif": _nullif,
            "cast_float": _null_propagating(float),
            "cast_int": _null_propagating(int),
            "cast_text": _null_propagating(str),
        }
        self._scalars.update(scalars)
        self._aggregates.update(
            {
                "count": CountAccumulator,
                "sum": SumAccumulator,
                "avg": AvgAccumulator,
                "min": MinAccumulator,
                "max": MaxAccumulator,
                "stddev": StdDevAccumulator,
                "group_concat": GroupConcatAccumulator,
            }
        )


class Accumulator:
    """Base class for aggregate accumulators."""


class CountAccumulator(Accumulator):
    """COUNT(expr): counts non-NULL inputs. COUNT(*) feeds a sentinel."""

    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.count += 1

    def result(self) -> int:
        return self.count


class SumAccumulator(Accumulator):
    def __init__(self) -> None:
        self.total: Optional[float] = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.total is None:
            self.total = value
        else:
            self.total += value

    def result(self) -> Optional[float]:
        return self.total


class AvgAccumulator(Accumulator):
    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.total += value
        self.count += 1

    def result(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count


class MinAccumulator(Accumulator):
    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None or value < self.best:
            self.best = value

    def result(self) -> Any:
        return self.best


class MaxAccumulator(Accumulator):
    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None or value > self.best:
            self.best = value

    def result(self) -> Any:
        return self.best


class StdDevAccumulator(Accumulator):
    """Population standard deviation via Welford's algorithm."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def result(self) -> Optional[float]:
        if self.count == 0:
            return None
        return math.sqrt(self.m2 / self.count)


class GroupConcatAccumulator(Accumulator):
    """Concatenate non-NULL text values with ',' in arrival order."""

    def __init__(self) -> None:
        self.parts: List[str] = []

    def add(self, value: Any) -> None:
        if value is not None:
            self.parts.append(str(value))

    def result(self) -> Optional[str]:
        if not self.parts:
            return None
        return ",".join(self.parts)
