"""Compiled kernels equal ``Predicate.evaluate`` element by element.

A kernel compares a whole column in one pass over the raw operator and
answers through a guarded per-element comparison only when that pass
raises ``TypeError`` — on an absent attribute or on values of incompatible
types.  Either way its mask must be the one ``Predicate.evaluate`` gives
row by row: a missing value or an incompatible comparison is false.  The
columns below mix int, float, str, bool and ``None`` values with a missing
attribute (every pass falls back), and also hold one type each (no pass
does).
"""

import itertools

import pytest

from repro.constraints import ComparisonOperator, Predicate
from repro.engine import compile_for_binding, compile_for_class

MISSING = object()
VALUES = [0, 3, -1, 2.5, 3.0, "m", "a", "", True, False, None, MISSING]
#: A constant of every kind a stored value has.
CONSTANTS = [3, 2.5, "m", True, None]


def _row(**values):
    return {name: value for name, value in values.items() if value is not MISSING}


def _columns():
    """The mixed column, then one column per value type."""
    yield VALUES
    for _kind, group in itertools.groupby(
        sorted(VALUES[:-1], key=lambda v: type(v).__name__), key=type
    ):
        yield list(group)


@pytest.mark.parametrize("operator", list(ComparisonOperator))
def test_constant_kernels_equal_evaluate(operator):
    for values, constant in itertools.product(_columns(), CONSTANTS):
        predicate = Predicate.selection("c.a", operator, constant)
        rows = [_row(a=value) for value in values]
        expected = [predicate.evaluate({"c": row}) for row in rows]
        assert compile_for_class(predicate, "c")(rows) == expected, constant
        assert compile_for_binding(predicate)({"c": rows}, len(rows)) == expected
        # Another class is constant-false, in either context.
        assert compile_for_class(predicate, "d")(rows) == [False] * len(rows)
        assert compile_for_binding(predicate)({"d": rows}, len(rows)) == [False] * len(
            rows
        )


@pytest.mark.parametrize("operator", list(ComparisonOperator))
def test_attribute_kernels_equal_evaluate(operator):
    for values in _columns():
        pairs = list(itertools.product(values, repeat=2))
        # One class, two attributes: a class kernel.
        predicate = Predicate.comparison("c.a", operator, "c.b")
        rows = [_row(a=left, b=right) for left, right in pairs]
        expected = [predicate.evaluate({"c": row}) for row in rows]
        assert compile_for_class(predicate, "c")(rows) == expected
        # Two classes: a binding kernel over two columns.
        predicate = Predicate.comparison("c.a", operator, "d.b")
        columns = {
            "c": [_row(a=left) for left, _ in pairs],
            "d": [_row(b=right) for _, right in pairs],
        }
        expected = [
            predicate.evaluate({"c": left, "d": right})
            for left, right in zip(columns["c"], columns["d"])
        ]
        assert compile_for_binding(predicate)(columns, len(pairs)) == expected
        assert compile_for_binding(predicate)({"c": columns["c"]}, len(pairs)) == [
            False
        ] * len(pairs)
