"""Predicate compilation for the vectorized executor.

The row-wise executor calls :meth:`~repro.constraints.predicate.Predicate.evaluate`
once per (row, predicate): every call rebuilds a one-entry binding dict,
re-resolves both operands through mapping lookups and re-dispatches on the
operator enum.  The vectorized path instead *lowers* each predicate once per
plan into a closure specialized for its evaluation context:

* :func:`compile_for_class` — the predicate is evaluated against instances
  of one known class (scan and traverse filters).  Operand resolution,
  operator dispatch and the constant are all bound at compile time; the
  returned kernel maps a column of attribute-value mappings to a boolean
  mask in one comprehension over the raw operator.
* :func:`compile_for_binding` — the predicate spans the classes of a
  binding batch (cross-class :class:`~repro.engine.plan.FilterNode`
  predicates).  The kernel receives the batch's per-class columns and
  produces a mask over the rows.

The compiled kernels reproduce ``Predicate.evaluate`` semantics *exactly*:
a missing class or attribute evaluates to ``False``, and comparing values of
incompatible types under an ordering operator yields ``False`` instead of
raising.  The one pass raises ``TypeError`` on either (an absent attribute
reads as a value that refuses to compare), and only then does the kernel
answer through the guarded per-element comparison.  ``tests/engine/
test_compiled`` checks each kernel against ``evaluate`` element by element;
the differential oracle and the metrics-parity tests pin it end to end.
"""

from __future__ import annotations

import operator as _operator
from typing import Any, Callable, List, Mapping, Sequence

from ..constraints.predicate import (
    AttributeOperand,
    ComparisonOperator,
    Predicate,
)


class _Absent:
    """What an absent attribute reads as: any comparison with it raises
    ``TypeError``, so a kernel's one pass stops and its guarded
    :func:`_comparator` answers (absent operands are false there)."""

    __slots__ = ()

    def _refuse(self, other: Any) -> bool:
        raise TypeError("absent operand")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse  # type: ignore
    __hash__ = object.__hash__


_MISSING = _Absent()

_RAW_OPERATORS = {
    ComparisonOperator.EQ: _operator.eq,
    ComparisonOperator.NE: _operator.ne,
    ComparisonOperator.LT: _operator.lt,
    ComparisonOperator.LE: _operator.le,
    ComparisonOperator.GT: _operator.gt,
    ComparisonOperator.GE: _operator.ge,
}

#: A mask kernel over one column of attribute-value mappings.
ColumnKernel = Callable[[Sequence[Mapping[str, Any]]], List[bool]]

#: A mask kernel over the per-class columns of a binding batch.
BindingKernel = Callable[[Mapping[str, Sequence[Mapping[str, Any]]], int], List[bool]]


def _comparator(raw: Callable[[Any, Any], Any]) -> Callable[[Any, Any], bool]:
    """The raw operator ``raw`` with ``Predicate.evaluate`` semantics.

    Missing operands are false; ``TypeError`` from an incompatible
    comparison is false (mirroring ``ComparisonOperator.apply``).
    """

    def compare(left: Any, right: Any) -> bool:
        if left is _MISSING or right is _MISSING:
            return False
        try:
            return bool(raw(left, right))
        except TypeError:
            return False

    return compare


def _false_kernel(rows: Sequence[Mapping[str, Any]]) -> List[bool]:
    return [False] * len(rows)


def compile_for_class(predicate: Predicate, class_name: str) -> ColumnKernel:
    """Lower ``predicate`` for evaluation against instances of ``class_name``.

    Equivalent to ``predicate.evaluate({class_name: values})`` applied to
    every element of the column: a predicate mentioning any other class is
    constant-false in this context.
    """
    left = predicate.left
    if left.class_name != class_name:
        return _false_kernel
    attr = left.attribute_name
    right = predicate.right
    raw = _RAW_OPERATORS[predicate.operator]
    compare = _comparator(raw)

    if isinstance(right, AttributeOperand):
        if right.class_name != class_name:
            return _false_kernel
        other = right.attribute_name

        def attr_kernel(rows: Sequence[Mapping[str, Any]]) -> List[bool]:
            try:
                return [raw(r.get(attr, _MISSING), r.get(other, _MISSING)) for r in rows]
            except TypeError:
                return [
                    compare(r.get(attr, _MISSING), r.get(other, _MISSING))
                    for r in rows
                ]

        return attr_kernel

    constant = right
    if predicate.operator is ComparisonOperator.EQ and isinstance(
        constant, (str, int, float, bool)
    ):
        # Hottest case: equality against a plain constant, spelled inline.
        # Only an absent attribute raises here.
        def eq_kernel(rows: Sequence[Mapping[str, Any]]) -> List[bool]:
            try:
                return [r.get(attr, _MISSING) == constant for r in rows]
            except TypeError:
                return [compare(r.get(attr, _MISSING), constant) for r in rows]

        return eq_kernel

    def const_kernel(rows: Sequence[Mapping[str, Any]]) -> List[bool]:
        try:
            return [raw(r.get(attr, _MISSING), constant) for r in rows]
        except TypeError:
            return [compare(r.get(attr, _MISSING), constant) for r in rows]

    return const_kernel


def compile_for_binding(predicate: Predicate) -> BindingKernel:
    """Lower ``predicate`` for evaluation against a multi-class batch.

    The kernel receives ``columns`` mapping each bound class to a column of
    attribute-value mappings (all columns the same length ``n``) and returns
    the mask.  A class absent from the batch makes the predicate false for
    every row, as in ``Predicate.evaluate``.
    """
    left_class = predicate.left.class_name
    left_attr = predicate.left.attribute_name
    right = predicate.right
    raw = _RAW_OPERATORS[predicate.operator]
    compare = _comparator(raw)

    if isinstance(right, AttributeOperand):
        right_class = right.class_name
        right_attr = right.attribute_name

        def join_kernel(
            columns: Mapping[str, Sequence[Mapping[str, Any]]], n: int
        ) -> List[bool]:
            left_col = columns.get(left_class)
            right_col = columns.get(right_class)
            if left_col is None or right_col is None:
                return [False] * n
            try:
                return [
                    raw(a.get(left_attr, _MISSING), b.get(right_attr, _MISSING))
                    for a, b in zip(left_col, right_col)
                ]
            except TypeError:
                return [
                    compare(a.get(left_attr, _MISSING), b.get(right_attr, _MISSING))
                    for a, b in zip(left_col, right_col)
                ]

        return join_kernel

    constant = right

    def selection_kernel(
        columns: Mapping[str, Sequence[Mapping[str, Any]]], n: int
    ) -> List[bool]:
        left_col = columns.get(left_class)
        if left_col is None:
            return [False] * n
        try:
            return [raw(a.get(left_attr, _MISSING), constant) for a in left_col]
        except TypeError:
            return [compare(a.get(left_attr, _MISSING), constant) for a in left_col]

    return selection_kernel
