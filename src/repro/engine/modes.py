"""Execution-mode selection for the execution engine.

The engine has two execution paths over the same plans and the same
(sharded) :class:`~repro.engine.storage.ObjectStore`:

* ``rowwise`` — the original interpreting executor
  (:class:`~repro.engine.executor.QueryExecutor`): plans are walked binding
  by binding and every predicate is re-interpreted per row.
* ``vectorized`` — the batch executor
  (:class:`~repro.engine.vectorized.VectorizedExecutor`): instances move
  through the plan in column-oriented batches and every predicate is lowered
  once per plan into a compiled closure (:mod:`repro.engine.compiled`).

Both paths report the *same* :class:`~repro.engine.executor.ExecutionMetrics`
counters for the same plan — the differential oracle and the metrics-parity
tests enforce this — so experiment tables are engine-independent and the
mode is purely a throughput choice.  The default mode is ``vectorized``,
the faster of the two.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..schema.schema import Schema
    from .storage import ObjectStore


class ExecutionMode(enum.Enum):
    """Which execution path evaluates query plans."""

    ROWWISE = "rowwise"
    VECTORIZED = "vectorized"

    @classmethod
    def parse(cls, value: Union[str, "ExecutionMode"]) -> "ExecutionMode":
        """Coerce a mode name (CLI flag, wire option) to an :class:`ExecutionMode`."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            choices = ", ".join(mode.value for mode in cls)
            raise ValueError(
                f"unknown execution mode {value!r} (choose from: {choices})"
            ) from None


#: The mode a caller that names none runs on.
DEFAULT_EXECUTION_MODE = ExecutionMode.VECTORIZED


def resolve_execution_mode(
    value: Optional[Union[str, ExecutionMode]],
) -> ExecutionMode:
    """Resolve a caller-supplied mode value to an :class:`ExecutionMode`.

    ``None`` falls back to :data:`DEFAULT_EXECUTION_MODE`; anything else is
    parsed.  The single place mode-resolution policy lives — every layer
    that picks an executor (executor factory, planner, service) routes
    through it.
    """
    if value is None:
        return DEFAULT_EXECUTION_MODE
    return ExecutionMode.parse(value)


def create_executor(
    schema: "Schema",
    store: "ObjectStore",
    mode: Optional[Union[str, ExecutionMode]] = None,
    join_strategy: str = "hash",
):
    """Build the executor implementing ``mode`` (default: ``vectorized``).

    Returns a :class:`~repro.engine.executor.QueryExecutor` or a
    :class:`~repro.engine.vectorized.VectorizedExecutor`; both expose the
    same ``execute``/``execute_plan`` API and produce identical results and
    metrics, so callers can treat the return value uniformly.

    >>> from repro.engine.storage import ObjectStore
    >>> from repro.schema import build_example_schema
    >>> schema = build_example_schema()
    >>> executor = create_executor(schema, ObjectStore(schema), mode="vectorized")
    >>> executor.mode.value
    'vectorized'
    >>> create_executor(schema, ObjectStore(schema), mode="parallel")
    Traceback (most recent call last):
        ...
    ValueError: unknown execution mode 'parallel' (choose from: rowwise, vectorized)
    """
    if resolve_execution_mode(mode) is ExecutionMode.VECTORIZED:
        from .vectorized import VectorizedExecutor

        return VectorizedExecutor(schema, store, join_strategy=join_strategy)
    from .executor import QueryExecutor

    return QueryExecutor(schema, store, join_strategy=join_strategy)
