"""Execution-mode selection for the execution engine.

The engine has three execution paths over the same plans and the same
(sharded) :class:`~repro.engine.storage.ObjectStore`:

* ``rowwise`` — the original interpreting executor
  (:class:`~repro.engine.executor.QueryExecutor`): plans are walked binding
  by binding and every predicate is re-interpreted per row.
* ``vectorized`` — the batch executor
  (:class:`~repro.engine.vectorized.VectorizedExecutor`): instances move
  through the plan in column-oriented batches and every predicate is lowered
  once per plan into a compiled closure (:mod:`repro.engine.compiled`).
* ``parallel`` — the partition-parallel executor
  (:class:`~repro.engine.parallel.ParallelExecutor`): the driver scan is
  hash-partitioned by OID and per-shard vectorized pipelines run on a
  worker pool, with rows and metrics merged deterministically.

All paths report the *same* :class:`~repro.engine.executor.ExecutionMetrics`
counters for the same plan — the differential oracle and the metrics-parity
tests enforce this — so experiment tables are engine-independent and the
mode is purely a throughput choice.

The process-wide default mode can be set with the ``REPRO_ENGINE``
environment variable (``rowwise``, ``vectorized`` or ``parallel``), which is
how the CI matrix runs the whole suite under every engine.  The parallel
engine's worker-pool width defaults from ``REPRO_WORKERS`` (falling back to
the machine's core count, capped at :data:`MAX_DEFAULT_WORKERS`).
"""

from __future__ import annotations

import enum
import os
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..schema.schema import Schema
    from .storage import ObjectStore

#: Environment variable consulted for the process-wide default mode.
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: Environment variable consulted for the parallel engine's worker count.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Upper bound on the worker count chosen automatically from the core
#: count; explicit ``REPRO_WORKERS`` / ``workers=`` values may exceed it.
MAX_DEFAULT_WORKERS = 4


class ExecutionMode(enum.Enum):
    """Which execution path evaluates query plans."""

    ROWWISE = "rowwise"
    VECTORIZED = "vectorized"
    PARALLEL = "parallel"

    @classmethod
    def parse(cls, value: Union[str, "ExecutionMode"]) -> "ExecutionMode":
        """Coerce a mode name (CLI flag, env var) to an :class:`ExecutionMode`."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            choices = ", ".join(mode.value for mode in cls)
            raise ValueError(
                f"unknown execution mode {value!r} (choose from: {choices})"
            ) from None


def default_execution_mode() -> ExecutionMode:
    """The process-wide default mode (``REPRO_ENGINE`` env var, else rowwise)."""
    value = os.environ.get(ENGINE_ENV_VAR)
    if not value:
        return ExecutionMode.ROWWISE
    return ExecutionMode.parse(value)


def resolve_execution_mode(
    value: Optional[Union[str, ExecutionMode]],
    default: Optional[ExecutionMode] = None,
) -> ExecutionMode:
    """Resolve a caller-supplied mode value to an :class:`ExecutionMode`.

    ``None`` falls back to ``default`` when given (e.g. the cost model's
    fixed row-wise baseline), else to the process default; anything else is
    parsed.  The single place mode-resolution policy lives — every layer
    (executor factory, planner, cost model, service) routes through it.
    """
    if value is None:
        return default if default is not None else default_execution_mode()
    return ExecutionMode.parse(value)


def default_worker_count() -> int:
    """The default parallel worker count.

    ``REPRO_WORKERS`` wins when set; otherwise the machine's core count,
    capped at :data:`MAX_DEFAULT_WORKERS`.  On a single-core machine this
    resolves to ``1``, which makes the parallel engine execute in-process —
    fan-out cannot help without cores to fan out to.
    """
    value = os.environ.get(WORKERS_ENV_VAR)
    if value:
        return resolve_worker_count(value)
    return max(1, min(MAX_DEFAULT_WORKERS, os.cpu_count() or 1))


def resolve_worker_count(value: Optional[Union[int, str]]) -> int:
    """Resolve a caller-supplied worker count (``None`` = process default)."""
    if value is None:
        return default_worker_count()
    try:
        workers = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"worker count must be an integer, got {value!r}") from None
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def create_executor(
    schema: "Schema",
    store: "ObjectStore",
    mode: Optional[Union[str, ExecutionMode]] = None,
    join_strategy: str = "hash",
    workers: Optional[int] = None,
    min_partition_rows: Optional[int] = None,
):
    """Build the executor implementing ``mode`` (default: the env default).

    Returns a :class:`~repro.engine.executor.QueryExecutor`, a
    :class:`~repro.engine.vectorized.VectorizedExecutor` or a
    :class:`~repro.engine.parallel.ParallelExecutor`; all expose the same
    ``execute``/``execute_plan`` API and produce identical results and
    metrics, so callers can treat the return value uniformly.  ``workers``
    only applies to the parallel engine (``None`` = ``REPRO_WORKERS`` env
    var, else the core count capped at :data:`MAX_DEFAULT_WORKERS`).

    >>> from repro.engine.storage import ObjectStore
    >>> from repro.schema import build_example_schema
    >>> schema = build_example_schema()
    >>> executor = create_executor(schema, ObjectStore(schema), mode="vectorized")
    >>> executor.mode.value
    'vectorized'
    >>> create_executor(schema, ObjectStore(schema), mode="warp")
    Traceback (most recent call last):
        ...
    ValueError: unknown execution mode 'warp' (choose from: rowwise, vectorized, parallel)
    """
    resolved = resolve_execution_mode(mode)
    if resolved is ExecutionMode.PARALLEL:
        from .parallel import DEFAULT_MIN_PARTITION_ROWS, ParallelExecutor

        return ParallelExecutor(
            schema,
            store,
            join_strategy=join_strategy,
            workers=workers,
            min_partition_rows=(
                min_partition_rows
                if min_partition_rows is not None
                else DEFAULT_MIN_PARTITION_ROWS
            ),
        )
    if resolved is ExecutionMode.VECTORIZED:
        from .vectorized import VectorizedExecutor

        return VectorizedExecutor(schema, store, join_strategy=join_strategy)
    from .executor import QueryExecutor

    return QueryExecutor(schema, store, join_strategy=join_strategy)
