"""Partition-parallel plan execution over a shard set.

An engine-level executor that no execution mode selects: it is built
directly (``ParallelExecutor(schema, store, workers=...)``) and runs
vectorized plans.  It executes the same plans as the other engines,
against the same (optionally sharded)
:class:`~repro.engine.storage.ObjectStore`, and returns the same rows and
the same :class:`~repro.engine.executor.ExecutionMetrics` — the
differential-oracle and metrics-parity suites pin both — but it splits the
work across a pool of forked worker processes:

1. the **driver scan** runs once in the parent, exactly like the vectorized
   engine (same index selection, same compiled filter cascade, charged
   once);
2. the surviving driver rows are **hash-partitioned by OID** — one
   partition per store shard when the store is sharded, else one virtual
   partition per worker — and each partition is shipped to a worker as a
   list of OIDs plus the rows' positions in the global scan output;
3. every worker runs the **remaining plan nodes as a per-shard vectorized
   pipeline** (:class:`~repro.engine.vectorized.VectorizedExecutor` over
   the forked store snapshot, whose rows keep their memoized pointer lists
   across plans), and sends back per-class **OID columns** — not
   answer rows, which would dominate transport cost — plus its
   metrics and a ledger of once-per-plan charges;
4. the parent **merges deterministically**: per-shard bindings are
   rebuilt from the OID columns, projected into answer rows by the shared
   row builder (:func:`~repro.engine.executor.build_rows`), and
   interleaved by driver position (positions never collide
   across partitions, so the merge reproduces the sequential row order
   bit for bit); worker counters are summed, and ledgered one-off charges
   (hash-join builds) are counted exactly once across all shards.

Workers inherit the store by ``fork`` — nothing is copied eagerly.  Each
worker is its own single-process pool, so it can be addressed directly:
when the store's version counter moves between executions, the parent
ships the store's **mutation journal delta**
(:meth:`~repro.engine.storage.ShardedObjectStore.journal_since`) to each
live worker, which replays it into its forked snapshot
(:meth:`~repro.engine.storage.ShardedObjectStore.apply_journal`) instead
of being torn down and re-forked.  Replay goes through the replica's own
``update``, so exactly the rows it changes drop their memoized derivations
and the replica's reverse-pointer index follows the same writes.
A worker is re-forked only when the journal cannot bridge the gap (bounded
retention overflow, or an index rebuild after un-journaled in-place
repairs).  When forking is unavailable, the pool width is 1, the plan is
not a chain that distributes over its driver scan (:func:`_fan_out_leaf`),
or the driver set is too small to pay for transport, execution falls back
to the identical in-process pipeline, so correctness never depends on the
pool.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
import weakref
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from heapq import merge as _heap_merge
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..query.query import Query
from ..schema.schema import Schema
from .executor import ExecutionMetrics, ExecutionResult, ShardReport, build_rows
from .modes import ExecutionMode
from .plan import FilterNode, ProjectNode, QueryPlan, ScanNode, TraverseNode
from .statistics import DatabaseStatistics
from .storage import ObjectStore
from .vectorized import BindingBatch, VectorizedExecutor, _PlanContext

#: Default minimum number of driver rows before fan-out pays for itself;
#: below it the executor stays in-process (transport costs more than the
#: pipeline).  Tests force the pool path by passing ``min_partition_rows=1``.
DEFAULT_MIN_PARTITION_ROWS = 128

#: Upper bound on the worker count chosen from the core count; an explicit
#: ``workers=`` may exceed it.
MAX_DEFAULT_WORKERS = 4

#: How many plans one batch-mode worker task carries.  Larger chunks
#: amortize the per-task submit/collect round trip; smaller chunks let the
#: parent start merging earlier.  Four is a good middle on the Table 4.2
#: style workloads (tens of plans, tens of microseconds of per-task IPC).
DEFAULT_PLANS_PER_TASK = 4

#: The nodes that distribute over a split of their input rows: running one
#: on each disjoint split of its child's output (with whole-store access for
#: lookups and join builds) and concatenating the outputs in input order
#: yields exactly its single-partition output, because each output row is a
#: function of one input row and shared store state.
_PARTITIONED_NODES = (TraverseNode, FilterNode, ProjectNode)


def _fan_out_leaf(plan: QueryPlan) -> Optional[ScanNode]:
    """The scan whose output may be hash-partitioned across shards.

    When the plan is a chain of :data:`_PARTITIONED_NODES` over one scan,
    the scan's output can be split by driver OID, the rest of the chain run
    per partition, and the outputs merged back in driver order to reproduce
    the sequential result exactly.  Any other plan — one holding a node
    kind not listed there — returns ``None`` and stays in-process, which is
    always correct.
    """
    node = plan.root
    while isinstance(node, _PARTITIONED_NODES):
        node = node.child
    return node if isinstance(node, ScanNode) else None


@dataclass
class _ShardOutcome:
    """Wire-format result of one shard task (compact: OIDs, not rows)."""

    shard_id: int
    columns: Dict[str, List[int]]
    positions: List[int]
    metrics: ExecutionMetrics
    ledger: Dict[Tuple, Tuple[int, int, int]]
    driver_rows: int
    elapsed: float


class _WorkerState:
    """Per-process state of one pool worker (built once at fork time)."""

    #: Upper bound on cached unpickled plans per worker.  The cache only
    #: needs to bridge the shard tasks of plans currently in flight, so a
    #: small FIFO suffices; without a bound, a long-lived pool serving a
    #: stream of distinct queries would grow worker memory indefinitely.
    PLAN_CACHE_SIZE = 64

    def __init__(self, schema: Schema, store: ObjectStore, join_strategy: str) -> None:
        self.schema = schema
        self.store = store
        self.executor = VectorizedExecutor(schema, store, join_strategy=join_strategy)
        self.plans: Dict[str, QueryPlan] = {}

    def plan_for(self, digest: str, blob: bytes) -> QueryPlan:
        """The unpickled plan for ``digest``, cached across shard tasks."""
        plan = self.plans.get(digest)
        if plan is None:
            plan = pickle.loads(blob)
            while len(self.plans) >= self.PLAN_CACHE_SIZE:
                self.plans.pop(next(iter(self.plans)))
            self.plans[digest] = plan
        return plan


_WORKER_STATE: Optional[_WorkerState] = None


def _init_worker(schema: Schema, store: ObjectStore, join_strategy: str) -> None:
    """Pool initializer (runs in the child; arguments arrive via fork)."""
    global _WORKER_STATE
    _WORKER_STATE = _WorkerState(schema, store, join_strategy)


def resolve_worker_count(value: Optional[int]) -> int:
    """The pool width for ``workers=value``: ``None`` is the core count
    capped at :data:`MAX_DEFAULT_WORKERS` (``1`` on a single core, which
    keeps execution in-process); anything else must be an integer >= 1."""
    if value is None:
        return max(1, min(MAX_DEFAULT_WORKERS, os.cpu_count() or 1))
    try:
        workers = int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"worker count must be an integer, got {value!r}"
        ) from None
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def _apply_worker_journal(records) -> int:
    """Replay a journal delta into this worker's forked store snapshot."""
    state = _WORKER_STATE
    assert state is not None, "worker used before initialization"
    return state.store.apply_journal(records)


def _worker_pid() -> int:
    """This worker process's PID (test/debug introspection)."""
    return os.getpid()


class _WorkerHandle:
    """Parent-side record of one live worker: its pool and sync point."""

    __slots__ = ("pool", "synced_version", "finalizer")

    def __init__(
        self,
        pool: ProcessPoolExecutor,
        synced_version: int,
        finalizer: "weakref.finalize",
    ) -> None:
        self.pool = pool
        self.synced_version = synced_version
        self.finalizer = finalizer


#: Wire format of one shard task: (plan blob, plan digest, driver class,
#: driver OIDs, driver positions, shard id).
_ShardTask = Tuple[bytes, str, str, List[int], List[int], int]


def _execute_shard_chunk(tasks: List[_ShardTask]) -> List[_ShardOutcome]:
    """Run several plans' post-scan pipelines over their driver partitions.

    One chunk per worker round trip: the per-task submit/collect overhead
    is paid once for the whole chunk, and the worker's plan cache means a
    plan arriving for several shards is unpickled once per process.
    """
    state = _WORKER_STATE
    assert state is not None, "worker used before initialization"
    executor = state.executor
    outcomes: List[_ShardOutcome] = []
    for plan_blob, plan_digest, driver_class, driver_oids, positions, shard_id in tasks:
        start = time.perf_counter()
        plan = state.plan_for(plan_digest, plan_blob)
        metrics = ExecutionMetrics()
        ledger: Dict[Tuple, Tuple[int, int, int]] = {}
        context = _PlanContext(metrics, one_off_ledger=ledger)
        oid_index = state.store.oid_index(driver_class)
        batch = BindingBatch(
            {driver_class: [oid_index[oid] for oid in driver_oids]},
            positions=list(positions),
        )
        batch = executor._run(plan.root, context, scan_override=batch)
        columns = {
            name: [instance.oid for instance in column]
            for name, column in batch.columns.items()
        }
        outcomes.append(
            _ShardOutcome(
                shard_id=shard_id,
                columns=columns,
                positions=list(batch.positions or []),
                metrics=metrics,
                ledger=ledger,
                driver_rows=len(driver_oids),
                elapsed=time.perf_counter() - start,
            )
        )
    return outcomes


@dataclass
class _PreparedExecution:
    """Parent-side bookkeeping for one plan between submit and merge."""

    plan: QueryPlan
    context: _PlanContext
    #: ``(chunk future, index into its outcome list)`` per non-empty shard.
    shard_futures: List[Tuple[Any, int]] = field(default_factory=list)
    #: shard id -> (driver OIDs, driver positions); ``None`` = inline path.
    partitions: Optional[Dict[int, Tuple[List[int], List[int]]]] = None
    leaf: Optional[ScanNode] = None
    driver: Optional[List[Any]] = None
    inline_result: Optional[ExecutionResult] = None


class ParallelExecutor:
    """Executes query plans with per-shard pipelines on a worker pool.

    Parameters mirror the other executors; additionally ``workers`` sets
    the pool width (``None`` = the core count capped at 4) and
    ``min_partition_rows`` the driver-set size below
    which execution stays in-process.  With ``workers=1`` the executor is
    an in-process engine with exactly the vectorized engine's behaviour.
    """

    #: The mode of the plans this executor runs: per-shard vectorized
    #: pipelines, so its plans are the vectorized engine's.
    mode = ExecutionMode.VECTORIZED

    def __init__(
        self,
        schema: Schema,
        store: ObjectStore,
        join_strategy: str = "hash",
        workers: Optional[int] = None,
        min_partition_rows: int = DEFAULT_MIN_PARTITION_ROWS,
    ) -> None:
        if join_strategy not in ("hash", "nested_loop"):
            raise ValueError("join_strategy must be 'hash' or 'nested_loop'")
        self.schema = schema
        self.store = store
        self.join_strategy = join_strategy
        self.workers = resolve_worker_count(workers)
        self.min_partition_rows = min_partition_rows
        # The in-process half: runs the driver scan, the fallback path and
        # the final materialization.
        self._local = VectorizedExecutor(
            schema, store, join_strategy=join_strategy
        )
        # One single-process pool per worker slot (partition ``p`` is owned
        # by slot ``p % workers``).  Addressing each worker through its own
        # pool is what makes targeted journal catch-up possible: a store
        # mutation is shipped to live workers as a replayable delta, and a
        # worker is only re-forked when the journal cannot bridge its gap.
        self._handles: Dict[int, _WorkerHandle] = {}
        self._pool_broken = False
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @staticmethod
    def _fork_available() -> bool:
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()

    def _pool_possible(self) -> bool:
        """Whether fan-out is even an option (without forking anything)."""
        return (
            self.workers > 1 and not self._pool_broken and self._fork_available()
        )

    @property
    def _pool(self) -> Optional[ProcessPoolExecutor]:
        """Any live worker pool (``None`` when no worker has been forked)."""
        for handle in self._handles.values():
            return handle.pool
        return None

    def _worker_pool(self, slot: int) -> Optional[ProcessPoolExecutor]:
        """The up-to-date pool of worker ``slot`` (forked/synced on demand).

        Workers hold a forked snapshot of the store.  When the store's
        version moved since the worker last synced, the journal delta is
        submitted to the worker's (FIFO, single-process) pool ahead of any
        shard task, so the worker replays exactly the mutations it missed;
        only an unbridgeable gap tears the worker down and re-forks it.
        Returns ``None`` when forking fails (the executor then stays
        in-process).
        """
        if not self._pool_possible():
            return None
        with self._pool_lock:
            version = self.store.version
            handle = self._handles.get(slot)
            if handle is not None:
                if handle.synced_version == version:
                    return handle.pool
                records = None
                journal_since = getattr(self.store, "journal_since", None)
                if journal_since is not None:
                    # None covers every unbridgeable state: the journal
                    # evicted past the worker's version, an index rebuild
                    # truncated it, or the worker is *ahead* of the store
                    # (a recovery rolled the store back) — in each case
                    # replaying records could not reconcile the replica,
                    # so the worker is torn down and re-forked fresh.
                    records = journal_since(handle.synced_version)
                if records is not None:
                    # Await the replay's outcome before trusting the worker
                    # with shard tasks: a worker whose catch-up failed
                    # (unpicklable value, pool death, replay error) must be
                    # re-forked, never marked synced on hope.  The delta is
                    # bounded by the journal limit, so the wait is short.
                    try:
                        handle.pool.submit(_apply_worker_journal, records).result()
                    except Exception:
                        self._close_handle(slot)
                    else:
                        handle.synced_version = version
                        return handle.pool
                else:
                    self._close_handle(slot)
            import multiprocessing

            try:
                pool = ProcessPoolExecutor(
                    max_workers=1,
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=_init_worker,
                    initargs=(self.schema, self.store, self.join_strategy),
                )
            except OSError:
                self._pool_broken = True
                return None
            finalizer = weakref.finalize(self, pool.shutdown, wait=False)
            self._handles[slot] = _WorkerHandle(pool, version, finalizer)
            return pool

    def _close_handle(self, slot: int) -> None:
        handle = self._handles.pop(slot, None)
        if handle is not None:
            handle.finalizer.detach()
            handle.pool.shutdown(wait=False)

    def worker_pids(self) -> Dict[int, int]:
        """PID of each live worker, by slot (test/debug introspection)."""
        with self._pool_lock:
            pools = {slot: handle.pool for slot, handle in self._handles.items()}
        return {slot: pool.submit(_worker_pid).result() for slot, pool in pools.items()}

    def close(self) -> None:
        """Shut every worker pool down (re-forked lazily on the next use)."""
        with self._pool_lock:
            slots = list(self._handles)
            for slot in slots:
                self._close_handle(slot)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def execute_plan(self, plan: QueryPlan) -> ExecutionResult:
        """Execute ``plan`` and return rows plus (deterministic) metrics."""
        return self.execute_plans([plan])[0]

    def execute_plans(
        self,
        plans: Sequence[QueryPlan],
        plans_per_task: int = DEFAULT_PLANS_PER_TASK,
    ) -> List[ExecutionResult]:
        """Execute a batch of plans with cross-plan pipelining.

        All shard tasks of every plan are submitted up-front — chunked
        ``plans_per_task`` plans to a worker round trip — and results are
        merged (and rows materialized) in plan order while later plans are
        still being computed by the workers, so the parent's serial half
        overlaps the pool's parallel half instead of alternating with it.
        """
        possible = self._pool_possible()
        prepared = [self._prepare(plan, possible) for plan in plans]
        if any(item.partitions is not None for item in prepared):
            self._dispatch(prepared, max(1, plans_per_task))
        return [self._merge(item) for item in prepared]

    def statistics(self) -> DatabaseStatistics:
        """Statistics current for the store's version (the store's cache)."""
        return self.store.statistics()

    def plan(self, query: Query) -> QueryPlan:
        """The plan :meth:`execute` runs: ``query`` under current statistics."""
        from .planner import ConventionalPlanner

        return ConventionalPlanner(
            self.schema, self.statistics(), execution_mode=self.mode
        ).plan(query)

    def execute(self, query: Query) -> ExecutionResult:
        """Plan and execute ``query`` in one call."""
        return self.execute_plan(self.plan(query))

    # ------------------------------------------------------------------
    # Submit / merge halves
    # ------------------------------------------------------------------
    def _prepare(
        self, plan: QueryPlan, pool_possible: bool
    ) -> _PreparedExecution:
        """Run the driver scan and decide inline vs fan-out per plan."""
        local = self._local
        context = _PlanContext(ExecutionMetrics())
        prepared = _PreparedExecution(plan=plan, context=context)
        leaf = _fan_out_leaf(plan)
        if leaf is None:
            prepared.inline_result = local.execute_plan(plan)
            return prepared

        driver = self._scan_driver(leaf, context)
        partitions = self._partition(driver)
        if (
            not pool_possible
            or len(driver) < max(2, self.min_partition_rows)
            or len(partitions) <= 1
        ):
            prepared.inline_result = self._run_inline(plan, leaf, driver, context)
            return prepared

        prepared.partitions = partitions
        prepared.leaf = leaf
        prepared.driver = driver
        return prepared

    def _dispatch(
        self,
        prepared: List[_PreparedExecution],
        plans_per_task: int,
    ) -> None:
        """Submit chunked per-shard tasks for every pool-eligible plan.

        Tasks are grouped by worker slot (``shard_id % workers``); each
        slot's pool is forked or journal-synced on first touch, so a store
        mutation between batches costs each live worker one replayed delta
        rather than a re-fork.
        """
        pending = [item for item in prepared if item.partitions is not None]
        for start in range(0, len(pending), plans_per_task):
            chunk = pending[start : start + plans_per_task]
            tasks_by_slot: Dict[int, List[_ShardTask]] = {}
            owners_by_slot: Dict[int, List[_PreparedExecution]] = {}
            for item in chunk:
                blob = pickle.dumps(item.plan, protocol=pickle.HIGHEST_PROTOCOL)
                digest = hashlib.sha1(blob).hexdigest()
                for shard_id, (oids, positions) in item.partitions.items():
                    slot = shard_id % self.workers
                    tasks_by_slot.setdefault(slot, []).append(
                        (blob, digest, item.leaf.class_name, oids, positions, shard_id)
                    )
                    owners_by_slot.setdefault(slot, []).append(item)
            try:
                for slot, tasks in tasks_by_slot.items():
                    pool = self._worker_pool(slot)
                    if pool is None:
                        raise RuntimeError("worker pool unavailable")
                    future = pool.submit(_execute_shard_chunk, tasks)
                    for index, item in enumerate(owners_by_slot[slot]):
                        item.shard_futures.append((future, index))
            except RuntimeError:
                # A pool shut down under us (interpreter teardown, close
                # race) or could not be forked: the in-process path is
                # always available.  Nothing later in the batch can be
                # submitted either, so inline every not-yet-merged pending
                # plan (already-submitted shard futures are simply ignored).
                for item in pending[start:]:
                    item.shard_futures = []
                    item.inline_result = self._run_inline(
                        item.plan, item.leaf, item.driver, item.context
                    )
                return

    def _scan_driver(self, leaf: ScanNode, context: _PlanContext):
        """The driver scan, charged once — identical to the vectorized scan."""
        predicates = list(leaf.predicates)
        if leaf.index_predicate is not None:
            predicates = [leaf.index_predicate] + predicates
        instances, deltas = self._local._derive_candidates(
            leaf.class_name, predicates, leaf.index_predicate, context
        )
        context.charge(deltas)
        return instances

    def _partition(self, driver) -> Dict[int, Tuple[List[int], List[int]]]:
        """Hash-partition driver rows by OID, remembering global positions."""
        shard_count = self.store.shard_count
        partitions = shard_count if shard_count > 1 else self.workers
        shard_of = self.store.shard_of if shard_count > 1 else (
            lambda oid: oid % partitions
        )
        result: Dict[int, Tuple[List[int], List[int]]] = {}
        for position, instance in enumerate(driver):
            bucket = result.setdefault(shard_of(instance.oid), ([], []))
            bucket[0].append(instance.oid)
            bucket[1].append(position)
        return result

    def _run_inline(
        self, plan: QueryPlan, leaf: ScanNode, driver, context: _PlanContext
    ) -> ExecutionResult:
        """The fallback: finish the plan in-process on the already-run scan."""
        local = self._local
        batch = BindingBatch({leaf.class_name: list(driver)})
        batch = local._run(plan.root, context, scan_override=batch)
        rows = build_rows(plan, batch.columns)
        metrics = context.metrics
        metrics.rows_output = len(rows)
        return ExecutionResult(rows=rows, metrics=metrics, plan=plan)

    def _merge(self, prepared: _PreparedExecution) -> ExecutionResult:
        """Deterministically merge shard outcomes into one result."""
        if prepared.inline_result is not None:
            return prepared.inline_result
        if not prepared.shard_futures:
            return self._run_inline(
                prepared.plan, prepared.leaf, prepared.driver, prepared.context
            )
        try:
            outcomes = [
                future.result()[index] for future, index in prepared.shard_futures
            ]
        except (BrokenExecutor, OSError):
            # The pool itself died (worker OOM-killed, fork refused…), as
            # opposed to a task raising — that still propagates.  Mark the
            # pool broken so future executions stay in-process, and redo
            # this plan inline from scratch.
            self._pool_broken = True
            self.close()
            return self._local.execute_plan(prepared.plan)
        outcomes.sort(key=lambda outcome: outcome.shard_id)

        metrics = prepared.context.metrics
        charged: set = set()
        for outcome in outcomes:
            other = outcome.metrics
            metrics.instances_retrieved += other.instances_retrieved
            metrics.predicate_evaluations += other.predicate_evaluations
            metrics.pointer_traversals += other.pointer_traversals
            metrics.index_lookups += other.index_lookups
            for key, deltas in outcome.ledger.items():
                if key not in charged:
                    charged.add(key)
                    prepared.context.charge(deltas)

        streams = []
        reports: List[ShardReport] = []
        for outcome in outcomes:
            columns = {
                name: [self.store.oid_index(name)[oid] for oid in oids]
                for name, oids in outcome.columns.items()
            }
            rows = build_rows(prepared.plan, columns)
            streams.append(zip(outcome.positions, rows))
            reports.append(
                ShardReport(
                    shard_id=outcome.shard_id,
                    row_count=len(rows),
                    elapsed=outcome.elapsed,
                    driver_rows=outcome.driver_rows,
                )
            )
        # Positions are disjoint across shards and non-decreasing within
        # one, so a k-way merge restores the sequential row order exactly.
        merged_rows = [
            row for _position, row in _heap_merge(*streams, key=lambda item: item[0])
        ]
        metrics.rows_output = len(merged_rows)
        return ExecutionResult(
            rows=merged_rows,
            metrics=metrics,
            plan=prepared.plan,
            shard_reports=reports,
        )
