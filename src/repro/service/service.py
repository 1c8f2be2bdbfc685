"""A cached, batched facade over the semantic query optimizer.

:class:`OptimizationService` is the layer a server (or an experiment
harness) talks to when the same optimizer is shared by many requests.  On
top of :class:`~repro.core.optimizer.SemanticQueryOptimizer` it adds

* a keyed, size-bounded **result cache**: structurally-equal queries
  optimized against the same declared rules on their classes (the
  repository's content epochs) return the already computed result without
  running any pipeline phase (the repository's own retrieval/closure
  caches make the cold path cheaper too);
* a **batch API**, :meth:`OptimizationService.optimize_many`, that
  deduplicates structurally-equal queries and runs the whole batch
  against one rule set;
* a uniform **result envelope** carrying per-phase timings, provenance and
  cache statistics (:mod:`repro.service.envelope`).

The service is safe to call from multiple threads: the result cache is
lock-protected, the repository's caches take their own lock, and each
pipeline run only mutates objects local to that run.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..caching import LruCache, ReadWriteLock, SingleFlightMap
from ..constraints.dynamic import DerivationConfig, DynamicRuleDeriver
from ..constraints.horn_clause import ConstraintOrigin, SemanticConstraint
from ..constraints.repository import ConstraintRepository, RepositoryCacheStats
from ..core.optimizer import OptimizerConfig, SemanticQueryOptimizer
from ..engine.modes import create_executor, resolve_execution_mode
from ..query.equivalence import equivalence_key
from ..query.query import Query
from ..schema.schema import Schema
from .envelope import (
    BatchResult,
    BatchStats,
    ExecutionBatchResult,
    ExecutionBatchStats,
    ExecutionEnvelope,
    MutationResult,
    ResultSource,
    ServiceCacheSnapshot,
    ServiceResult,
    ServiceStats,
)

try:  # pragma: no cover - engine is always available in-tree
    from ..engine.cost_model import CostModel
except Exception:  # pragma: no cover
    CostModel = None  # type: ignore[assignment]


class _CachedRun:
    """One result-cache entry: an optimizer run, and ``plan``: ``None`` or
    ``(weakref to a statistics snapshot, engine, QueryPlan)`` of its
    optimized query, set whole by :meth:`OptimizationService._plan`."""

    __slots__ = ("result", "plan")

    def __init__(self, result) -> None:
        self.result, self.plan = result, None


class OptimizationService:
    """Shared, cached access to one :class:`SemanticQueryOptimizer`.

    Parameters
    ----------
    schema, repository, constraints, cost_model, config:
        Forwarded to the wrapped :class:`SemanticQueryOptimizer`.
    result_cache_size:
        Maximum number of optimization results kept (LRU, keyed by the
        query's structural identity and its classes' content epochs, see
        :meth:`~repro.constraints.ConstraintRepository.class_epochs`).
        ``0`` disables result caching.
    store:
        An optional :class:`~repro.engine.storage.ObjectStore` to execute
        optimized queries against (see :meth:`execute`); without one the
        service only optimizes.
    execution_mode:
        Default engine for :meth:`execute` — an
        :class:`~repro.engine.modes.ExecutionMode` or its name
        (``"rowwise"`` / ``"vectorized"``).  ``None`` uses ``vectorized``.

    Examples
    --------
    Repeated structurally-equal queries skip the pipeline after the first
    call, and :meth:`stats` reports every counter as one atomic snapshot:

    >>> from repro.constraints import ConstraintRepository, build_example_constraints
    >>> from repro.query import parse_query
    >>> from repro.schema import build_example_schema
    >>> schema = build_example_schema()
    >>> repository = ConstraintRepository(schema)
    >>> repository.add_all(build_example_constraints())
    >>> service = OptimizationService(schema, repository=repository)
    >>> query = parse_query(
    ...     '(SELECT {cargo.desc} { } {vehicle.desc = "refrigerated truck"} '
    ...     '{collects} {cargo, vehicle})')
    >>> service.optimize(query).source.value
    'computed'
    >>> service.optimize(query).source.value
    'result_cache'
    >>> service.stats().cache.result_hits
    1
    """

    def __init__(
        self,
        schema: Schema,
        repository: Optional[ConstraintRepository] = None,
        constraints: Optional[Sequence[SemanticConstraint]] = None,
        cost_model: Optional["CostModel"] = None,
        config: Optional[OptimizerConfig] = None,
        result_cache_size: int = 1024,
        store=None,
        execution_mode=None,
    ) -> None:
        self.optimizer = SemanticQueryOptimizer(
            schema,
            repository=repository,
            constraints=constraints,
            cost_model=cost_model,
            config=config,
        )
        self.schema = schema
        self.store = store
        self.execution_mode = resolve_execution_mode(execution_mode)
        self._result_cache: LruCache = LruCache(result_cache_size)
        # Single-writer coordination for the live mutation path: query
        # executions hold the shared side, :meth:`mutate` the exclusive
        # side, so a write never interleaves with an execution mid-plan.
        self._store_lock = ReadWriteLock()
        self._mutations_applied = 0
        # What the store's sink feeds once attached (see _commit_write):
        # the durability manager (attach_durability) logs each record and
        # commits per batch; the replication feed (attach_replication)
        # stages each record and publishes after that commit.
        self._durability = None
        self._replication = None
        # Dynamic (state-derived) rule maintenance: when enabled, a write
        # touching a tracked class re-derives only that class's rules.
        self._deriver: Optional[DynamicRuleDeriver] = None
        self._dynamic_classes: Optional[set] = None
        # Guards the lazy build of the subscription registry: concurrent
        # first subscribers must share one.
        self._subscriptions_lock = threading.Lock()
        #: In-flight deduplication map: the async gateway keys whole
        #: request payloads with it.  Safe to drive from threads and from
        #: an event loop alike.
        self.single_flight: SingleFlightMap = SingleFlightMap()
        #: Standing-view registry (:meth:`subscription_registry`), built
        #: lazily on the first ``subscribe`` so services that never serve
        #: live views pay nothing.  The commit path flags it on dynamic-
        #: rule churn and pumps it after every write.
        self.subscriptions = None
        #: Self-tuning manager (:meth:`enable_self_tuning`); ``None`` when
        #: the feedback loop is off.
        self._tuning = None
        self._bind_store_views()

    @property
    def repository(self) -> Optional[ConstraintRepository]:
        """The wrapped optimizer's repository (single source of truth).

        Derived rather than stored so generation reads for cache keys can
        never diverge from the repository the optimizer actually uses.
        """
        return self.optimizer.repository

    # ------------------------------------------------------------------
    # Live views of the attached store (statistics, index set)
    # ------------------------------------------------------------------
    def _bind_store_views(self) -> None:
        """Point the optimizer at the attached store's own live views.

        Profitability estimates price against the store's *current*
        contents, not the snapshot the cost model was built with, and the
        optimizer reads the store's live index set (runtime-created and
        dropped indexes included); without a store they fall back to that
        snapshot and to the schema.  The store's methods are bound, not the
        service's, so nothing the optimizer holds refers back to the
        service: a closed service is freed by reference counting.
        """
        store = self.store
        if self.optimizer.cost_model is not None:
            self.optimizer.cost_model.bind_statistics(
                None if store is None else store.statistics
            )
        self.optimizer.index_probe = None if store is None else store.is_indexed

    def _rule_filter(self, constraint) -> bool:
        """Whether ``constraint`` may participate in optimization (the
        optimizer's filter once self-tuning is on)."""
        tuning = self._tuning
        return not (tuning.config.learn_rules and tuning.is_demoted(constraint.name))

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _record_access(self, query: Query) -> None:
        """Keep access-frequency statistics honest for pipeline-skipping hits."""
        if (
            self.repository is not None
            and self.optimizer.config.record_access_statistics
        ):
            self.repository.record_access(query.classes)

    def clear_result_cache(self) -> None:
        """Drop every cached optimization result."""
        self._result_cache.clear()

    def cache_stats(self) -> ServiceCacheSnapshot:
        """Current counters of the result cache and the repository caches.

        Each cache's counters are read atomically under that cache's lock
        (:meth:`repro.caching.LruCache.snapshot`), so the snapshot stays
        internally consistent under concurrent optimization traffic.
        """
        repo = (
            self.repository.cache_stats()
            if self.repository is not None
            else RepositoryCacheStats()
        )
        result = self._result_cache.snapshot()
        return ServiceCacheSnapshot(
            result_hits=result.hits,
            result_misses=result.misses,
            result_entries=result.entries,
            result_evictions=result.evictions,
            result_maxsize=result.maxsize,
            retrieval_hits=repo.retrieval_hits,
            retrieval_misses=repo.retrieval_misses,
            closure_hits=repo.closure_hits,
            closure_misses=repo.closure_misses,
        )

    def stats(self) -> ServiceStats:
        """One immutable snapshot of the whole service's counters.

        The view the gateway's ``stats`` RPC serializes: cache counters,
        single-flight dedup counters, repository generation/size and the
        store's counters, each counter group read under its own lock.
        """
        return ServiceStats(
            cache=self.cache_stats(),
            single_flight=self.single_flight.snapshot(),
            repository_generation=(
                self.repository.generation if self.repository is not None else 0
            ),
            repository_constraints=(
                len(self.repository.declared())
                if self.repository is not None
                else 0
            ),
            store_attached=self.store is not None,
            store_version=getattr(self.store, "version", 0) or 0,
            mutations_applied=self._mutations_applied,
            durability=(
                self._durability.stats()
                if self._durability is not None
                else None
            ),
            tuning=(
                self._tuning.snapshot() if self._tuning is not None else None
            ),
        )

    # ------------------------------------------------------------------
    # Single-query API
    # ------------------------------------------------------------------
    def optimize(self, query: Query, use_cache: bool = True) -> ServiceResult:
        """Optimize one query, serving from the result cache when possible.

        Cache identity is *structural* (``equivalence_key``): list ordering
        of projections, predicates, relationships and classes is ignored,
        so a hit may return an optimized query carrying a structural twin's
        ordering.  That matches the system's set-based answer semantics;
        callers that need per-call orderings or timings must pass
        ``use_cache=False``, which bypasses the result cache entirely (no
        lookup, no store) — as the timing experiments do.

        Holds the store lock's shared side, as :meth:`execute` does: no
        write may move the summaries the cost model's statistics read.
        """
        with self._store_lock.read():
            return self._optimize(query, use_cache)

    def _optimize(self, query: Query, use_cache: bool) -> ServiceResult:
        """:meth:`optimize` for a caller that holds the store lock."""
        return self._optimize_keyed(query, self._cache_key(query, use_cache))[0]

    def _cache_key(self, query: Query, use_cache: bool) -> Optional[Tuple]:
        """``query``'s result-cache key; ``None`` when the call bypasses it."""
        if not use_cache or self._result_cache.maxsize <= 0:
            return None
        return (equivalence_key(query), self._cache_epoch(query))

    def _cache_epoch(self, query: Query) -> Tuple:
        """The cache epoch of ``query``: its classes' content epochs.

        Keying cached results on the *per-class* epochs instead of the
        global generation makes invalidation class-granular: re-deriving
        the dynamic rules of a mutated class leaves every cached
        optimization whose query does not touch that class servable.
        Correctness holds because a constraint's referenced classes are
        always a subset of the classes of any query it is relevant to (a
        closure-derived rule unions its parents' anchors, so it is
        relevant only to queries holding every class of its lineage), so
        any relevant constraint change moves at least one epoch in this
        tuple.  An epoch is the content of its class's declared rules, not
        a counter: when a write and its undo swap a class's rules out and
        back, the results cached under the first state serve again.

        The tuning manager's generation rides along: index create/drop
        and rule demotions change what the optimizer would produce.  It
        is 0 until self-tuning is on, so the epoch shape is stable.
        """
        epochs: Tuple = (
            self.repository.class_epochs(query.classes)
            if self.repository is not None
            else ()
        )
        tuning = self._tuning
        return epochs + (tuning.generation if tuning is not None else 0,)

    def _optimize_keyed(
        self, query: Query, key: Optional[Tuple]
    ) -> Tuple[ServiceResult, Optional[_CachedRun]]:
        """Optimize under a precomputed cache key (``None`` = no caching);
        returns the envelope and the entry it was served from or stored in."""
        start = time.perf_counter()
        if key is not None:
            entry = self._result_cache.get(key)
            if entry is not None:
                self._record_access(query)
                return ServiceResult(
                    query=query,
                    # The cached run may stem from a structural twin; point
                    # ``original`` at the query this caller submitted (the
                    # heavy fields — optimized query, trace, tags — are
                    # shared with the cached result).
                    result=replace(entry.result, original=query),
                    source=ResultSource.RESULT_CACHE,
                    service_time=time.perf_counter() - start,
                ), entry
        result = self.optimizer.optimize(query)
        entry = None
        if key is not None:
            entry = _CachedRun(result)
            self._result_cache.put(key, entry)
        return ServiceResult(
            query=query,
            result=result,
            source=ResultSource.COMPUTED,
            service_time=time.perf_counter() - start,
        ), entry

    # ------------------------------------------------------------------
    # Execution API
    # ------------------------------------------------------------------
    def attach_store(self, store) -> None:
        """Attach (or replace) the object store used by :meth:`execute`."""
        self.store = store
        self._bind_store_views()

    def attach_durability(self, manager) -> None:
        """Attach an opened durability manager to the write path.

        ``manager`` is a :class:`~repro.durability.DurabilityManager`
        whose :meth:`~repro.durability.DurabilityManager.open` already
        adopted (or recovered) the attached store — from here on the
        service owns the store's sink, every record is appended to the
        WAL first, and every write's ``commit()`` runs under the store's
        write lock (:meth:`_commit_write`), so acked writes are in the WAL
        before any reader or replica can observe them.  Pass ``None`` to
        detach.
        """
        self._durability = manager
        self._own_sink()

    def attach_replication(self, feed) -> None:
        """Register the primary's replication feed (it calls this itself).

        The feed is handed each record after the WAL append and told to
        ``publish()`` after the WAL commit (:meth:`_commit_write`).
        """
        self._replication = feed
        self._own_sink()

    def _own_sink(self) -> None:
        self._require_store()
        self.store.set_mutation_sink(self._on_record)

    def _on_record(self, record) -> None:
        """The store's one sink: local log first, replication feed second."""
        if self._durability is not None:
            self._durability.append(record)
        if self._replication is not None:
            self._replication.stage(record)

    def flush_durability(self) -> None:
        """Force every buffered WAL frame onto stable storage.

        The drain path: the gateway calls this after it stops admitting
        work, so acked-but-unfsynced mutations survive a shutdown even
        under the batched fsync policy.  Takes the write lock to
        serialize against an in-flight mutation batch; a no-op without
        an attached durability manager.
        """
        if self._durability is None:
            return
        with self._store_lock.write():
            self._durability.flush()

    def backup(self) -> Dict[str, Any]:
        """Write an on-demand atomic snapshot; returns ``{path, version}``.

        Backs the ``backup`` RPC: the snapshot is taken under the
        exclusive store lock (the durability manager requires a
        quiescent store), rotates the WAL to the new base, and lands in
        the data directory like any scheduled snapshot.  Raises
        ``ValueError`` when no durability manager is attached (the
        gateway maps this to the ``backup_unavailable`` wire code).
        """
        if self._durability is None:
            raise ValueError(
                "backup requires durability; start the server with --data-dir"
            )
        with self._store_lock.write():
            path = self._durability.snapshot()
            version = self.store.version if self.store is not None else 0
        return {"path": path, "version": version}

    def replication_capture(self, version, register=None) -> Dict[str, Any]:
        """Capture a consistent sync point for a new replication subscriber.

        Runs under the shared (read) side of the store lock — readers
        exclude writers, so no mutation (and hence no sink callback) can
        fire mid-capture.  Calling ``register`` *inside* the locked span
        subscribes the caller to the live feed atomically with the
        capture: every record after the captured version reaches the
        subscriber through its queue, and none is duplicated or lost
        between sync payload and tail.

        With ``version`` set and bridgeable by the store's bounded
        journal, returns ``{"mode": "tail", "records": [...]}`` — the
        delta a lagging replica replays.  Otherwise returns
        ``{"mode": "snapshot", "header": ..., "rows": [...]}`` — the
        full state in deterministic snapshot order.
        """
        if self.store is None:
            raise ValueError(
                "replication requires an attached object store"
            )
        from ..durability.snapshot import SNAPSHOT_FORMAT

        with self._store_lock.read():
            records = (
                self.store.journal_since(version) if version is not None else None
            )
            if register is not None:
                register()
            if records is not None:
                return {
                    "mode": "tail",
                    "version": self.store.version,
                    "shard_count": self.store.shard_count,
                    "records": [record.as_dict() for record in records],
                }
            return {
                "mode": "snapshot",
                "version": self.store.version,
                "shard_count": self.store.shard_count,
                "format": SNAPSHOT_FORMAT,
                "header": dict(self.store.snapshot_header()),
                "rows": [
                    (class_name, oid, dict(values))
                    for class_name, oid, values in self.store.snapshot_rows()
                ],
            }

    def apply_replication(self, records) -> int:
        """Apply replicated mutation records on a replica; returns count.

        The replica-side write path: records stream in from the
        primary's feed and replay through the store's ``apply_journal``,
        so shard versions advance like the original writes and every
        shard-granular cache invalidates identically.  Everything after
        the apply is the primary's own commit path (:meth:`_commit_write`).
        """
        self._require_store()
        records = list(records)

        def replay() -> List[int]:
            """Stage 2 of :meth:`_commit_write` (write lock held)."""
            version = self.store.version
            self.store.apply_journal(records)
            return [record.oid for record in records if record.seq > version]

        touched = {record.class_name for record in records}
        return self._commit_write("replicate", replay, touched).applied

    def subscription_registry(self):
        """The lazily-built standing-view registry of this service.

        Replicas host subscriptions too (views are advanced by the
        follower after each applied WAL frame), so the registry lives on
        the service, not on the gateway.
        """
        with self._subscriptions_lock:
            if self.subscriptions is None:
                from ..subscriptions import SubscriptionRegistry

                self.subscriptions = SubscriptionRegistry(self)
            return self.subscriptions

    def adopt_replica_store(self, store) -> None:
        """Swap in a fully resynced replica store (full snapshot resync).

        Used when the primary's journal can no longer bridge this
        replica's version (bounded retention, or a new feed epoch): the
        follower rebuilds a complete store off-lock, and the swap is the
        ``apply`` of one :meth:`_commit_write` touching every class — so
        every tracked class's rules are re-derived and every standing
        view resyncs against the new store, whatever its version.
        """

        def swap() -> List[int]:
            # Executors bind a store; the pump must not meet the old one's.
            self.attach_store(store)
            return []

        self._commit_write("resync", swap)

    def close(self) -> None:
        """Flush the durability layer's pending group commit, if any.

        The service stays usable afterwards.  Also usable as a context
        manager: ``with OptimizationService(...) as service: ...``.
        """
        self.flush_durability()

    def __enter__(self) -> "OptimizationService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _require_store(self) -> None:
        if self.store is None:
            raise ValueError(
                "OptimizationService has no object store attached; pass "
                "store= at construction or call attach_store()"
            )

    def _executor(self, execution_mode, join_strategy: str):
        """An executor of ``execution_mode`` (``None``: the service's) with
        ``join_strategy``, built for the call: the engines hold no state."""
        self._require_store()
        return create_executor(
            self.schema,
            self.store,
            mode=self.execution_mode if execution_mode is None else execution_mode,
            join_strategy=join_strategy,
        )

    def execute(
        self,
        query: Query,
        optimize: bool = True,
        use_cache: bool = True,
        execution_mode=None,
        join_strategy: str = "hash",
    ) -> ExecutionEnvelope:
        """Optimize ``query`` (optionally) and execute it against the store.

        The optimization half reuses :meth:`optimize` (including the result
        cache); the execution half runs on the engine selected by
        ``execution_mode`` (else the service's default).  Every engine
        returns identical rows and cost counters, so the mode only changes
        wall-clock time.
        """
        # One read-lock span covers the optimize half too: dynamic rules
        # derived from store state feed the optimization, so a rule
        # re-derivation (a write) must not land between transforming the
        # query and executing the transformed plan — the plan would encode
        # implications that are no longer true of the data.
        with self._store_lock.read():
            key = self._cache_key(query, use_cache) if optimize else None
            run = self._execute(query, optimize, key, execution_mode, join_strategy)
        self._tuning_feedback(*run)
        return run[0]

    def _execute(
        self, query: Query, optimize, key, execution_mode, join_strategy
    ) -> Tuple[ExecutionEnvelope, Any]:
        """:meth:`execute` under cache ``key``, for a caller holding the store
        lock: optimize (optionally), then :meth:`_run`."""
        envelope, entry = self._optimize_keyed(query, key) if optimize else (None, None)
        return self._run(
            self._executor(execution_mode, join_strategy), query, envelope, entry
        )

    def _run(
        self,
        executor,
        query: Query,
        envelope: Optional[ServiceResult],
        entry: Optional[_CachedRun],
    ) -> Tuple[ExecutionEnvelope, Any]:
        """The one execution body of :meth:`execute` and :meth:`execute_many`,
        for a caller holding the store lock: plan and run the query
        ``envelope`` optimized ``query`` into (``None``: ``query`` itself)
        on ``executor``, then the sampled A/B leg.

        Returns the envelope and, when self-tuning sampled an A/B leg, the
        original query's execution (else ``None``): the arguments of the
        execution's one :meth:`_tuning_feedback` call, made after the lock
        is released.
        """
        target = query if envelope is None else envelope.optimized
        start = time.perf_counter()
        execution = executor.execute_plan(self._plan(executor, target, entry))
        elapsed = time.perf_counter() - start
        baseline = None
        if (
            self._tuning is not None
            and envelope is not None
            and envelope.result.trace.constraints_used()
            and self._tuning.should_sample_ab()
        ):
            # Sampled A/B leg: the *original* query on the same engine,
            # inside the same lock span so both legs observe one store/rule
            # epoch.  Its measured cost is the ground truth the rule-payoff
            # tracker scores rewrites against.
            baseline = executor.execute(query)
        result = ExecutionEnvelope(
            query=query,
            execution=execution,
            execution_mode=executor.mode.value,
            execute_time=elapsed,
            optimization=envelope,
        )
        return result, baseline

    @staticmethod
    def _plan(executor, target: Query, entry: Optional[_CachedRun]):
        """``executor``'s plan of ``target``, which ``entry`` (``None``:
        uncached) was optimized into.

        A plan is a function of the optimized query, the schema, the engine
        and the store's statistics snapshot only (the planner prices with
        default weights), and the store replaces the snapshot on every
        version, so the entry's plan serves while both are the ones it was
        made for; else this plans and replaces it.  The slot holds the
        snapshot weakly: an entry pins no old snapshot, and a dead one
        matches nothing, so its identity is never recycled.
        """
        if entry is None:
            return executor.plan(target)
        statistics = executor.statistics()
        held = entry.plan
        if held is not None and held[0]() is statistics and held[1] is executor.mode:
            return held[2]
        plan = executor.plan(target)
        entry.plan = (weakref.ref(statistics), executor.mode, plan)
        return plan

    def serve_warm(
        self,
        query: Query,
        execute: bool = True,
        optimize: bool = True,
        use_cache: bool = True,
        execution_mode=None,
        join_strategy: str = "hash",
    ):
        """:meth:`execute` (or, with ``execute=False``, :meth:`optimize`) if
        it can run now without waiting or optimizing; else ``None``.

        For a caller that must not block, the gateway's event loop; on
        ``None`` it sends the request where waiting is allowed.  The
        answer is what :meth:`execute` / :meth:`optimize` would return,
        from the same lock-held body, and it is given only when

        * the store lock's shared side is free now
          (:meth:`~repro.caching.ReadWriteLock.try_read`): no writer holds
          it or waits for it, so writer priority and read-your-writes hold;
        * the query's optimization is in the result cache under the current
          epoch (or it executes with ``optimize=False``) — checked without
          counting, so only the real lookup counts its hit;
        * self-tuning is off: its maintenance takes the write lock.
        """
        if self._tuning is not None:
            return None
        with self._store_lock.try_read() as held:
            if not held:
                return None
            key = self._cache_key(query, use_cache)
            if (optimize or not execute) and key not in self._result_cache:
                return None
            if not execute:
                return self._optimize_keyed(query, key)[0]
            return self._execute(
                query, optimize, key, execution_mode, join_strategy
            )[0]

    def execute_many(
        self,
        queries: Iterable[Query],
        optimize: bool = True,
        use_cache: bool = True,
        execution_mode=None,
        join_strategy: str = "hash",
    ) -> ExecutionBatchResult:
        """Optimize (optionally) and execute a batch of queries.

        The optimization half reuses :meth:`optimize_many` (batch dedup,
        result cache).  The execution half runs the batch in order on one
        executor on the calling thread (pure-Python work gains nothing from
        threads under the interpreter lock), through :meth:`execute`'s own
        body (:meth:`_run`) and its one :meth:`_tuning_feedback` call per
        execution, so tuning cadences and A/B sampling count a batch's
        executions exactly as one-at-a-time ones.  Results come back
        aligned with the input order.
        """
        batch = list(queries)
        start = time.perf_counter()
        envelopes: List[Optional[ServiceResult]] = [None] * len(batch)
        entries: List[Optional[_CachedRun]] = [None] * len(batch)
        optimize_time = 0.0
        # The whole batch — optimization included — runs under ONE shared
        # acquisition: writers wait for the batch, and the batch observes a
        # single store/rule epoch.  (One flat acquisition, not one per
        # query: the lock is writer-priority and not reentrant, so nested
        # read acquisitions under a waiting writer would deadlock.)
        with self._store_lock.read():
            if optimize and batch:
                optimized, entries = self._optimize_many(batch, use_cache)
                envelopes = optimized.results
                optimize_time = optimized.stats.wall_time
            executor = self._executor(execution_mode, join_strategy)
            execute_start = time.perf_counter()
            runs = [self._run(executor, *args) for args in zip(batch, envelopes, entries)]
            execute_time = time.perf_counter() - execute_start
        for run in runs:
            self._tuning_feedback(*run)
        stats = ExecutionBatchStats(
            total=len(batch),
            wall_time=time.perf_counter() - start,
            optimize_time=optimize_time,
            execute_time=execute_time,
            execution_mode=executor.mode.value,
        )
        return ExecutionBatchResult(results=[result for result, _ in runs], stats=stats)

    # ------------------------------------------------------------------
    # Self-tuning (auto-indexing, rule payoff)
    # ------------------------------------------------------------------
    def enable_self_tuning(self, config=None):
        """Turn on the measured-feedback loop; returns the manager.

        ``config`` is a :class:`~repro.tuning.TuningConfig` (``None`` =
        defaults: auto-indexing and rule learning both on).  Requires an
        attached store.  When the optimizer has no cost model, one is
        created with the default weights and bound to the store's
        statistics: the A/B leg prices both sides with its
        ``measured_cost``.

        From here on every execution, one-at-a-time or batched, feeds
        the index advisor; index create/drop and rule demotions each bump
        the tuning generation, which rides in every cache epoch, so no
        cached result made under the old tuning state is ever served as
        current.  Index actions commit through :meth:`_commit_write`.
        """
        from ..tuning import SelfTuningManager, TuningConfig

        if self.store is None:
            raise ValueError(
                "self-tuning needs an attached object store; pass store= "
                "at construction or call attach_store()"
            )
        if config is None:
            config = TuningConfig()
        if self.optimizer.cost_model is None:
            from ..engine.cost_model import CostModel as EngineCostModel

            self.optimizer.cost_model = EngineCostModel(
                self.schema, self.store.statistics()
            )
        self.optimizer.cost_model.bind_statistics(self.store.statistics)
        self._tuning = SelfTuningManager(config)
        # Demoted rules sit out of retrieval (a no-op without rule learning).
        self.optimizer.rule_filter = self._rule_filter
        return self._tuning

    def _tuning_feedback(self, result: ExecutionEnvelope, baseline) -> None:
        """Post-execution hook, called once per execution without the store
        lock: observe, score the A/B leg (``baseline``, from :meth:`_run`),
        then run due maintenance."""
        tuning = self._tuning
        if tuning is None:
            return
        tuning.observe_execution(result.query)
        if baseline is not None:
            cost_model = self.optimizer.cost_model
            tuning.observe_ab(
                self._rule_epochs(result.optimization.result.trace.constraints_used()),
                cost_model.measured_cost(result.metrics),
                cost_model.measured_cost(baseline.metrics),
            )
        if tuning.due_advice():
            self._apply_index_advice()

    def _rule_epochs(self, names: Iterable[str]) -> List[Tuple[str, Tuple]]:
        """Each rule paired with its referenced classes' epochs."""
        unique = list(dict.fromkeys(names))
        if self.repository is None:
            return [(name, ()) for name in unique]
        declared = {c.name: c for c in self.repository.declared()}
        rules: List[Tuple[str, Tuple]] = []
        for name in unique:
            constraint = declared.get(name)
            epochs = (
                self.repository.class_epochs(constraint.referenced_classes())
                if constraint is not None
                else ()
            )
            rules.append((name, epochs))
        return rules

    def _apply_index_advice(self) -> None:
        """Create/drop the indexes the advisor's heat justifies.

        Index ops go through the store's journaled write path under the
        exclusive lock — exactly like data writes — so replicas, the WAL
        all converge on the same index set.
        """
        tuning = self._tuning
        store = self.store
        from ..engine.storage import StorageError

        def indexable(class_name: str, attribute_name: str) -> bool:
            try:
                store._index_attribute(class_name, attribute_name)
            except StorageError:
                return False
            return True

        # The advisor heats only pairs of queries that already executed, so
        # ``is_indexed`` and ``count`` are only ever asked of known classes.
        actions = tuning.advise(store.is_indexed, store.count, indexable)
        if not actions:
            return

        def apply_advice() -> List[int]:
            for action in actions:
                try:
                    if action.op == "create":
                        ok = store.create_index(
                            action.class_name, action.attribute_name
                        )
                    else:
                        ok = store.drop_index(
                            action.class_name, action.attribute_name
                        )
                except StorageError:
                    # E.g. stored values failing the index's domain check;
                    # skip — the heat will re-propose or decay.
                    ok = False
                if ok:
                    tuning.index_applied(action)
            return []

        # Index records are logged and replicated like rows, so they take
        # the same commit path; they change no value, so touch no class.
        self._commit_write("index", apply_advice, ())

    # ------------------------------------------------------------------
    # Mutation API (the live write path)
    # ------------------------------------------------------------------
    def enable_dynamic_rules(
        self,
        config: Optional[DerivationConfig] = None,
        class_names: Optional[Iterable[str]] = None,
    ) -> int:
        """Derive state-dependent rules from the store and keep them fresh.

        Registers the rules :mod:`repro.constraints.dynamic` derives from
        the attached store (restricted to ``class_names`` when given) and
        arms the write path: every subsequent :meth:`mutate` touching a
        tracked class re-derives **only that class's** rules and swaps them
        atomically (:meth:`ConstraintRepository.replace_derived`), moving
        only the touched classes' cache epochs.  Returns the number of
        derived rules currently declared.

        Cost: re-derivation reads the value summary the store keeps per
        class (:meth:`~repro.engine.storage.ShardedObjectStore.value_summary`),
        never the extent, so a write costs its row plus work in the distinct
        values of the touched class's attributes under ``max_distinct`` —
        not in the size of the extent (the first read builds the summary).
        """
        if self.store is None:
            raise ValueError(
                "dynamic rules need an attached object store; pass store= "
                "at construction or call attach_store()"
            )
        if self.repository is None:
            raise ValueError("dynamic rules need a constraint repository")
        self._deriver = DynamicRuleDeriver(self.schema, config)
        self._dynamic_classes = (
            set(class_names) if class_names is not None else None
        )
        self._commit_write("rules", lambda: [])
        return sum(
            1
            for constraint in self.repository.declared()
            if constraint.origin is ConstraintOrigin.DERIVED
        )

    def change_rules(self, change):
        """Run ``change()``, an edit of the declared rules; returns its result.

        It is the apply stage of :meth:`_commit_write`: under the write
        lock, a rule never lands between the optimize and execute halves
        of an :meth:`execute`.  No stored value moves, so nothing is
        logged, replicated or re-derived; any view's plan may use the
        rule, so every view is flagged.
        """
        outcome = []

        def apply() -> List[int]:
            """Stage 2 of :meth:`_commit_write` (write lock held)."""
            outcome.append(change())
            if self.subscriptions is not None:
                self.subscriptions.note_rule_churn()
            return []

        self._commit_write("rules", apply, ())
        return outcome[0]

    def _refresh_dynamic_rules(self, touched: Iterable[str]) -> Tuple[int, bool]:
        """Re-derive the dynamic rules of the tracked ``touched`` classes.

        Write lock held.  Returns ``(classes refreshed, declared set
        changed)``.  Each class is re-derived independently and swapped
        through :meth:`ConstraintRepository.replace_derived`, which
        detects no-op swaps — a write that does not move any observed
        bound leaves the generation (and with it every warm cache)
        untouched.
        """
        if self.repository is None or self._deriver is None:
            return 0, False
        classes = set(touched)
        if self._dynamic_classes is not None:
            classes &= self._dynamic_classes
        if not classes:
            return 0, False
        changed = False
        for class_name in sorted(classes):
            declared = self.repository.declared()
            replaced = {
                c.name
                for c in declared
                if c.origin is ConstraintOrigin.DERIVED
                and class_name in c.referenced_classes()
            }
            taken = {c.name for c in declared} - replaced
            rules = self._deriver.derive(
                self.store, class_names=[class_name], existing_names=taken
            )
            changed |= self.repository.replace_derived([class_name], rules)
        return len(classes), changed

    def mutate(
        self,
        op: str,
        class_name: str,
        oid: Optional[int] = None,
        values: Optional[Dict] = None,
        rows: Optional[Sequence[Dict]] = None,
    ) -> MutationResult:
        """Apply one write (or an ``insert_many`` batch) to the store.

        ``op`` is ``"insert"`` (``values``), ``"update"`` (``oid`` +
        ``values``), ``"delete"`` (``oid``) or ``"insert_many"``
        (``rows``; all of them or none, see :meth:`mutate_many`).  The
        write is applied under the exclusive side of the store lock, bumps
        only the touched shards' version counters, and — when dynamic
        rules are enabled — re-derives the rules of exactly the touched
        classes.  See :class:`MutationResult` for the reported
        invalidation footprint.
        """
        if op == "insert_many":
            specs = [
                {"op": "insert", "class_name": class_name, "values": row}
                for row in (rows if rows is not None else [])
            ]
            if not specs:
                raise ValueError("insert_many requires a non-empty 'rows' list")
        else:
            specs = [
                {
                    "op": op,
                    "class_name": class_name,
                    "oid": oid,
                    "values": values,
                }
            ]
        return self.mutate_many(specs, op_label=op)

    def mutate_many(
        self,
        mutations: Iterable[Dict],
        op_label: str = "batch",
    ) -> MutationResult:
        """Apply a sequence of writes: all of them, or none.

        Each mutation is a mapping with keys ``op`` (``insert`` /
        ``update`` / ``delete``), ``class_name`` (alias ``class``), and
        ``oid`` / ``values`` as the op requires.  The whole batch is
        checked against the store (and against its own earlier deletes)
        before the first op is applied, so a batch holding one bad op
        raises :class:`~repro.engine.storage.StorageError` and changes
        nothing — no row, no version, no WAL frame, no replica, no rule,
        no standing view.  An accepted batch runs under one exclusive
        lock acquisition (:meth:`_commit_write`), so no query execution
        ever observes part of it.
        """
        self._require_store()
        specs = [self._normalize_mutation(m) for m in mutations]

        def validate() -> None:
            gone: set = set()
            for op, class_name, oid, values in specs:
                self.store.check(op, class_name, oid, values, gone)
                if op == "delete":
                    gone.add((class_name, oid))

        def apply() -> List[int]:
            """Stage 2 of :meth:`_commit_write` (write lock held)."""
            return [self.store.apply(*spec) for spec in specs]

        touched = {class_name for _op, class_name, _oid, _values in specs}
        return self._commit_write(op_label, apply, touched, validate)

    def _commit_write(
        self, op_label: str, apply, touched=None, validate=None
    ) -> MutationResult:
        """The one commit path: what any change to the served store causes.

        Every writer drives these stages, in this order, the first six
        under one exclusive-lock span:

        1. ``validate()`` the whole batch — a refusal raises here, before
           anything has changed;
        2. ``apply()`` — the writes (primary), ``apply_journal``
           (replica), a store swap (resync), a declared-rule edit
           (:meth:`change_rules`, which flags every view itself), a
           self-tuning index action, or nothing (boot);
           returns the OIDs written;
        3. WAL commit: flush, fsync per policy, snapshot if due;
        4. publish the batch's records to the replication feed — after 3,
           so a frame is on local disk before any replica can see it;
        5. re-derive the dynamic rules of the ``touched`` classes
           (``None`` = every class: the store itself changed hands);
        6. flag the standing views those rules (or that swap) invalidate;
        7. release the lock, then pump the standing views — after 3, so a
           diff frame is only ever pushed for a durable write;
        8. the :class:`MutationResult`.

        Stages 3–6 sit in a ``finally``: not a contract, a safety net —
        should ``apply`` raise half-way (a bug; bad input is stage 1's),
        store, WAL, replicas and rules still must not disagree.
        """
        start = time.perf_counter()
        oids: List[int] = []
        durability: Optional[Dict] = None
        refreshed, changed = 0, False
        with self._store_lock.write():
            if validate is not None:
                validate()
            try:
                oids = apply()
            finally:
                if self._durability is not None:
                    durability = self._durability.commit()
                if self._replication is not None:
                    self._replication.publish()
                refreshed, changed = self._refresh_dynamic_rules(
                    self.schema.class_names() if touched is None else touched
                )
                if self.subscriptions is not None and (changed or touched is None):
                    self.subscriptions.note_rule_churn(touched)
            self._mutations_applied += len(oids)
            store_version = self.store.version
            shard_versions = self.store.shard_versions()
        if self.subscriptions is not None and self.subscriptions.active:
            self.subscriptions.pump()
        return MutationResult(
            op=op_label,
            classes=tuple(sorted(touched or ())),
            oids=tuple(oids),
            applied=len(oids),
            shards=tuple(sorted({self.store.shard_of(oid) for oid in oids})),
            store_version=store_version,
            shard_versions=shard_versions,
            rules_refreshed=refreshed,
            rules_changed=changed,
            generation=(
                self.repository.generation if self.repository is not None else 0
            ),
            mutate_time=time.perf_counter() - start,
            durability=durability,
        )

    @staticmethod
    def _normalize_mutation(mutation: Dict) -> Tuple[str, str, Optional[int], Optional[Dict]]:
        """Validate one mutation mapping into an ``(op, class, oid, values)`` spec."""
        op = mutation.get("op")
        if op not in ("insert", "update", "delete"):
            raise ValueError(
                f"unknown mutation op {op!r} (choose from: insert, update, delete)"
            )
        class_name = mutation.get("class_name") or mutation.get("class")
        if not isinstance(class_name, str) or not class_name:
            raise ValueError("mutation requires a non-empty 'class_name'")
        oid = mutation.get("oid")
        values = mutation.get("values")
        if op in ("update", "delete"):
            if not isinstance(oid, int) or isinstance(oid, bool) or oid < 1:
                raise ValueError(f"mutation op {op!r} requires an integer 'oid' >= 1")
        if op in ("insert", "update"):
            if values is None:
                values = {}
            if not isinstance(values, dict):
                raise ValueError(f"mutation op {op!r} requires a 'values' object")
        return op, class_name, oid, values

    # ------------------------------------------------------------------
    # Batch API
    # ------------------------------------------------------------------
    def optimize_many(
        self,
        queries: Iterable[Query],
        use_cache: bool = True,
    ) -> BatchResult:
        """Optimize a batch of queries.

        Structurally-equal queries in the batch are optimized once and the
        result shared (the duplicates' envelopes are marked
        ``BATCH_DEDUP``).  Results always come back aligned with the input
        order.  Holds the shared side of the store lock for the whole
        batch, as :meth:`optimize` does for one query, so every query sees
        one rule set; the repository compiles it lazily, on the batch's
        first cache miss, so a batch whose every query hits compiles
        nothing.
        """
        with self._store_lock.read():
            return self._optimize_many(list(queries), use_cache)[0]

    def _optimize_many(self, batch: List[Query], use_cache: bool):
        """:meth:`optimize_many` for a caller that holds the store lock, and
        each query's cache entry (see :meth:`_optimize_keyed`)."""
        start = time.perf_counter()
        caching = use_cache and self._result_cache.maxsize > 0
        unique_queries: List[Query] = []
        unique_keys: List[Tuple] = []
        slot_of_key: Dict[Tuple, int] = {}
        slots: List[int] = []  # input index -> unique-query slot
        for query in batch:
            key = equivalence_key(query)
            slot = slot_of_key.get(key)
            if slot is None:
                slot = len(unique_queries)
                slot_of_key[key] = slot
                unique_queries.append(query)
                unique_keys.append(key)
            slots.append(slot)

        unique_runs = [
            self._optimize_keyed(
                query, (key, self._cache_epoch(query)) if caching else None
            )
            for query, key in zip(unique_queries, unique_keys)
        ]
        unique_results = [envelope for envelope, _ in unique_runs]

        envelopes: List[ServiceResult] = []
        first_use = [True] * len(unique_results)
        for index, slot in enumerate(slots):
            primary = unique_results[slot]
            if first_use[slot]:
                first_use[slot] = False
                envelopes.append(replace(primary, query=batch[index]))
            else:
                self._record_access(batch[index])
                envelopes.append(
                    replace(
                        primary,
                        query=batch[index],
                        result=replace(primary.result, original=batch[index]),
                        source=ResultSource.BATCH_DEDUP,
                        service_time=0.0,
                    )
                )

        stats = BatchStats(
            total=len(batch),
            unique=len(unique_queries),
            computed=sum(
                1 for r in unique_results if r.source is ResultSource.COMPUTED
            ),
            result_cache_hits=sum(
                1 for r in unique_results if r.source is ResultSource.RESULT_CACHE
            ),
            wall_time=time.perf_counter() - start,
        )
        return BatchResult(
            results=envelopes, stats=stats, cache=self.cache_stats()
        ), [unique_runs[slot][1] for slot in slots]
