"""Result envelopes returned by the optimization service.

The service wraps every :class:`~repro.core.optimizer.OptimizationResult`
in a :class:`ServiceResult` that additionally records where the result came
from (computed fresh, served from the result cache, or deduplicated within
a batch) and how long the service spent on the call.  Batch calls return a
:class:`BatchResult` aligning one envelope with each input query plus
aggregate statistics, so experiments and the CLI report timings and cache
behaviour uniformly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from ..caching import SingleFlightStats
from ..core.optimizer import OptimizationResult, PhaseTimings
from ..core.trace import OptimizationTrace
from ..query.query import Query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.executor import ExecutionMetrics, ExecutionResult


class ResultSource(enum.Enum):
    """Where a :class:`ServiceResult` came from."""

    #: The full four-phase pipeline ran for this query.
    COMPUTED = "computed"
    #: Served from the service's keyed result cache (no pipeline work).
    RESULT_CACHE = "result_cache"
    #: Shared the result of a structurally-equal query in the same batch.
    BATCH_DEDUP = "batch_dedup"


@dataclass(frozen=True)
class ServiceCacheSnapshot:
    """Point-in-time counters of the service's caches.

    ``result_*`` counts lookups in the service-level optimization-result
    cache; ``retrieval_*`` and ``closure_*`` mirror the repository's
    :class:`~repro.constraints.repository.RepositoryCacheStats`.
    """

    result_hits: int = 0
    result_misses: int = 0
    result_entries: int = 0
    result_evictions: int = 0
    result_maxsize: int = 0
    retrieval_hits: int = 0
    retrieval_misses: int = 0
    closure_hits: int = 0
    closure_misses: int = 0

    @property
    def result_lookups(self) -> int:
        """Total result-cache lookups."""
        return self.result_hits + self.result_misses

    @property
    def result_hit_rate(self) -> float:
        """Fraction of result lookups served from cache (0.0 if none)."""
        lookups = self.result_lookups
        return self.result_hits / lookups if lookups else 0.0

    def describe(self) -> str:
        """One-line human-readable cache summary."""
        return (
            f"result cache {self.result_hits}/{self.result_lookups} hits, "
            f"retrieval cache {self.retrieval_hits}/"
            f"{self.retrieval_hits + self.retrieval_misses} hits, "
            f"closure cache {self.closure_hits}/"
            f"{self.closure_hits + self.closure_misses} hits"
        )


@dataclass(frozen=True)
class ServiceStats:
    """One immutable, internally consistent view of the whole service.

    Returned by :meth:`~repro.service.OptimizationService.stats` and
    serialized verbatim by the gateway's ``stats`` RPC.  Every constituent
    counter group is read atomically under its own lock (the result cache,
    the repository caches, the single-flight map), so a snapshot taken
    under full concurrent load never shows torn counters — e.g. a hit
    without its lookup, or a follower without its leader.
    """

    #: Result/retrieval/closure cache counters.
    cache: ServiceCacheSnapshot = field(default_factory=ServiceCacheSnapshot)
    #: In-flight deduplication counters (leaders, followers, in flight).
    single_flight: SingleFlightStats = field(default_factory=SingleFlightStats)
    #: Repository generation the counters were read at (bumped by every
    #: constraint add/remove; cache keys embed it).
    repository_generation: int = 0
    #: Number of declared (pre-closure) constraints.
    repository_constraints: int = 0
    #: Whether an object store is attached (``execute`` is available).
    store_attached: bool = False
    #: The attached store's mutation counter (0 without a store).
    store_version: int = 0
    #: Writes applied through the service's mutation path since startup.
    mutations_applied: int = 0
    #: Durability-layer counters when a WAL is attached (``None``
    #: otherwise): data dir, fsync policy, WAL frame/commit/fsync
    #: counts and the snapshot base version.
    durability: Optional[Dict[str, Any]] = None
    #: Self-tuning counters when the feedback loop is on (``None``
    #: otherwise): component switches, tuning generation, executions
    #: observed, index-advisor heat and managed indexes, rule-payoff
    #: evidence and the demoted-rule set.
    tuning: Optional[Dict[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the payload of the ``stats`` RPC)."""
        payload = {
            "cache": {
                "result_hits": self.cache.result_hits,
                "result_misses": self.cache.result_misses,
                "result_entries": self.cache.result_entries,
                "result_evictions": self.cache.result_evictions,
                "result_maxsize": self.cache.result_maxsize,
                "result_hit_rate": self.cache.result_hit_rate,
                "retrieval_hits": self.cache.retrieval_hits,
                "retrieval_misses": self.cache.retrieval_misses,
                "closure_hits": self.cache.closure_hits,
                "closure_misses": self.cache.closure_misses,
            },
            "single_flight": {
                "leaders": self.single_flight.leaders,
                "followers": self.single_flight.followers,
                "in_flight": self.single_flight.in_flight,
                "dedup_rate": self.single_flight.dedup_rate,
            },
            "repository": {
                "generation": self.repository_generation,
                "constraints": self.repository_constraints,
            },
            "store_attached": self.store_attached,
            "store_version": self.store_version,
            "mutations_applied": self.mutations_applied,
        }
        if self.durability is not None:
            payload["durability"] = dict(self.durability)
        if self.tuning is not None:
            payload["tuning"] = dict(self.tuning)
        return payload


@dataclass
class ServiceResult:
    """One optimized query as returned by the service.

    Cache-hit and batch-dedup envelopes share the producing run's
    ``OptimizationResult`` internals (trace, predicate tags, lists) rather
    than deep-copying them; treat the result as read-only, since mutating
    it would corrupt every future hit for the same structural key.
    """

    query: Query
    result: OptimizationResult
    source: ResultSource = ResultSource.COMPUTED
    service_time: float = 0.0

    @property
    def cache_hit(self) -> bool:
        """Whether the pipeline was skipped for this query."""
        return self.source is not ResultSource.COMPUTED

    @property
    def optimized(self) -> Query:
        """The transformed query."""
        return self.result.optimized

    @property
    def timings(self) -> PhaseTimings:
        """Per-phase timings of the (possibly cached) underlying run."""
        return self.result.timings

    @property
    def trace(self) -> OptimizationTrace:
        """The optimization trace of the underlying run."""
        return self.result.trace

    def summary(self) -> str:
        """One-line summary including the result's provenance."""
        return f"[{self.source.value}] {self.result.summary()}"


@dataclass
class ExecutionEnvelope:
    """An optimized *and executed* query, as returned by service execution.

    Bundles the optimization envelope (``None`` when the caller asked for
    raw execution of the query as written) with the execution result of the
    chosen engine, so a server handler gets answer rows, cost counters,
    provenance and timings from one call.  The rows are the query's
    projection — exactly the projected attributes, in projection-list order.

    >>> from repro.constraints import ConstraintRepository, build_example_constraints
    >>> from repro.data import DatabaseGenerator, DatabaseSpec
    >>> from repro.query import parse_query
    >>> from repro.schema import build_example_schema
    >>> from repro.service import OptimizationService
    >>> schema = build_example_schema()
    >>> constraints = build_example_constraints()
    >>> repository = ConstraintRepository(schema)
    >>> repository.add_all(constraints)
    >>> database = DatabaseGenerator(schema, constraints, seed=7).generate(
    ...     DatabaseSpec("demo", class_cardinality=20, relationship_cardinality=30))
    >>> service = OptimizationService(
    ...     schema, repository=repository, store=database.store)
    >>> envelope = service.execute(parse_query(
    ...     '(SELECT {cargo.desc} { } {vehicle.desc = "refrigerated truck"} '
    ...     '{collects} {cargo, vehicle})'), execution_mode="rowwise")
    >>> envelope.execution_mode
    'rowwise'
    >>> envelope.optimization.source.value
    'computed'
    >>> envelope.rows == envelope.execution.rows
    True
    >>> {tuple(row) for row in envelope.rows}
    {('cargo.desc',)}
    """

    query: Query
    execution: "ExecutionResult"
    execution_mode: str
    execute_time: float = 0.0
    optimization: Optional[ServiceResult] = None

    @property
    def executed_query(self) -> Query:
        """The query that was actually executed (optimized when available)."""
        if self.optimization is not None:
            return self.optimization.optimized
        return self.query

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """The answer rows: one per result binding, each the projection list.

        What the engine built is what the wire ships — the gateway's
        ``execute`` payload and a standing view's diff stream carry these
        rows unchanged.
        """
        return self.execution.rows

    @property
    def metrics(self) -> "ExecutionMetrics":
        """The engine's primitive-operation counters."""
        return self.execution.metrics

    def summary(self) -> str:
        """One-line human-readable execution summary."""
        prefix = (
            f"[{self.optimization.source.value}] "
            if self.optimization is not None
            else "[unoptimized] "
        )
        return (
            f"{prefix}{self.execution.row_count} rows via "
            f"{self.execution_mode} engine in "
            f"{self.execute_time * 1000:.2f} ms"
        )


@dataclass(frozen=True)
class MutationResult:
    """Outcome of one service-level write (single mutation or batch).

    Returned by :meth:`~repro.service.OptimizationService.mutate` /
    :meth:`~repro.service.OptimizationService.mutate_many` and serialized
    by the gateway's mutation RPCs.  Beyond the write itself it reports the
    *invalidation footprint*: which shards were touched (only their version
    counters moved), whether any dynamic rules were re-derived, and the
    repository generation afterwards — the numbers a client needs to
    reason about cache effects of its write.
    """

    #: The requested operation (``insert``/``update``/``delete``/
    #: ``insert_many``/``batch``).
    op: str
    #: Classes the write touched.
    classes: Tuple[str, ...] = ()
    #: OIDs written, in application order (new OIDs for inserts).
    oids: Tuple[int, ...] = ()
    #: Number of individual mutations applied.
    applied: int = 0
    #: Shards whose version counter moved.
    shards: Tuple[int, ...] = ()
    #: Global store version after the write.
    store_version: int = 0
    #: Per-shard version counters after the write.
    shard_versions: Tuple[int, ...] = ()
    #: Dynamic-rule classes re-derived because this write touched them.
    rules_refreshed: int = 0
    #: Whether the re-derivation actually changed the declared rule set
    #: (``False`` means every optimization cache stayed warm).
    rules_changed: bool = False
    #: Repository generation after the write.
    generation: int = 0
    #: Wall-clock seconds spent applying the write (rule refresh included).
    mutate_time: float = 0.0
    #: Durability metadata when the service runs with a WAL (``None``
    #: otherwise): whether this batch's frames were fsynced, how many
    #: commits still ride on the next group fsync, the WAL frame count
    #: and the snapshot base version.
    durability: Optional[Dict[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the payload of the mutation RPCs)."""
        payload = {
            "op": self.op,
            "classes": list(self.classes),
            "oids": list(self.oids),
            "applied": self.applied,
            "shards": list(self.shards),
            "store_version": self.store_version,
            "shard_versions": list(self.shard_versions),
            "rules_refreshed": self.rules_refreshed,
            "rules_changed": self.rules_changed,
            "generation": self.generation,
            "mutate_time": self.mutate_time,
        }
        if self.durability is not None:
            payload["durability"] = dict(self.durability)
        return payload

    def summary(self) -> str:
        """One-line human-readable mutation summary."""
        return (
            f"{self.op}: {self.applied} write(s) on "
            f"{', '.join(self.classes) or '-'} touching shard(s) "
            f"{list(self.shards)} in {self.mutate_time * 1000:.2f} ms "
            f"(rules {'changed' if self.rules_changed else 'unchanged'})"
        )


@dataclass
class ExecutionBatchStats:
    """Aggregate statistics of one :meth:`execute_many` call."""

    total: int = 0
    wall_time: float = 0.0
    optimize_time: float = 0.0
    execute_time: float = 0.0
    execution_mode: str = ""

    @property
    def throughput(self) -> float:
        """Executed queries per second over the batch (0.0 when empty)."""
        return self.total / self.wall_time if self.wall_time > 0 else 0.0


@dataclass
class ExecutionBatchResult:
    """Execution envelopes for a whole batch, aligned with the input order."""

    results: List[ExecutionEnvelope] = field(default_factory=list)
    stats: ExecutionBatchStats = field(default_factory=ExecutionBatchStats)

    def total_rows(self) -> int:
        """Total answer rows across the batch."""
        return sum(envelope.execution.row_count for envelope in self.results)

    def summary(self) -> str:
        """One-line human-readable batch summary."""
        return (
            f"{self.stats.total} queries executed via "
            f"{self.stats.execution_mode} engine in "
            f"{self.stats.wall_time * 1000:.2f} ms "
            f"({self.stats.throughput:.0f} q/s, {self.total_rows()} rows)"
        )

    def __iter__(self) -> Iterator[ExecutionEnvelope]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> ExecutionEnvelope:
        return self.results[index]


@dataclass
class BatchStats:
    """Aggregate statistics of one :meth:`optimize_many` call."""

    total: int = 0
    unique: int = 0
    computed: int = 0
    result_cache_hits: int = 0
    wall_time: float = 0.0

    @property
    def duplicates(self) -> int:
        """Queries answered by batch-level deduplication."""
        return self.total - self.unique

    @property
    def mean_time(self) -> float:
        """Mean wall-clock time per query in the batch."""
        return self.wall_time / self.total if self.total else 0.0

    @property
    def throughput(self) -> float:
        """Queries per second over the batch (0.0 for an empty batch)."""
        return self.total / self.wall_time if self.wall_time > 0 else 0.0


@dataclass
class BatchResult:
    """Envelopes for a whole batch, aligned with the input query order."""

    results: List[ServiceResult] = field(default_factory=list)
    stats: BatchStats = field(default_factory=BatchStats)
    cache: ServiceCacheSnapshot = field(default_factory=ServiceCacheSnapshot)

    def optimized_queries(self) -> List[Query]:
        """The transformed queries, one per input query."""
        return [envelope.optimized for envelope in self.results]

    def phase_totals(self) -> PhaseTimings:
        """Summed per-phase timings over the batch's *computed* results.

        Cached and deduplicated envelopes re-expose the timings of the run
        that produced them, so only freshly computed results are summed.
        """
        totals = PhaseTimings()
        for envelope in self.results:
            if envelope.source is not ResultSource.COMPUTED:
                continue
            totals.retrieval += envelope.timings.retrieval
            totals.initialization += envelope.timings.initialization
            totals.transformation += envelope.timings.transformation
            totals.formulation += envelope.timings.formulation
        return totals

    def sources(self) -> Dict[str, int]:
        """Histogram of result provenance over the batch."""
        counts: Dict[str, int] = {}
        for envelope in self.results:
            counts[envelope.source.value] = counts.get(envelope.source.value, 0) + 1
        return counts

    def summary(self) -> str:
        """One-line human-readable batch summary."""
        return (
            f"{self.stats.total} queries ({self.stats.unique} unique) in "
            f"{self.stats.wall_time * 1000:.2f} ms "
            f"({self.stats.throughput:.0f} q/s) — {self.cache.describe()}"
        )

    def __iter__(self) -> Iterator[ServiceResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> ServiceResult:
        return self.results[index]
