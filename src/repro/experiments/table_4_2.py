"""Experiment: Table 4.2 — ratio of optimized cost to original cost.

The paper's Table 4.2 buckets, for each database instance DB1–DB4, the ratio
``cost(optimized query, including query transformation time) /
cost(original query)`` of the 40 test queries into 10 %-wide buckets from
0 % to 110 %.  The headline observations are:

* on the smallest database (DB1) optimization is often not worth it — 40 %
  of the queries got *slower*, though never by more than about 10 %,
  because the transformation overhead outweighs the small savings;
* on the largest database (DB4) 67 % of the queries ran faster, 27 % of them
  dramatically so (queries that originally "took hours ... were able to be
  executed much faster").

This harness reproduces the measurement on our substrate.  The same 40-query
workload is executed against every generated database instance; the cost of
a query is the executor's weighted operation count
(:meth:`repro.engine.cost_model.CostModel.measured_cost`), and the
transformation overhead is added to the optimized cost after converting
wall-clock seconds into cost units with a hardware calibration factor
(:data:`DEFAULT_OVERHEAD_UNITS_PER_SECOND`) — our machine optimizes in
fractions of a millisecond where the paper's SUN-3/160 needed a large
fraction of a second, so the raw wall-clock would make the overhead
invisible and the DB1 row meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..core.optimizer import OptimizerConfig
from ..data import evaluation
from ..data.generator import TABLE_4_1_SPECS, DatabaseGenerator, DatabaseSpec
from ..data.workload import constraint_selection_pool
from ..engine.cost_model import CostModel
from ..engine.modes import ExecutionMode, create_executor
from ..constraints.repository import ConstraintRepository
from ..query.equivalence import answers_match
from ..query.generator import GeneratorConfig, QueryGenerator
from ..query.query import Query
from ..service import OptimizationService, ServiceCacheSnapshot
from .reporting import format_table, percentage

#: Conversion from transformation wall-clock seconds to cost units when the
#: overhead is added to the optimized cost.  Calibration: in the paper the
#: transformation step (up to ~0.4 s on a 1991 SUN-3/160) cost roughly
#: 10–30 % of a DB1 query's execution time (1–2 s), which is what produces
#: the 100–110 % bucket of Table 4.2.  On our substrate a DB1 query costs on
#: the order of a few hundred cost units (nested-loop execution) and the
#: transformation step takes ~0.15–0.3 ms, so 300 000 units/second puts the
#: overhead in the same 10–30 % band for a typical DB1 query while remaining
#: marginal for the much more expensive DB4 queries — i.e. the calibration
#: preserves the paper's *relative* overhead, which is what Table 4.2 is
#: about.  The factor moves against the optimizer's own speed: it was
#: 200 000 while a transformation took ~0.2–0.4 ms, before formulation
#: priced a query once.  Pass ``overhead_units_per_second=0`` for pure
#: execution ratios.
DEFAULT_OVERHEAD_UNITS_PER_SECOND = 300_000.0

#: Bucket labels of the paper's Table 4.2 (upper bound of each 10% bucket).
BUCKET_LABELS = [f"{low}%" for low in range(0, 120, 10)]

#: The paper's qualitative summary of Table 4.2, used in reports.
PAPER_SUMMARY = {
    "DB1": "40% of queries slower (by <= ~10%), 34% faster",
    "DB4": "67% of queries faster, 27% dramatically",
}


@dataclass
class QueryCostRecord:
    """Cost measurement for one query on one database instance."""

    query_name: str
    original_cost: float
    optimized_cost: float
    transformation_overhead: float
    ratio: float
    was_transformed: bool
    answers_agree: bool


@dataclass
class Table42Row:
    """The Table 4.2 row for one database instance."""

    database: str
    records: List[QueryCostRecord] = field(default_factory=list)
    cache: Optional[ServiceCacheSnapshot] = None

    def ratios(self) -> List[float]:
        """All cost ratios of the row."""
        return [record.ratio for record in self.records]

    def buckets(self) -> Dict[str, int]:
        """Histogram of ratios into the paper's 10%-wide buckets."""
        counts = {label: 0 for label in BUCKET_LABELS}
        for ratio in self.ratios():
            bucket_index = min(int(ratio * 100) // 10, len(BUCKET_LABELS) - 1)
            counts[BUCKET_LABELS[bucket_index]] += 1
        return counts

    @property
    def faster(self) -> int:
        """Queries that got cheaper after optimization (ratio < 1)."""
        return sum(1 for r in self.ratios() if r < 0.999)

    @property
    def much_faster(self) -> int:
        """Queries at half the original cost or better."""
        return sum(1 for r in self.ratios() if r <= 0.5)

    @property
    def slower(self) -> int:
        """Queries that got more expensive (ratio > 1)."""
        return sum(1 for r in self.ratios() if r > 1.001)

    @property
    def all_answers_agree(self) -> bool:
        """Whether every optimized query returned the original answer."""
        return all(record.answers_agree for record in self.records)


@dataclass
class Table42Result:
    """Table 4.2 rows for every database instance."""

    rows: Dict[str, Table42Row] = field(default_factory=dict)
    overhead_units_per_second: float = DEFAULT_OVERHEAD_UNITS_PER_SECOND

    def as_table(self) -> str:
        """Aligned text rendering of the bucket histogram per database."""
        headers = ["database"] + BUCKET_LABELS + ["faster", "slower", "<=50%"]
        table_rows = []
        for name in sorted(self.rows):
            row = self.rows[name]
            buckets = row.buckets()
            table_rows.append(
                [name]
                + [buckets[label] for label in BUCKET_LABELS]
                + [
                    f"{percentage(row.faster, len(row.records)):.0f}%",
                    f"{percentage(row.slower, len(row.records)):.0f}%",
                    f"{percentage(row.much_faster, len(row.records)):.0f}%",
                ]
            )
        return format_table(headers, table_rows)


def _build_shared_workload(
    schema, constraints, query_count: int, seed: int
) -> List[Query]:
    """One workload reused for every database instance, as in the paper.

    The value catalog is taken from the largest instance (DB4) so that the
    predicate constants exist in the data; the same distributions drive all
    four instances, so the constants are representative everywhere.
    """
    catalog_db = DatabaseGenerator(schema, constraints, seed=seed).generate(
        TABLE_4_1_SPECS["DB4"]
    )
    generator = QueryGenerator(
        schema,
        value_catalog=catalog_db.value_catalog,
        # The paper's hand-formulated queries select on the application
        # domain values its constraints describe; bias ours the same way.
        config=GeneratorConfig(preferred_bias=0.7),
        seed=seed,
        preferred_predicates=constraint_selection_pool(constraints),
    )
    return generator.generate_workload(count=query_count)


def run_table_4_2(
    specs: Optional[Mapping[str, DatabaseSpec]] = None,
    query_count: int = 40,
    seed: int = 7,
    overhead_units_per_second: float = DEFAULT_OVERHEAD_UNITS_PER_SECOND,
    check_answers: bool = True,
    queries: Optional[Sequence[Query]] = None,
    execution_mode: Optional[ExecutionMode] = None,
    shard_count: int = 1,
) -> Table42Result:
    """Reproduce Table 4.2.

    Parameters
    ----------
    specs:
        Database instances to measure (defaults to the paper's DB1–DB4).
    query_count, seed:
        Workload parameters (40 queries, fixed seed).
    overhead_units_per_second:
        Calibration factor converting transformation seconds to cost units.
        Pass 0 to report pure execution-cost ratios without overhead.
    check_answers:
        Also execute an answer-equivalence check per query (slower but
        asserts the optimizer never changed an answer).
    queries:
        Optional explicit workload overriding the generated one.
    execution_mode:
        Which engine executes the workload (``None`` = vectorized).
        The engines report identical cost counters — the golden-snapshot
        tests pin this — so the mode changes the experiment's wall-clock
        time, never its numbers.
    shard_count:
        Hash-partition the generated stores into this many shards.  The
        generated data and the measured counters are identical for every
        shard count.
    """
    specs = dict(specs or TABLE_4_1_SPECS)
    schema = evaluation.build_evaluation_schema()
    constraints = evaluation.build_evaluation_constraints()
    workload = (
        list(queries)
        if queries is not None
        else _build_shared_workload(schema, constraints, query_count, seed)
    )

    result = Table42Result(overhead_units_per_second=overhead_units_per_second)
    data_generator = DatabaseGenerator(schema, constraints, seed=seed)
    for name in sorted(specs):
        database = data_generator.generate(specs[name], shard_count=shard_count)
        statistics = database.store.statistics()
        cost_model = CostModel(schema, statistics)
        repository = ConstraintRepository(schema)
        repository.add_all(constraints)
        repository.precompile()
        # The service shares the precompiled repository snapshot across the
        # workload; its retrieval cache serves queries over repeated class
        # sets, which is exactly the high-throughput path a server would use.
        service = OptimizationService(
            schema,
            repository=repository,
            cost_model=cost_model,
            config=OptimizerConfig(record_access_statistics=False),
        )
        # The nested-loop strategy models the relational DBMS the paper used
        # to measure cost ratios (execution cost grows super-linearly with
        # database size, so DB4 wins are large and DB1 overhead is visible).
        executor = create_executor(
            schema,
            database.store,
            mode=execution_mode,
            join_strategy="nested_loop",
        )

        row = Table42Row(database=name)
        for query in workload:
            # use_cache=False: each query's transformation overhead feeds
            # the cost ratio, so it must be measured, not replayed from a
            # structural twin's cached run (same reasoning as Figure 4.1).
            outcome = service.optimize(query, use_cache=False).result
            original_cost = cost_model.measured_cost(executor.execute(query).metrics)
            optimized_cost = cost_model.measured_cost(
                executor.execute(outcome.optimized).metrics
            )
            overhead = (
                outcome.timings.transformation_only * overhead_units_per_second
            )
            ratio = (
                (optimized_cost + overhead) / original_cost
                if original_cost > 0
                else 1.0
            )
            agree = True
            if check_answers:
                agree = answers_match(
                    schema,
                    database.store,
                    query,
                    outcome.optimized,
                    execution_mode=execution_mode,
                )
            row.records.append(
                QueryCostRecord(
                    query_name=query.name or "",
                    original_cost=original_cost,
                    optimized_cost=optimized_cost,
                    transformation_overhead=overhead,
                    ratio=ratio,
                    was_transformed=outcome.was_transformed,
                    answers_agree=agree,
                )
            )
        row.cache = service.cache_stats()
        result.rows[name] = row
    return result
