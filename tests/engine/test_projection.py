"""The answer is the projection: one row builder, three engines, one oracle.

``ExecutionResult.rows`` holds exactly the plan's projection list, in list
order, one row per binding.  The oracle here computes that projection *in
the test* from the same query run with an empty projection list — the
full-width row every bound class contributes to, which is what the engines
returned before projection became an operator — and demands the engines'
rows equal it row for row and in order, on DB1-DB4, for seeded queries and
their optimized forms, under all three engines and both join strategies.

A second test pins the inputs of the spine's ``cost_ratio``: the row count
and every :class:`~repro.engine.ExecutionMetrics` counter of the 39
``gateway_read`` queries, as a digest recorded at the parent commit.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.data import TABLE_4_1_SPECS, build_evaluation_setup, build_workload
from repro.engine import (
    ConventionalPlanner,
    ParallelExecutor,
    QueryExecutor,
    VectorizedExecutor,
)
from repro.query import equivalence_key, parse_query
from repro.service import OptimizationService

#: Seeded queries per database (each also runs in its optimized form).
QUERIES_PER_DATABASE = 20


def _engines(setup, join_strategy):
    schema, store = setup.schema, setup.store
    return [
        QueryExecutor(schema, store, join_strategy=join_strategy),
        VectorizedExecutor(schema, store, join_strategy=join_strategy),
        # min_partition_rows=1 forces the fan-out path, so the shard merge
        # builds the rows, not the inline fallback.
        ParallelExecutor(
            schema,
            store,
            join_strategy=join_strategy,
            workers=2,
            min_partition_rows=1,
        ),
    ]


@pytest.mark.parametrize("join_strategy", ["hash", "nested_loop"])
@pytest.mark.parametrize("database", ["DB1", "DB2", "DB3", "DB4"])
def test_rows_are_the_projection_of_the_full_width_answer(database, join_strategy):
    setup = build_evaluation_setup(
        TABLE_4_1_SPECS[database],
        query_count=QUERIES_PER_DATABASE,
        seed=41,
        shard_count=2,
    )
    service = OptimizationService(
        setup.schema, repository=setup.repository, cost_model=setup.cost_model
    )
    queries = []
    for query in setup.queries:
        queries += [query, service.optimize(query).optimized]
    planner = ConventionalPlanner(setup.schema, setup.store.statistics())
    engines = _engines(setup, join_strategy)
    rows_seen = 0
    duplicates_seen = False
    fanned_out = False
    try:
        for query in queries:
            assert query.projections
            plan = planner.plan(query)
            wide_plan = planner.plan(replace(query, projections=()))
            wide_reference = None
            for executor in engines:
                mode = executor.mode.value
                wide = executor.execute_plan(wide_plan)
                if wide_reference is None:
                    wide_reference = wide.rows
                assert wide.rows == wide_reference, (mode, str(query))
                expected = [
                    {name: row.get(name) for name in query.projections}
                    for row in wide.rows
                ]
                result = executor.execute_plan(plan)
                assert result.rows == expected, (mode, str(query))
                assert all(
                    tuple(row) == query.projections for row in result.rows
                ), (mode, str(query))
                assert result.row_count == wide.row_count
                assert result.metrics.as_dict() == wide.metrics.as_dict()
                fanned_out = fanned_out or result.shard_reports is not None
            rows_seen += len(expected)
            distinct = {json.dumps(row, sort_keys=True) for row in expected}
            duplicates_seen = duplicates_seen or len(distinct) < len(expected)
    finally:
        engines[-1].close()
        service.close()
    # The workload must exercise what the oracle claims to cover.
    assert rows_seen > 0 and fanned_out
    if database == "DB4":
        assert duplicates_seen


def test_full_width_row_holds_every_attribute_in_binding_order(
    seeded_logistics_database,
):
    schema, store, statistics = seeded_logistics_database
    query = parse_query(
        "(SELECT { } { } {cargo.quantity >= 50} {collects} {cargo, vehicle})"
    )
    plan = ConventionalPlanner(schema, statistics).plan(query)
    result = VectorizedExecutor(schema, store).execute_plan(plan)
    assert result.row_count > 0
    expected_keys = [
        f"{class_name}.{attribute}"
        for class_name in plan.class_order
        for attribute in store.instances(class_name)[0].values
    ]
    for row in result.rows:
        assert list(row) == expected_keys


#: sha256 over ``(row_count, ExecutionMetrics.as_dict())`` of the 39
#: ``gateway_read`` queries — the original run row-wise (the spine oracle's
#: side of ``cost_ratio``) and the optimized form run vectorized (the
#: served side) — recorded from a ``git archive`` of the commit before rows
#: became the projection (PR 13, 0a30fbf).
GATEWAY_READ_DIGEST = "a1512bccecf480ae5bf080ef2127df015665860809015d5c1d0087040b9da7be"


def _gateway_read_digest():
    setup = build_evaluation_setup(TABLE_4_1_SPECS["DB4"], query_count=1)
    service = OptimizationService(
        setup.schema,
        repository=setup.repository,
        cost_model=setup.cost_model,
        store=setup.store,
    )
    distinct = {}
    for query in build_workload(
        setup.schema,
        setup.database.value_catalog,
        count=40,
        seed=7,
        constraints=setup.constraints,
    ):
        distinct.setdefault(equivalence_key(query), query)
    assert len(distinct) == 39
    oracle = QueryExecutor(setup.schema, setup.store)
    digest = hashlib.sha256()
    for query in distinct.values():
        original = oracle.execute(query)
        served = service.execute(query, execution_mode="vectorized").execution
        for result in (original, served):
            line = json.dumps(
                [result.row_count, result.metrics.as_dict()], sort_keys=True
            )
            digest.update(line.encode() + b"\0")
    service.close()
    return digest.hexdigest()


def test_gateway_read_queries_cost_what_they_cost_before_projection():
    assert _gateway_read_digest() == GATEWAY_READ_DIGEST
