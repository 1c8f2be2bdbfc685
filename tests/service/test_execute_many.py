"""Concurrent service execution: execute_many across both engines."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import OptimizerConfig
from repro.data import TABLE_4_1_SPECS, build_evaluation_setup
from repro.service import ExecutionBatchResult, OptimizationService


@pytest.fixture(scope="module")
def service_setup():
    setup = build_evaluation_setup(
        TABLE_4_1_SPECS["DB1"], query_count=10, seed=13, shard_count=2
    )
    service = OptimizationService(
        setup.schema,
        repository=setup.repository,
        cost_model=setup.cost_model,
        config=OptimizerConfig(record_access_statistics=False),
        store=setup.store,
    )
    yield setup, service
    service.close()


def test_execute_many_matches_execute_across_engines(service_setup):
    setup, service = service_setup
    reference = [
        service.execute(query, execution_mode="rowwise") for query in setup.queries
    ]
    for mode in ("rowwise", "vectorized"):
        batch = service.execute_many(setup.queries, execution_mode=mode)
        assert isinstance(batch, ExecutionBatchResult)
        assert len(batch) == len(setup.queries)
        assert batch.stats.execution_mode == mode
        assert batch.stats.total == len(setup.queries)
        assert batch.stats.wall_time > 0
        for envelope, single, query in zip(batch, reference, setup.queries):
            assert envelope.query is query  # aligned with input order
            assert envelope.rows == single.rows
            assert envelope.metrics.as_dict() == single.metrics.as_dict()


def test_concurrent_readers_return_identical_rows():
    """Four readers race to fill the rows' memos; every answer is the same."""
    setup = build_evaluation_setup(
        TABLE_4_1_SPECS["DB1"], query_count=10, seed=13, shard_count=2
    )
    service = OptimizationService(
        setup.schema,
        repository=setup.repository,
        config=OptimizerConfig(record_access_statistics=False),
        store=setup.store,  # fresh: no row has a memo yet
    )
    reference = [
        service.execute(query, execution_mode="rowwise").rows
        for query in setup.queries
    ]
    assert any(reference), "the workload must return rows"

    def read_all():
        return [
            service.execute(query, execution_mode="vectorized").rows
            for query in setup.queries
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            answers = [
                future.result(timeout=60)
                for future in [pool.submit(read_all) for _ in range(4)]
            ]
    finally:
        sys.setswitchinterval(interval)
        service.close()
    assert answers == [reference] * 4


def test_execute_many_without_optimization(service_setup):
    setup, service = service_setup
    batch = service.execute_many(
        setup.queries[:4], optimize=False, execution_mode="vectorized"
    )
    assert all(envelope.optimization is None for envelope in batch)
    assert all(envelope.executed_query is envelope.query for envelope in batch)


def test_parallel_is_no_engine_of_the_service(service_setup):
    setup, service = service_setup
    with pytest.raises(ValueError, match="choose from: rowwise, vectorized"):
        OptimizationService(
            setup.schema,
            repository=setup.repository,
            store=setup.store,
            execution_mode="parallel",
        )
    with pytest.raises(ValueError, match="unknown execution mode 'parallel'"):
        service.execute(setup.queries[0], execution_mode="parallel")


def test_empty_batch(service_setup):
    _setup, service = service_setup
    batch = service.execute_many([], execution_mode="vectorized")
    assert len(batch) == 0
    assert batch.stats.total == 0
    assert batch.total_rows() == 0
