"""Concurrent service execution: execute_many across all three engines."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import OptimizerConfig
from repro.data import TABLE_4_1_SPECS, build_evaluation_setup
from repro.engine import ParallelExecutor
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
        engine_workers=2,
    )
    yield setup, service
    service.close()


def test_execute_many_matches_execute_across_engines(service_setup):
    setup, service = service_setup
    reference = [
        service.execute(query, execution_mode="rowwise") for query in setup.queries
    ]
    for mode in ("rowwise", "vectorized", "parallel"):
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


def test_executor_cache_is_keyed_by_worker_width(service_setup):
    _setup, service = service_setup
    two = service._executor("parallel", "hash", 2)
    three = service._executor("parallel", "hash", 3)
    again = service._executor("parallel", "hash", 2)
    assert isinstance(two, ParallelExecutor)
    assert two is again
    assert two is not three
    assert two.workers == 2 and three.workers == 3
    # In-process engines hold no state: built per call, never kept.
    assert not isinstance(
        service._executor("vectorized", "hash", 2), ParallelExecutor
    )
    assert {mode for mode, _, _ in service._executors} == {"parallel"}


def test_attach_store_closes_worker_pools(service_setup):
    setup, service = service_setup
    executor = service._executor("parallel", "hash", 2)
    assert service._executors
    service.attach_store(setup.store)
    assert not service._executors
    assert executor._pool is None  # close() ran


def test_empty_batch(service_setup):
    _setup, service = service_setup
    batch = service.execute_many([], execution_mode="parallel")
    assert len(batch) == 0
    assert batch.stats.total == 0
    assert batch.total_rows() == 0
