"""Tests for the cached, batched OptimizationService facade."""

import pytest

from repro.constraints import ConstraintRepository
from repro.core import OptimizerConfig, SemanticQueryOptimizer
from repro.query import equivalence_key, structurally_equal
from repro.service import OptimizationService, ResultSource


@pytest.fixture()
def service(small_setup):
    return OptimizationService(
        small_setup.schema,
        repository=small_setup.repository,
        cost_model=small_setup.cost_model,
        config=OptimizerConfig(record_access_statistics=False),
    )


@pytest.fixture()
def reference_optimizer(small_setup):
    """A plain optimizer over an identical, independent repository."""
    repository = ConstraintRepository(small_setup.schema)
    repository.add_all(small_setup.repository.declared())
    repository.precompile()
    return SemanticQueryOptimizer(
        small_setup.schema,
        repository=repository,
        cost_model=small_setup.cost_model,
        config=OptimizerConfig(record_access_statistics=False),
    )


def test_optimize_matches_plain_optimizer(service, reference_optimizer, small_setup):
    for query in small_setup.queries:
        via_service = service.optimize(query)
        direct = reference_optimizer.optimize(query)
        assert structurally_equal(via_service.optimized, direct.optimized)
        assert via_service.source is ResultSource.COMPUTED
        assert via_service.timings.total >= 0.0
        assert len(via_service.trace) == len(direct.trace)


def test_result_cache_hit_on_repeat(service, small_setup):
    query = small_setup.queries[0]
    first = service.optimize(query)
    second = service.optimize(query)
    assert first.source is ResultSource.COMPUTED
    assert second.source is ResultSource.RESULT_CACHE
    assert second.cache_hit
    # The heavy fields are shared with the cached run; ``original`` points
    # at the query this call submitted.
    assert second.result.trace is first.result.trace
    assert second.result.optimized is first.result.optimized
    assert second.result.original is query
    stats = service.cache_stats()
    assert stats.result_hits == 1
    assert stats.result_misses == 1


def test_structurally_equal_query_hits_cache(service, small_setup):
    query = small_setup.queries[0]
    service.optimize(query)
    renamed = query.renamed("same-query-different-name")
    assert equivalence_key(renamed) == equivalence_key(query)
    hit = service.optimize(renamed)
    assert hit.source is ResultSource.RESULT_CACHE
    # The envelope reflects the submitted twin, not the cached one.
    assert hit.query is renamed
    assert hit.result.original is renamed


def test_use_cache_false_bypasses_result_cache(service, small_setup):
    query = small_setup.queries[0]
    service.optimize(query)
    rerun = service.optimize(query, use_cache=False)
    assert rerun.source is ResultSource.COMPUTED


def test_repository_mutation_invalidates_result_cache(service, small_setup):
    query = small_setup.queries[0]
    service.optimize(query)
    # Remove and re-add a constraint: two generation bumps, so both the old
    # cache entry and any entry keyed between the bumps are unreachable.
    declared = small_setup.repository.declared()
    small_setup.repository.remove(declared[0].name)
    after_remove = service.optimize(query)
    assert after_remove.source is ResultSource.COMPUTED
    small_setup.repository.add(declared[0])
    after_readd = service.optimize(query)
    assert after_readd.source is ResultSource.COMPUTED


def test_optimize_many_matches_sequential_calls(
    service, reference_optimizer, small_setup
):
    batch = service.optimize_many(small_setup.queries)
    assert len(batch) == len(small_setup.queries)
    for envelope, query in zip(batch, small_setup.queries):
        direct = reference_optimizer.optimize(query)
        assert structurally_equal(envelope.optimized, direct.optimized)


def test_optimize_many_deduplicates_structural_equals(service, small_setup):
    base = small_setup.queries[:4]
    duplicates = [q.renamed(f"{q.name}_dup") for q in base]
    workload = base + duplicates
    batch = service.optimize_many(workload)

    assert batch.stats.total == len(workload)
    assert batch.stats.unique == len(base)
    assert batch.stats.duplicates == len(duplicates)
    assert batch.sources()["batch_dedup"] == len(duplicates)
    # Every duplicate shares its original's computed answer.
    for index, duplicate in enumerate(duplicates):
        original_envelope = batch[index]
        duplicate_envelope = batch[len(base) + index]
        assert duplicate_envelope.source is ResultSource.BATCH_DEDUP
        assert duplicate_envelope.result.trace is original_envelope.result.trace
        assert duplicate_envelope.query is duplicate
        assert duplicate_envelope.result.original is duplicate
        assert structurally_equal(
            duplicate_envelope.optimized, original_envelope.optimized
        )


def test_concurrent_optimize_after_mutation(service, small_setup):
    """Threads racing the lazy re-precompile all see a complete grouping."""
    from concurrent.futures import ThreadPoolExecutor

    declared = small_setup.repository.declared()
    reference = {}
    for query in small_setup.queries:
        reference[query.name] = service.optimize(query, use_cache=False)

    # Mark the repository dirty, then hit it from several threads at once:
    # every result must match the sequential reference (the constraint set
    # is unchanged after the remove/re-add cycle).
    small_setup.repository.remove(declared[0].name)
    small_setup.repository.add(declared[0])
    with ThreadPoolExecutor(max_workers=4) as pool:
        racing = list(
            pool.map(
                lambda q: (q.name, service.optimize(q, use_cache=False)),
                small_setup.queries * 2,
            )
        )
    for name, envelope in racing:
        expected = reference[name]
        assert structurally_equal(envelope.optimized, expected.optimized)
        assert (
            envelope.result.relevant_constraints
            == expected.result.relevant_constraints
        )


def test_batch_result_reporting(service, small_setup):
    batch = service.optimize_many(small_setup.queries[:3])
    assert batch.stats.wall_time > 0.0
    assert batch.stats.mean_time > 0.0
    assert batch.stats.throughput > 0.0
    totals = batch.phase_totals()
    assert totals.total >= totals.transformation_only >= 0.0
    assert len(batch.optimized_queries()) == 3
    assert "queries" in batch.summary()
    assert batch[0].summary().startswith("[computed]")


def test_second_batch_served_from_cache(service, small_setup):
    service.optimize_many(small_setup.queries)
    warm = service.optimize_many(small_setup.queries)
    assert warm.stats.computed == 0
    assert warm.stats.result_cache_hits == warm.stats.unique
    assert warm.cache.result_hit_rate > 0.0


def test_result_cache_size_bound(small_setup):
    service = OptimizationService(
        small_setup.schema,
        repository=small_setup.repository,
        cost_model=small_setup.cost_model,
        config=OptimizerConfig(record_access_statistics=False),
        result_cache_size=2,
    )
    for query in small_setup.queries[:3]:
        service.optimize(query)
    assert service.cache_stats().result_entries == 2
    # LRU: the first query was evicted, the last is still cached.
    assert (
        service.optimize(small_setup.queries[0]).source is ResultSource.COMPUTED
    )
    assert (
        service.optimize(small_setup.queries[2]).source
        is ResultSource.RESULT_CACHE
    )


def test_explicit_constraint_list_service(example_schema, example_constraints, paper_query):
    """The service also works without a repository (explicit constraints)."""
    service = OptimizationService(
        example_schema, constraints=example_constraints
    )
    first = service.optimize(paper_query)
    second = service.optimize(paper_query)
    assert sorted(first.result.eliminated_classes) == ["supplier"]
    assert second.source is ResultSource.RESULT_CACHE


def test_cache_hits_still_record_access_statistics(example_schema):
    """Result-cache and dedup hits must keep feeding the frequency stats."""
    from repro.constraints import build_example_constraints
    from repro.query import parse_query

    repository = ConstraintRepository(example_schema)
    repository.add_all(build_example_constraints())
    service = OptimizationService(example_schema, repository=repository)
    query = parse_query(
        '(SELECT {cargo.desc} { } {vehicle.desc = "refrigerated truck"} '
        "{collects} {cargo, vehicle})",
        name="stats-query",
    )
    service.optimize(query)
    seen_after_cold = repository.statistics.queries_seen
    hit = service.optimize(query)
    assert hit.source is ResultSource.RESULT_CACHE
    assert repository.statistics.queries_seen == seen_after_cold + 1
    batch = service.optimize_many([query, query.renamed("stats-dup")])
    assert batch.stats.duplicates == 1
    assert repository.statistics.queries_seen == seen_after_cold + 3


def test_clear_result_cache(service, small_setup):
    query = small_setup.queries[0]
    service.optimize(query)
    service.clear_result_cache()
    assert service.cache_stats().result_entries == 0
    assert service.optimize(query).source is ResultSource.COMPUTED
