"""Dynamic (state-derived) constraints interacting with the service caches.

The repository generation is the service's cache epoch: adding or removing
a constraint — including rules *derived from the current database state* by
:mod:`repro.constraints.dynamic` — must bump it, so that the service result
cache never serves an optimization computed under a different rule set.
Executor caches are keyed on the store version instead: state-derived rules
are only sound for the state they were derived from, so the pairing under
test here is exactly the production failure mode — data changes, rules are
re-derived, and every layer of caching has to notice.
"""

import pytest

from repro.constraints import ConstraintRepository
from repro.constraints.dynamic import DerivationConfig, derive_rules
from repro.core import OptimizerConfig
from repro.data import build_evaluation_constraints
from repro.engine import ObjectStore, ParallelExecutor
from repro.query import Query
from repro.service import OptimizationService, ResultSource


@pytest.fixture()
def seeded_service(evaluation_schema):
    """A small hand-seeded database plus a service over a live repository."""
    schema = evaluation_schema
    store = ObjectStore(schema, shard_count=2)
    for i in range(8):
        store.insert(
            "cargo",
            {
                "code": f"C{i}",
                "desc": "frozen food" if i % 2 == 0 else "textiles",
                "quantity": 100 + i,
                "category": "perishable" if i % 2 == 0 else "general",
            },
        )
    repository = ConstraintRepository(schema)
    repository.add_all(build_evaluation_constraints())
    repository.precompile()
    service = OptimizationService(
        schema,
        repository=repository,
        config=OptimizerConfig(record_access_statistics=False),
        store=store,
    )
    yield schema, store, repository, service
    service.close()


def _query():
    return Query(
        projections=("cargo.code", "cargo.quantity"),
        selective_predicates=(),
        classes=("cargo",),
        name="dynamic-probe",
    )


def test_dynamic_rule_add_and_remove_bump_generation_and_cache(seeded_service):
    schema, store, repository, service = seeded_service
    query = _query()

    first = service.optimize(query)
    assert first.source is ResultSource.COMPUTED
    assert service.optimize(query).source is ResultSource.RESULT_CACHE

    generation = repository.generation
    rules = derive_rules(
        schema,
        store,
        config=DerivationConfig(derive_functional=False),
        existing_names=[c.name for c in repository.constraints()],
    )
    assert rules, "the seeded store must yield range rules"
    repository.add_all(rules)
    assert repository.generation > generation

    # The old cached result was computed under the old rule set: the next
    # optimize must recompute, not serve the stale entry.
    recomputed = service.optimize(query)
    assert recomputed.source is ResultSource.COMPUTED
    assert service.optimize(query).source is ResultSource.RESULT_CACHE

    # Removing a dynamic rule is another epoch: recompute again.
    generation = repository.generation
    repository.remove(rules[0].name)
    assert repository.generation > generation
    assert service.optimize(query).source is ResultSource.COMPUTED


@pytest.mark.parametrize("mode", ["vectorized", "parallel"])
def test_store_mutation_invalidates_executor_caches(seeded_service, mode):
    schema, store, repository, service = seeded_service
    query = _query()
    # The parallel executor is no engine of the service: one persistent
    # executor on the service's store runs the service's optimized query.
    parallel = (
        ParallelExecutor(schema, store, workers=2, min_partition_rows=1)
        if mode == "parallel"
        else None
    )

    def execute():
        if parallel is None:
            return service.execute(query, execution_mode=mode).execution
        return parallel.execute(service.optimize(query).optimized)

    try:
        before = execute()
        row_count = before.row_count
        assert row_count == store.count("cargo")

        # Mutate the store: version-keyed executor caches (vectorized
        # pointer and fragment caches, the parallel executor's forked pool)
        # must notice.
        store.insert(
            "cargo",
            {"code": "C-late", "desc": "frozen food", "quantity": 500,
             "category": "perishable"},
        )
        after = execute()
    finally:
        if parallel is not None:
            parallel.close()
    assert after.row_count == row_count + 1
    assert any(
        row.get("cargo.code") == "C-late" for row in after.rows
    )


def test_rederived_rules_follow_the_data(seeded_service):
    """Re-deriving after a mutation yields bounds for the *new* state."""
    schema, store, repository, service = seeded_service
    config = DerivationConfig(derive_functional=False)
    taken = [c.name for c in repository.constraints()]
    before = {
        str(rule.consequent)
        for rule in derive_rules(schema, store, config=config, existing_names=taken)
        if "cargo.quantity" in str(rule.consequent)
    }
    store.insert(
        "cargo",
        {"code": "C-big", "desc": "textiles", "quantity": 9000,
         "category": "general"},
    )
    after = {
        str(rule.consequent)
        for rule in derive_rules(schema, store, config=config, existing_names=taken)
        if "cargo.quantity" in str(rule.consequent)
    }
    assert before != after
    assert any("9000" in consequent for consequent in after)
