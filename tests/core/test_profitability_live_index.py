"""Regression: profitability heuristics consult the *live* index set.

The no-cost-model fallback used to ask the static schema whether a
predicate's attribute "is indexed" — but the schema records the declared
physical design, not the store's current one.  Once an index is dropped
mid-workload (an operator, or the auto-indexer retiring it), the
heuristic kept retaining predicates that could no longer use an index
scan.  The analyzer now prefers a caller-supplied ``index_probe`` (the
service wires in the store's :class:`IndexManager`), falling back to the
schema only when no live answer is available.
"""

import pytest

from repro.constraints import ConstraintRepository
from repro.core import OptimizerConfig, SemanticQueryOptimizer
from repro.core.profitability import ProfitabilityAnalyzer
from repro.data import TABLE_4_1_SPECS, build_evaluation_setup
from repro.query import parse_query
from repro.service import OptimizationService


@pytest.fixture()
def setup():
    return build_evaluation_setup(
        TABLE_4_1_SPECS["DB1"], query_count=4, seed=43, shard_count=2
    )


@pytest.fixture()
def restricted_query():
    """Two selective predicates on cargo: the fallback's 'sole selective
    predicate' branch cannot mask the index decision."""
    return parse_query(
        '(SELECT {cargo.desc} { } '
        '{cargo.category = "general", cargo.desc = "frozen food"} '
        "{ } {cargo})",
        name="live-index-probe",
    )


def _category_predicate(query):
    (predicate,) = [
        p
        for p in query.selective_predicates
        if p.left.attribute_name == "category"
    ]
    return predicate


def test_heuristic_follows_live_index_drop(setup, restricted_query):
    store = setup.store
    analyzer = ProfitabilityAnalyzer(
        setup.schema,
        index_probe=lambda cls, attr: store.indexes.is_indexed(cls, attr),
    )
    predicate = _category_predicate(restricted_query)

    # Declared AND live: the index-scan branch retains the predicate.
    decision = analyzer.predicate_is_profitable(restricted_query, predicate)
    assert decision.profitable
    assert "index scan" in decision.reason

    # Dropped mid-workload: the schema still says "indexed", the live
    # store says no — the pre-fix analyzer kept answering True here.
    assert store.drop_index("cargo", "category")
    assert setup.schema.is_indexed("cargo", "category")
    decision = analyzer.predicate_is_profitable(restricted_query, predicate)
    assert not decision.profitable
    assert "not indexed" in decision.reason

    # Re-created: the decision flips back without rebuilding the analyzer.
    assert store.create_index("cargo", "category")
    assert analyzer.predicate_is_profitable(
        restricted_query, predicate
    ).profitable


def test_probe_errors_fall_back_to_schema(setup, restricted_query):
    def broken_probe(cls, attr):
        raise RuntimeError("store detached")

    analyzer = ProfitabilityAnalyzer(setup.schema, index_probe=broken_probe)
    predicate = _category_predicate(restricted_query)
    decision = analyzer.predicate_is_profitable(restricted_query, predicate)
    assert decision.profitable  # schema fallback: declared indexed


def test_service_wires_live_probe_into_optimizer(setup):
    repository = ConstraintRepository(setup.schema)
    repository.add_all(setup.constraints)
    service = OptimizationService(
        setup.schema,
        repository=repository,
        config=OptimizerConfig(record_access_statistics=False),
        store=setup.store,
    )
    try:
        assert service.optimizer.index_probe is not None
        assert service.optimizer.index_probe("cargo", "category") is True
        setup.store.drop_index("cargo", "category")
        assert service.optimizer.index_probe("cargo", "category") is False
        setup.store.create_index("cargo", "category")
        assert service.optimizer.index_probe("cargo", "category") is True
    finally:
        service.close()


def test_optimizer_passes_probe_to_analyzer(setup, restricted_query):
    optimizer = SemanticQueryOptimizer(
        setup.schema,
        constraints=setup.constraints,
        config=OptimizerConfig(record_access_statistics=False),
        index_probe=lambda cls, attr: False,
    )
    # The optimizer's analyzer must see the probe: with every attribute
    # reported unindexed, the restricted query's category predicate is
    # ruled unprofitable by the analyzer the optimizer builds internally.
    analyzer = ProfitabilityAnalyzer(
        setup.schema, index_probe=optimizer.index_probe
    )
    predicate = _category_predicate(restricted_query)
    assert not analyzer.predicate_is_profitable(
        restricted_query, predicate
    ).profitable
