"""Query pricing: one snapshot, class prices reused, costs bit for bit.

:class:`~repro.engine.cost_model.QueryPricing` prices a query once and its
variants (one predicate or one class fewer) by carrying unchanged class
prices over.  The contract pinned here is *exact float equality* with
pricing the physically rebuilt variant from scratch — the reuse may save
work, never move a decision — and that the
memo a :class:`~repro.constraints.Predicate` keeps of its derived values
is no part of its identity or its pickled form.
"""

import hashlib
import pickle
from dataclasses import replace

import pytest

from repro.constraints import Predicate
from repro.core import SemanticQueryOptimizer
from repro.data import TABLE_4_1_SPECS, build_evaluation_setup
from repro.engine import ConventionalPlanner, CostModel
from repro.query import parse_query


def _breakdown(estimate):
    return (estimate.retrieval, estimate.cpu, estimate.traversal)


def _variants(schema, query):
    """``query`` minus each selective predicate, minus each dangling class."""
    for dropped in query.selective_predicates:
        yield query.with_selective_predicates(
            [p for p in query.selective_predicates if p is not dropped]
        )
    if len(query.classes) == 1:
        return
    relationships = [schema.relationship(name) for name in query.relationships]
    for class_name in query.classes:
        if sum(rel.involves(class_name) for rel in relationships) > 1:
            continue
        yield query.without_classes([class_name]).keep_relationships(
            rel.name for rel in relationships if not rel.involves(class_name)
        )


def _without(query, predicate):
    """``query`` minus every copy of ``predicate`` local to one class."""
    target = predicate.normalized()
    if len(target.referenced_classes()) > 1:
        return query

    def kept(predicates):
        return [p for p in predicates if p.normalized() != target]

    return replace(
        query,
        join_predicates=kept(query.join_predicates),
        selective_predicates=kept(query.selective_predicates),
    )


@pytest.mark.parametrize("database", ["DB1", "DB2", "DB3", "DB4"])
def test_variant_costs_equal_pricing_the_rebuilt_query(database):
    setup = build_evaluation_setup(
        TABLE_4_1_SPECS[database], query_count=16, seed=29
    )
    cost_model = setup.cost_model
    optimizer = SemanticQueryOptimizer(
        setup.schema, repository=setup.repository, cost_model=cost_model
    )
    # Optimized queries carry the introduced (optional) predicates and the
    # shapes class elimination leaves behind.
    queries = list(setup.queries)
    queries += [optimizer.optimize(query).optimized for query in setup.queries]
    checked = 0
    for query in queries:
        priced = cost_model.price(query)
        scratch = cost_model.price(query).estimate()
        assert _breakdown(priced.estimate()) == _breakdown(scratch)
        for variant in _variants(setup.schema, query):
            repriced = priced.reprice(variant)
            scratch = cost_model.price(variant)
            assert _breakdown(repriced.estimate()) == _breakdown(scratch.estimate())
            assert repriced.estimate().total == scratch.estimate().total
            assert repriced.driver() == scratch.driver()
            checked += 1
        for dropped in query.predicates():
            variant = _without(query, dropped)
            delta = priced.without(dropped)
            scratch = cost_model.price(variant)
            assert _breakdown(delta.estimate()) == _breakdown(scratch.estimate())
            assert delta.driver() == scratch.driver()
            # A cross-class predicate is no local copy: nothing changes.
            assert (delta is priced) == (variant is query)
            checked += 1
    assert checked > 100


def test_reprice_keeps_unchanged_class_prices_only(small_setup, monkeypatch):
    query = next(
        q
        for q in small_setup.queries
        if len(q.classes) > 1 and q.selective_predicates
    )
    priced = small_setup.cost_model.price(query)
    priced.estimate()
    dropped = query.selective_predicates[0]
    (changed,) = dropped.referenced_classes()
    repriced = priced.reprice(
        query.with_selective_predicates(query.selective_predicates[1:])
    )
    assert set(repriced._prices) == set(query.classes) - {changed}
    for name, price in repriced._prices.items():
        assert price is priced.class_price(name)
    # The delta prices the changed class at once from the selectivities
    # its price holds (here the class keeps a second predicate), and
    # shares every other class price.
    priced = small_setup.cost_model.price(
        query.add_selective_predicates([dropped.negated()])
    )
    priced.estimate()
    calls = []
    monkeypatch.setattr(
        type(small_setup.statistics),
        "selectivity",
        lambda *args: calls.append(args) or 1.0,
    )
    delta = priced.without(dropped)
    delta.estimate()
    assert calls == []
    assert delta.local[changed] == [dropped.negated()]
    assert set(delta._prices) == set(query.classes)
    for name in set(query.classes) - {changed}:
        assert delta.class_price(name) is priced.class_price(name)
    assert delta.class_price(changed) is not priced.class_price(changed)
    assert delta._walks is priced._walks


def test_pricing_reads_statistics_and_weights_once(small_setup):
    statistics = small_setup.statistics
    model = CostModel(small_setup.schema, statistics)
    reads = []

    def provider():
        reads.append(model.weights)
        return statistics

    model.bind_statistics(provider)
    query = next(q for q in small_setup.queries if q.selective_predicates)
    priced = model.price(query)
    priced.estimate()
    priced.reprice(query.with_selective_predicates(())).estimate()
    priced.driver()
    assert len(reads) == 1


def test_planner_plans_from_one_pricing(small_setup):
    statistics = small_setup.statistics
    model = CostModel(small_setup.schema, statistics)
    reads = []
    model.bind_statistics(lambda: reads.append(1) or statistics)
    planner = ConventionalPlanner(small_setup.schema, statistics, cost_model=model)
    for query in small_setup.queries:
        del reads[:]
        plan = planner.plan(query)
        assert len(reads) == 1
        assert plan.class_order[0] == model.price(query).driver()
        assert sorted(plan.class_order) == sorted(query.classes)


# ----------------------------------------------------------------------
# The predicate's memo of its derived values
# ----------------------------------------------------------------------
PREDICATES = [
    Predicate.equals("cargo.desc", "frozen food"),
    Predicate.selection("cargo.quantity", ">=", 10),
    Predicate.comparison("vehicle.class", ">=", "driver.licenseClass"),
    Predicate.comparison("driver.licenseClass", "<=", "vehicle.class"),
]


def _touch(predicate):
    return predicate.key(), predicate.normalized(), predicate.referenced_classes()


@pytest.mark.parametrize("predicate", PREDICATES, ids=str)
def test_predicate_memo_is_no_part_of_identity_or_pickle(predicate):
    fresh = Predicate(predicate.left, predicate.operator, predicate.right)
    assert not hasattr(fresh, "_derived")
    before = (hash(fresh), repr(fresh), str(fresh), pickle.dumps(fresh))
    derived = _touch(fresh)
    assert hasattr(fresh, "_derived")
    assert (hash(fresh), repr(fresh), str(fresh), pickle.dumps(fresh)) == before
    twin = pickle.loads(before[3])
    assert twin == fresh and not hasattr(twin, "_derived")
    assert _touch(twin) == derived == _touch(fresh)
    # The canonical form is its own canonical form, and shares the key.
    normalized = fresh.normalized()
    assert normalized.normalized() is normalized
    assert normalized.key() == fresh.key()


def test_plan_digest_does_not_depend_on_filled_memos(seeded_logistics_database):
    schema, _store, statistics = seeded_logistics_database
    query = parse_query(
        "(SELECT {cargo.code, vehicle.vehicle_no} "
        "{vehicle.capacity >= cargo.quantity} "
        '{cargo.quantity >= 52, vehicle.desc = "van"} {collects} {cargo, vehicle})',
        name="digest",
    )
    # Planning fills memos; a pickle round trip yields the same plan with
    # none filled.  The parallel engine keys its workers' plan cache on
    # exactly this digest.
    plan = ConventionalPlanner(schema, statistics).plan(query)
    assert all(hasattr(p, "_derived") for p in query.predicates())

    def digest(value):
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        return hashlib.sha1(blob).hexdigest(), blob

    filled, blob = digest(plan)
    bare = pickle.loads(blob)
    assert b"_derived" not in blob
    assert digest(bare)[0] == filled
