"""Benchmark: the O(m·n) transformation-complexity claim (Section 4).

Beside it, the same kind of claim about the data the claim is measured on:
generating a constraint-consistent database is linear in its size, a join
from one row costs the same whatever the size of the extent it joins
into, and so does a write with dynamic rules on.
"""

import sys
from collections import Counter

import pytest

from repro.core import TransformationEngine, initialize
from repro.data import DatabaseGenerator, DatabaseSpec, build_evaluation_setup
from repro.engine import (
    DatabaseStatistics,
    ObjectInstance,
    ShardedObjectStore,
    VectorizedExecutor,
)
from repro.engine.plan import TraverseNode
from repro.experiments import (
    build_chain_constraints,
    build_chain_query,
    build_chain_schema,
    run_complexity,
)
from repro.query import parse_query
from repro.service import OptimizationService


@pytest.mark.parametrize("constraint_count", [16, 64, 256])
def test_transformation_scaling(benchmark, constraint_count):
    schema = build_chain_schema(constraint_count + 2)
    constraints = build_chain_constraints(constraint_count)
    query = build_chain_query(1)

    def transform():
        init = initialize(query, constraints)
        engine = TransformationEngine(init.table, schema)
        engine.run()
        return engine.stats.fired

    fired = benchmark(transform)
    # Every constraint in the chain fires exactly once.
    assert fired == constraint_count


def _python_calls(work):
    """``work()``'s Python-level calls (``sys.setprofile`` "call" events)."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        work()
    finally:
        sys.setprofile(previous)
    return calls


def test_complexity_report(benchmark):
    """O(m*n): the transformation step's work per table cell stays bounded.

    The timed table is printed; the bound is asserted on the Python calls
    of the same ``engine.run()`` per cell, which no other process on the
    host can move (the cells take well under a microsecond each, so one
    descheduling outweighs the timed work).  The calls read 640, 1,288,
    2,584 and 5,176 for 72, 272, 1,056 and 4,160 cells: 8.9 falling to 1.2
    per cell.
    """
    counts = (8, 16, 32, 64)
    result = benchmark.pedantic(
        run_complexity,
        kwargs={"constraint_counts": counts, "repeats": 1},
        rounds=1,
        iterations=1,
    )
    print()
    print(result.as_table())
    per_cell = []
    for count, point in zip(counts, result.points):
        init = initialize(
            build_chain_query(1), build_chain_constraints(count), assume_relevant=False
        )
        engine = TransformationEngine(init.table, build_chain_schema(count + 2))
        per_cell.append(_python_calls(engine.run) / point.product)
    assert max(per_cell) <= 20 * min(per_cell), per_cell


def test_generation_work_is_linear_in_the_data(monkeypatch):
    """Cold generation reads each pointer a bounded number of times.

    Counted, not timed, so it is enforced on every host: 4x the instances
    with 4x the links must cost about 4x the ``pointer_oids`` calls.  When
    binding enumeration rescanned an extent per bound instance the ratio
    was ~16.
    """
    calls = 0
    pointer_oids = ObjectInstance.pointer_oids

    def counted(self, attribute_name):
        nonlocal calls
        calls += 1
        return pointer_oids(self, attribute_name)

    monkeypatch.setattr(ObjectInstance, "pointer_oids", counted)
    counts = []
    for class_cardinality in (104, 416):
        calls = 0
        spec = DatabaseSpec("linear", class_cardinality, class_cardinality * 3)
        DatabaseGenerator(seed=7).generate(spec)
        counts.append(calls)
    assert counts[0] > 0
    assert counts[1] <= 6 * counts[0], counts


def test_enforcement_skips_the_bindings_whose_antecedents_fail(monkeypatch):
    """Enforcement reads pointers and predicates only under true antecedents.

    Counted, not timed: one cold DB4 generation (seed 7) makes at most
    5,000 ``pointer_oids`` and 17,000 ``Predicate.evaluate`` calls (4,262
    and 15,628 when this was written).  When every pass enumerated every
    connected binding, evaluated each antecedent at the leaf and rebuilt
    each ``referrer_map`` per constraint, it made 9,968 and 21,246.
    """
    from repro.constraints.predicate import Predicate
    from repro.data import TABLE_4_1_SPECS

    calls = Counter()

    def counting(owner, name):
        method = getattr(owner, name)

        def counted(self, argument):
            calls[name] += 1
            return method(self, argument)

        monkeypatch.setattr(owner, name, counted)

    counting(ObjectInstance, "pointer_oids")
    counting(Predicate, "evaluate")
    generated = DatabaseGenerator(seed=7).generate(TABLE_4_1_SPECS["DB4"])
    assert generated.repaired_bindings == 798
    assert 0 < calls["pointer_oids"] <= 5_000, calls
    assert 0 < calls["evaluate"] <= 17_000, calls


def test_traversal_work_does_not_grow_with_the_target_extent(monkeypatch):
    """A one-row driver joins into an unfiltered extent without reading it.

    Counted, not timed: the pointer reads (``pointers`` + ``pointer_oids``)
    of one warm execution are the same at 104 and at 416 instances per
    class, because the join probes the store's reverse-pointer index per
    source row.  When it built its reverse table from the target
    candidates on every execution it read one pointer list per target
    instance, ~4x.
    """
    calls = 0

    def counting(method):
        def counted(self, attribute_name):
            nonlocal calls
            calls += 1
            return method(self, attribute_name)

        return counted

    monkeypatch.setattr(ObjectInstance, "pointers", counting(ObjectInstance.pointers))
    monkeypatch.setattr(
        ObjectInstance, "pointer_oids", counting(ObjectInstance.pointer_oids)
    )
    counts = []
    for class_cardinality in (104, 416):
        spec = DatabaseSpec("slope", class_cardinality, class_cardinality * 3)
        database = DatabaseGenerator(seed=7).generate(spec)
        codes = Counter(
            instance.values["code"] for instance in database.store.instances("cargo")
        )
        key = next(code for code, count in sorted(codes.items()) if count == 1)
        query = parse_query(
            "(SELECT {cargo.code, vehicle.vehicle_no} { } "
            f'{{cargo.code = "{key}"}} {{collects}} {{cargo, vehicle}})'
        )
        executor = VectorizedExecutor(database.schema, database.store)
        warm = executor.execute(query)
        traverse = warm.plan.root.child
        assert isinstance(traverse, TraverseNode) and not traverse.predicates
        assert traverse.child.index_predicate is not None
        assert warm.metrics.pointer_traversals == 1 and warm.rows
        calls = 0
        assert executor.execute(query).rows == warm.rows
        counts.append(calls)
    assert counts[0] > 0
    assert counts[0] == counts[1], counts


def test_closure_tries_only_same_attribute_pairs(monkeypatch):
    """The closure fixpoint probes consumers by attribute, not all of them.

    Counted, not timed: over DB4's declared set with dynamic rules on, the
    ``implies`` calls of one ``compute_closure`` stay within three times
    the (producer, antecedent) pairs on one attribute — the only pairs
    that can chain.  When every producer tried every consumer ×
    antecedent pair it made 1,046 calls on this set.
    """
    from repro.constraints import closure
    from repro.data import TABLE_4_1_SPECS

    setup = build_evaluation_setup(TABLE_4_1_SPECS["DB4"], query_count=1)
    service = OptimizationService(
        setup.schema, repository=setup.repository, store=setup.store
    )
    service.enable_dynamic_rules()
    declared = setup.repository.declared()
    service.close()
    pairs = sum(
        1
        for producer in declared
        for consumer in declared
        if consumer is not producer
        for antecedent in consumer.antecedents
        if antecedent.normalized().left == producer.consequent.normalized().left
    )
    calls = 0
    implies = closure.implies

    def counted(premise, conclusion):
        nonlocal calls
        calls += 1
        return implies(premise, conclusion)

    monkeypatch.setattr(closure, "implies", counted)
    closure.compute_closure(declared)
    assert 0 < calls <= 3 * pairs, (calls, pairs)


def _spine_cold_queries():
    """A DB4 service with dynamic rules on and the 393 distinct
    ``optimize_cold`` queries, in generation order."""
    from repro.data import TABLE_4_1_SPECS, build_workload
    from repro.query import equivalence_key

    setup = build_evaluation_setup(TABLE_4_1_SPECS["DB4"], query_count=1)
    service = OptimizationService(
        setup.schema,
        repository=setup.repository,
        cost_model=setup.cost_model,
        store=setup.store,
    )
    service.enable_dynamic_rules()
    distinct = {}
    for query in build_workload(
        setup.schema,
        setup.database.value_catalog,
        count=400,
        seed=7,
        constraints=setup.constraints,
    ):
        distinct.setdefault(equivalence_key(query), query)
    assert len(distinct) == 393
    return service, list(distinct.values())


def test_initialization_tries_only_same_attribute_predicates(monkeypatch):
    """Initialization tests an antecedent against same-attribute predicates.

    Counted, not timed: over the 393 distinct ``optimize_cold`` queries on
    DB4 with dynamic rules on, ``initialize`` calls ``implies`` at most
    1,500 times — only a query predicate on the antecedent's attribute can
    imply it.  When every query predicate was tried against every
    antecedent it made 13,428 calls on these queries.
    """
    from repro.core import initialization

    service, queries = _spine_cold_queries()
    calls = 0
    implies = initialization.implies

    def counted(premise, conclusion):
        nonlocal calls
        calls += 1
        return implies(premise, conclusion)

    monkeypatch.setattr(initialization, "implies", counted)
    fired = sum(
        service.optimize(query, use_cache=False).result.transformations_applied
        for query in queries
    )
    service.close()
    assert fired > 0
    assert 0 < calls <= 1500, calls


def test_formulation_prices_each_optional_predicate_as_a_delta(monkeypatch):
    """An optional predicate's "without" variant reads no statistics.

    Counted, not timed: one cold pass of the 393 distinct
    ``optimize_cold`` queries (DB4, dynamic rules on) makes 1,417 optional
    predicate decisions, constructs at most 900 ``QueryPricing`` objects
    and calls ``DatabaseStatistics.selectivity`` at most 2,300 times (886
    and 2,190) — each variant is a one-class delta of its query's
    pricing.  When every variant rebuilt its query and priced it again,
    the pass made 2,303 constructions and 4,566 selectivity calls.
    """
    from repro.engine.cost_model import QueryPricing

    service, queries = _spine_cold_queries()
    calls = Counter()

    def counting(cls, name):
        method = getattr(cls, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    counting(QueryPricing, "__init__")
    counting(DatabaseStatistics, "selectivity")
    optional = 0
    for query in queries:
        result = service.optimize(query, use_cache=False).result
        optional += len(result.retained_optional) + len(result.discarded_optional)
    service.close()
    assert optional > 1000, optional
    assert 0 < calls["__init__"] <= 900, calls
    assert 0 < calls["selectivity"] <= 2300, calls


def _db4x2_service():
    """A service over a 2-shard store twice DB4's size, and 40 seed-7
    generated queries (``execute_scan``'s store)."""
    from repro.data import build_workload

    setup = build_evaluation_setup(
        DatabaseSpec("DB4x2", 416, 1232), query_count=1, shard_count=2
    )
    service = OptimizationService(
        setup.schema,
        repository=setup.repository,
        cost_model=setup.cost_model,
        store=setup.store,
    )
    queries = build_workload(
        setup.schema,
        setup.database.value_catalog,
        count=40,
        seed=7,
        constraints=setup.constraints,
    )
    return setup, service, queries


def test_warm_executes_plan_once_per_statistics_snapshot(monkeypatch):
    """A warm execute runs the plan its cached optimization already holds.

    Counted, not timed: five warm passes of ``service.execute`` over 40
    generated queries on a 2-shard store twice DB4's size call
    ``ConventionalPlanner.plan`` at most once per query, and a write
    between passes (a new statistics snapshot) costs at most one more pass
    of planning.  When every execute planned afresh, the five passes made
    200 calls.
    """
    from repro.engine import planner

    setup, service, queries = _db4x2_service()
    calls = 0
    plan = planner.ConventionalPlanner.plan

    def counted(self, query):
        nonlocal calls
        calls += 1
        return plan(self, query)

    monkeypatch.setattr(planner.ConventionalPlanner, "plan", counted)

    def passes(count):
        nonlocal calls
        calls = 0
        for _ in range(count):
            for query in queries:
                service.execute(query, execution_mode="vectorized")
        return calls

    assert 0 < passes(5) <= 40, calls
    row = dict(setup.store.instances("cargo")[0].values, code="written")
    service.mutate("insert", "cargo", values=row)
    assert 0 < passes(1) <= 40, calls
    service.close()


def test_warm_vectorized_pass_runs_no_frame_per_element():
    """A warm vectorized execute runs no Python frame per element.

    Counted, not timed: one warm pass of ``service.execute`` over the 40
    queries of the store above makes at most 16,000 Python-level calls
    (``sys.setprofile`` "call" events) — a few per plan node and one per
    distinct source a traverse probes, none per mask element, index hit or
    result row.  When the join built a match dict per source row, index
    hits resumed a generator each and ordering kernels called a comparator
    per element, the pass made 29,615.
    """
    _setup, service, queries = _db4x2_service()
    for query in queries:
        service.execute(query, execution_mode="vectorized")

    def warm_pass():
        for query in queries:
            service.execute(query, execution_mode="vectorized")

    calls = _python_calls(warm_pass)
    service.close()
    assert 0 < calls <= 16_000, calls


def test_warm_join_probes_each_distinct_source_once(monkeypatch):
    """A join probes a source instance once, however many rows repeat it.

    Counted, not timed: one warm pass of the 40 queries above reads
    ``ObjectInstance.pointers`` 5,170 times, once per distinct source
    instance per traverse.  ``pointer_traversals`` still charges every
    source row.  When every row that repeated an instance probed it again,
    the pass read it 7,349 times.
    """
    _setup, service, queries = _db4x2_service()
    for query in queries:
        service.execute(query, execution_mode="vectorized")
    reads = 0
    pointers = ObjectInstance.pointers

    def counted(self, attribute_name):
        nonlocal reads
        reads += 1
        return pointers(self, attribute_name)

    monkeypatch.setattr(ObjectInstance, "pointers", counted)
    for query in queries:
        service.execute(query, execution_mode="vectorized")
    service.close()
    assert 0 < reads <= 5_170, reads


def test_write_work_does_not_grow_with_the_extent(monkeypatch):
    """A write re-derives its class's rules and refreshes statistics unread.

    Counted, not timed: with dynamic rules on, an insert, an update and a
    delete of one ``cargo`` row and then a statistics read call
    ``ShardedObjectStore.instances`` and ``DatabaseStatistics.collect``
    zero times, at 104 and at 416 instances per class — the rules and the
    statistics are read off value summaries the writes maintain.  When
    every write re-derived its class's rules from the extent and the next
    read recollected it, both counts were positive and grew with it.
    """
    calls = Counter()

    def counting(name, method):
        def counted(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return counted

    counts = []
    for class_cardinality in (104, 416):
        spec = DatabaseSpec("writes", class_cardinality, class_cardinality * 3)
        setup = build_evaluation_setup(spec, query_count=1)
        store = setup.store
        service = OptimizationService(
            setup.schema, repository=setup.repository, store=store
        )
        service.enable_dynamic_rules()
        store.statistics()
        row = dict(store.instances("cargo")[0].values, code="written")
        ceiling = max(i.values["quantity"] for i in store.instances("cargo"))
        with monkeypatch.context() as patch:
            patch.setattr(
                ShardedObjectStore,
                "instances",
                counting("instances", ShardedObjectStore.instances),
            )
            patch.setattr(
                DatabaseStatistics,
                "collect",
                staticmethod(counting("collect", DatabaseStatistics.collect)),
            )
            calls.clear()
            (oid,) = service.mutate("insert", "cargo", values=row).oids
            moved = service.mutate("update", "cargo", oid, {"quantity": ceiling + 1})
            service.mutate("delete", "cargo", oid)
            statistics = store.statistics()
            counts.append(dict(calls))
        assert moved.rules_changed  # the bound moved: rules were re-derived
        assert statistics.cardinality("cargo") == class_cardinality
    assert counts == [{}, {}], counts
