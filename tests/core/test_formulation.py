"""Unit tests for query formulation, profitability and class elimination."""

import hashlib
from dataclasses import replace

import pytest

from repro.constraints import Predicate
from repro.core import (
    OptimizerConfig,
    ProfitabilityAnalyzer,
    QueryFormulator,
    SemanticQueryOptimizer,
    initialize,
    TransformationEngine,
)
from repro.data import TABLE_4_1_SPECS, build_evaluation_setup, build_workload
from repro.engine import CostModel
from repro.query import Query, equivalence_key, format_query
from repro.service import OptimizationService


@pytest.fixture(scope="module")
def schema(evaluation_schema):
    """The shared evaluation schema (see tests/conftest.py)."""
    return evaluation_schema


def test_heuristic_profitability_prefers_indexed_predicates(schema):
    analyzer = ProfitabilityAnalyzer(schema)
    query = Query(
        projections=("cargo.code",),
        selective_predicates=(Predicate.equals("cargo.desc", "frozen food"),),
        classes=("cargo",),
    )
    indexed = analyzer.predicate_is_profitable(
        query, Predicate.equals("cargo.desc", "frozen food")
    )
    assert indexed.profitable

    crowded = query.add_selective_predicates(
        [Predicate.selection("cargo.quantity", ">=", 10)]
    )
    non_indexed = analyzer.predicate_is_profitable(
        crowded, Predicate.selection("cargo.quantity", ">=", 10)
    )
    assert not non_indexed.profitable

    join = analyzer.predicate_is_profitable(
        query, Predicate.comparison("driver.licenseClass", ">=", "vehicle.class")
    )
    assert not join.profitable


def test_heuristic_class_elimination_always_profitable(schema):
    analyzer = ProfitabilityAnalyzer(schema)
    query = Query(
        projections=("cargo.code",),
        relationships=("supplies",),
        classes=("cargo", "supplier"),
    )
    decision = analyzer.class_elimination_is_profitable(query, "supplier")
    assert decision.profitable


def test_cost_model_profitability_reports_costs(schema, small_setup):
    analyzer = ProfitabilityAnalyzer(schema, cost_model=small_setup.cost_model)
    query = small_setup.queries[0]
    predicate = Predicate.equals("cargo.desc", "frozen food")
    if "cargo" not in query.classes:
        query = Query(
            projections=("cargo.code",),
            classes=("cargo",),
        )
    decision = analyzer.predicate_is_profitable(query, predicate)
    assert decision.cost_with is not None and decision.cost_without is not None
    assert decision.saving == pytest.approx(
        decision.cost_without - decision.cost_with
    )


def test_formulator_drops_redundant_and_keeps_imperative(schema):
    query = Query(
        projections=("cargo.code",),
        selective_predicates=(
            Predicate.equals("cargo.category", "perishable"),
            Predicate.selection("cargo.quantity", "<=", 100),
        ),
        classes=("cargo",),
    )
    from repro.constraints import SemanticConstraint

    constraint = SemanticConstraint.build(
        "r1",
        [Predicate.equals("cargo.category", "perishable")],
        Predicate.selection("cargo.quantity", "<=", 100),
        anchor_classes={"cargo"},
    )
    init = initialize(query, [constraint])
    TransformationEngine(init.table, schema).run()
    result = QueryFormulator(schema).formulate(query, init.table)
    assert result.query.has_predicate(Predicate.equals("cargo.category", "perishable"))
    assert not result.query.has_predicate(
        Predicate.selection("cargo.quantity", "<=", 100)
    )
    assert result.discarded_redundant


def test_formulator_does_not_eliminate_projected_class(schema):
    query = Query(
        projections=("cargo.code", "supplier.name"),
        relationships=("supplies",),
        classes=("cargo", "supplier"),
    )
    init = initialize(query, [])
    result = QueryFormulator(schema).formulate(query, init.table)
    assert set(result.query.classes) == {"cargo", "supplier"}
    assert result.eliminated_classes == []


def test_formulator_does_not_eliminate_class_with_imperative_predicate(schema):
    query = Query(
        projections=("cargo.code",),
        selective_predicates=(Predicate.equals("supplier.region", "west"),),
        relationships=("supplies",),
        classes=("cargo", "supplier"),
    )
    init = initialize(query, [])
    result = QueryFormulator(schema).formulate(query, init.table)
    assert "supplier" in result.query.classes


def test_formulator_eliminates_dangling_class(schema):
    query = Query(
        projections=("cargo.code",),
        relationships=("supplies",),
        classes=("cargo", "supplier"),
    )
    init = initialize(query, [])
    result = QueryFormulator(schema).formulate(query, init.table)
    assert result.eliminated_classes == ["supplier"]
    assert result.query.classes == ("cargo",)
    assert result.query.relationships == ()


def test_formulator_cascading_elimination(schema):
    """Dropping an end class can make its neighbour dangling in turn."""
    query = Query(
        projections=("cargo.code",),
        relationships=("collects", "engComp"),
        classes=("cargo", "vehicle", "engine"),
    )
    init = initialize(query, [])
    result = QueryFormulator(schema).formulate(query, init.table)
    assert set(result.eliminated_classes) == {"engine", "vehicle"}
    assert result.query.classes == ("cargo",)


def test_class_elimination_can_be_disabled(schema):
    query = Query(
        projections=("cargo.code",),
        relationships=("supplies",),
        classes=("cargo", "supplier"),
    )
    init = initialize(query, [])
    result = QueryFormulator(schema, enable_class_elimination=False).formulate(
        query, init.table
    )
    assert result.eliminated_classes == []


def test_optimizer_requires_constraints_or_repository(schema):
    with pytest.raises(ValueError):
        SemanticQueryOptimizer(schema)


# ----------------------------------------------------------------------
# Pricing inside formulation: one snapshot, the parent's exact numbers
# ----------------------------------------------------------------------
def test_priced_query_lacking_the_predicate_is_not_trusted(small_setup):
    """A predicate missing from ``query`` is appended and that query
    priced, so a ``priced`` of ``query`` as given changes nothing."""
    analyzer = ProfitabilityAnalyzer(
        small_setup.schema, cost_model=small_setup.cost_model
    )
    moved = 0
    for query in small_setup.queries:
        for predicate in query.predicates():
            lacking = replace(
                query,
                join_predicates=[p for p in query.join_predicates if p != predicate],
                selective_predicates=[
                    p for p in query.selective_predicates if p != predicate
                ],
            )
            priced = analyzer.price(lacking)
            decision = analyzer.predicate_is_profitable(lacking, predicate, priced)
            assert decision == analyzer.predicate_is_profitable(lacking, predicate)
            moved += decision.cost_with != priced.estimate().total
    assert moved


def test_variant_without_drops_the_selective_copies_only(small_setup):
    """Wherever the predicate's copies sit, ``cost_without`` prices the
    query minus its selective-list copies, rebuilt and priced afresh."""
    model = small_setup.cost_model
    analyzer = ProfitabilityAnalyzer(small_setup.schema, cost_model=model)
    for query in small_setup.queries:
        for predicate in query.predicates():
            target = predicate.normalized()
            for placed in (
                query,
                replace(query, join_predicates=query.join_predicates + (predicate,)),
                query.with_selective_predicates(
                    query.selective_predicates + (predicate,)
                ),
            ):
                variant = placed.with_selective_predicates(
                    p for p in placed.selective_predicates if p.normalized() != target
                )
                decision = analyzer.predicate_is_profitable(
                    placed, predicate, analyzer.price(placed)
                )
                assert decision.cost_with == model.price(placed).estimate().total
                assert decision.cost_without == model.price(variant).estimate().total


@pytest.fixture()
def formulations(monkeypatch):
    """Every ``FormulationResult`` produced while the fixture is live."""
    captured = []
    formulate = QueryFormulator.formulate

    def recording(self, *args, **kwargs):
        result = formulate(self, *args, **kwargs)
        captured.append(result)
        return result

    monkeypatch.setattr(QueryFormulator, "formulate", recording)
    return captured


def _decision_lines(formulation):
    return [
        "%s|%s|%s|%s"
        % (key, d.profitable, d.cost_with.hex(), d.cost_without.hex())
        for key, d in formulation.decisions.items()
    ]


#: sha256 over the optimized text and every decision's two costs (as
#: ``float.hex``) of the 393 spine queries, recorded at the commit before
#: pricing became a value computed once (PR 12, 81212a2).
SPINE_DIGEST = "d369e60fcdde9ada1841de46865c08f246b79a311efb2f39911237e4f664d27c"

#: sha256 over what ``SPINE_DIGEST`` leaves out, for the same 393 queries:
#: every trace record in firing order, the final predicate tags, the
#: eliminated classes and the final transformation table read column by
#: column.  Recorded before the transformation table was stored by column.
SPINE_TRACE_DIGEST = "1692534f9086a13e45ad3a58fe9b197d7b1d0599e51301e9acba3e645ac5a848"


@pytest.fixture(scope="module")
def spine_optimizations():
    """``(service result, formulation, transformation table)`` for each of
    the 393 ``optimize_cold`` queries, optimized cold in generation order."""
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
    captured = []
    formulate = QueryFormulator.formulate
    transform = TransformationEngine.run

    def recording(self, *args, **kwargs):
        result = formulate(self, *args, **kwargs)
        captured.append(result)
        return result

    def running(self):
        captured.append(self.table)
        return transform(self)

    runs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QueryFormulator, "formulate", recording)
        patch.setattr(TransformationEngine, "run", running)
        for query in distinct.values():
            del captured[:]
            served = service.optimize(query, use_cache=False)
            table, formulation = captured
            runs.append((served, formulation, table))
    service.close()
    return runs


def test_spine_queries_optimize_to_the_recorded_costs(spine_optimizations):
    """The ``optimize_cold`` workload, decision by decision, bit for bit."""
    digest = hashlib.sha256()
    for served, formulation, _table in spine_optimizations:
        lines = [format_query(served.optimized)] + _decision_lines(formulation)
        digest.update("\n".join(lines).encode() + b"\0")
    assert digest.hexdigest() == SPINE_DIGEST


def _tag(tag):
    return tag.value if tag is not None else "-"


def test_spine_queries_fire_the_recorded_traces(spine_optimizations):
    """The same workload's firing order, final tags, dropped classes and
    final tables (each column's rows in the order ``column()`` gives)."""
    digest = hashlib.sha256()
    for served, _formulation, table in spine_optimizations:
        result = served.result
        lines = [
            "%s|%s|%s|%s|%s|%s"
            % (
                record.kind.value,
                record.constraint_name,
                record.predicate,
                _tag(record.new_tag),
                _tag(record.previous_tag),
                record.eliminated_class,
            )
            for record in result.trace.records
        ]
        lines += sorted(
            "%s=%s" % (predicate, tag.value)
            for predicate, tag in result.predicate_tags.items()
        )
        lines.append(",".join(result.eliminated_classes))
        lines += [
            "%s:%s"
            % (
                predicate,
                ",".join(
                    "%s=%s" % (name, tag.value)
                    for name, tag in table.column(predicate).items()
                ),
            )
            for predicate in table.predicates()
        ]
        digest.update("\n".join(lines).encode() + b"\0")
    assert digest.hexdigest() == SPINE_TRACE_DIGEST


def test_statistics_refresh_mid_formulation_cannot_split_a_decision(
    small_setup, formulations
):
    schema, statistics = small_setup.schema, small_setup.statistics
    snapshots = [
        statistics,
        replace(
            statistics,
            cardinalities={
                name: 16 * count for name, count in statistics.cardinalities.items()
            },
        ),
    ]
    model = CostModel(schema, statistics)
    reads = []

    def refreshing_statistics():
        # A store whose snapshot moves whenever pricing looks at it.
        reads.append(snapshots[len(reads) % 2])
        return reads[-1]

    model.bind_statistics(refreshing_statistics)

    def decisions(cost_model, query):
        del formulations[:]
        SemanticQueryOptimizer(
            schema,
            repository=small_setup.repository,
            cost_model=cost_model,
            config=OptimizerConfig(record_access_statistics=False),
        ).optimize(query)
        (formulation,) = formulations
        return _decision_lines(formulation)

    told_apart = 0
    for query in small_setup.queries:
        under = [
            decisions(CostModel(schema, snapshot), query) for snapshot in snapshots
        ]
        reads_before = len(reads)
        assert decisions(model, query) in under
        # One statistics read per formulation, however many decisions it
        # takes.
        assert len(reads) == reads_before + 1
        told_apart += under[0] != under[1]
    assert told_apart
