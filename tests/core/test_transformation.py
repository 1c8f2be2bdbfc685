"""Unit tests for the transformation engine (Sections 3.2 and 3.3)."""

from repro.constraints import Predicate, SemanticConstraint
from repro.core import (
    CellTag,
    PredicateTag,
    TransformationEngine,
    TransformationKind,
    initialize,
)
from repro.data import build_evaluation_schema
from repro.query import Query


def make_query(predicates, classes, relationships=()):
    return Query(
        projections=(f"{classes[0]}.code",) if classes[0] == "cargo" else (f"{classes[0]}.name",),
        selective_predicates=tuple(predicates),
        relationships=tuple(relationships),
        classes=tuple(classes),
    )


def run_engine(query, constraints):
    schema = build_evaluation_schema()
    init = initialize(query, constraints)
    engine = TransformationEngine(init.table, schema)
    trace = engine.run()
    return engine, trace, init.table


def test_intra_class_non_indexed_consequent_becomes_redundant():
    constraint = SemanticConstraint.build(
        "r1",
        [Predicate.equals("cargo.category", "perishable")],
        Predicate.selection("cargo.quantity", "<=", 100),
        anchor_classes={"cargo"},
    )
    query = make_query(
        [
            Predicate.equals("cargo.category", "perishable"),
            Predicate.selection("cargo.quantity", "<=", 100),
        ],
        ["cargo"],
    )
    engine, trace, _table = run_engine(query, [constraint])
    tags = engine.final_tags()
    quantity = Predicate.selection("cargo.quantity", "<=", 100).normalized()
    assert tags[quantity] is PredicateTag.REDUNDANT
    assert trace.records[0].kind is TransformationKind.RESTRICTION_ELIMINATION


def test_intra_class_indexed_consequent_becomes_optional():
    constraint = SemanticConstraint.build(
        "r1",
        [Predicate.equals("cargo.category", "perishable")],
        Predicate.equals("cargo.desc", "frozen food"),
        anchor_classes={"cargo"},
    )
    query = make_query(
        [Predicate.equals("cargo.category", "perishable")], ["cargo"]
    )
    engine, trace, _table = run_engine(query, [constraint])
    tags = engine.final_tags()
    introduced = Predicate.equals("cargo.desc", "frozen food").normalized()
    assert tags[introduced] is PredicateTag.OPTIONAL
    assert trace.records[0].kind is TransformationKind.INDEX_INTRODUCTION


def test_constraint_with_unsatisfied_antecedent_never_fires():
    constraint = SemanticConstraint.build(
        "r1",
        [Predicate.equals("cargo.category", "perishable")],
        Predicate.equals("cargo.desc", "frozen food"),
        anchor_classes={"cargo"},
    )
    query = make_query([Predicate.equals("cargo.category", "bulk")], ["cargo"])
    engine, trace, _table = run_engine(query, [constraint])
    assert len(trace) == 0
    assert engine.stats.fired == 0


def test_chained_constraints_fire_through_introduced_predicate():
    """An introduction enables a later constraint whose antecedent was absent."""
    first = SemanticConstraint.build(
        "r1",
        [Predicate.equals("cargo.category", "perishable")],
        Predicate.equals("cargo.desc", "frozen food"),
        anchor_classes={"cargo"},
    )
    second = SemanticConstraint.build(
        "r2",
        [Predicate.equals("cargo.desc", "frozen food")],
        Predicate.selection("cargo.quantity", "<=", 100),
        anchor_classes={"cargo"},
    )
    query = make_query(
        [Predicate.equals("cargo.category", "perishable")], ["cargo"]
    )
    engine, trace, table = run_engine(query, [first, second])
    assert engine.stats.fired == 2
    quantity = Predicate.selection("cargo.quantity", "<=", 100).normalized()
    assert engine.final_tags()[quantity] is PredicateTag.REDUNDANT
    # The column update flipped r2's antecedent cell to present.
    assert table.get("r2", Predicate.equals("cargo.desc", "frozen food")) in (
        CellTag.PRESENT_REDUNDANT,
        CellTag.PRESENT_OPTIONAL,
        CellTag.PRESENT_ANTECEDENT,
    )


def test_constraints_enabled_together_fire_in_constraint_order():
    """One introduction enables two constraints: they are queued, and fire,
    in the order of their rows, read down the introduced predicate's column."""
    desc = Predicate.equals("cargo.desc", "frozen food")
    first = SemanticConstraint.build(
        "r1",
        [Predicate.equals("cargo.category", "perishable")],
        desc,
        anchor_classes={"cargo"},
    )
    consumers = [
        SemanticConstraint.build(
            name, [desc], consequent, anchor_classes={"cargo"}
        )
        for name, consequent in (
            ("r2", Predicate.selection("cargo.quantity", "<=", 100)),
            ("r3", Predicate.equals("cargo.code", "F")),
        )
    ]
    query = make_query(
        [Predicate.equals("cargo.category", "perishable")], ["cargo"]
    )
    for constraints in ([first] + consumers, consumers[::-1] + [first]):
        _engine, trace, _table = run_engine(query, constraints)
        fired = [record.constraint_name for record in trace.records]
        assert fired == ["r1"] + [
            c.name for c in constraints if c is not first
        ]


def test_duplicate_firings_are_skipped():
    """Two constraints implying the same present predicate: the second is a no-op."""
    a = SemanticConstraint.build(
        "a",
        [Predicate.equals("cargo.category", "perishable")],
        Predicate.equals("cargo.desc", "frozen food"),
        anchor_classes={"cargo"},
    )
    b = SemanticConstraint.build(
        "b",
        [Predicate.selection("cargo.quantity", ">=", 10)],
        Predicate.equals("cargo.desc", "frozen food"),
        anchor_classes={"cargo"},
    )
    query = make_query(
        [
            Predicate.equals("cargo.category", "perishable"),
            Predicate.selection("cargo.quantity", ">=", 10),
            Predicate.equals("cargo.desc", "frozen food"),
        ],
        ["cargo"],
    )
    engine, _trace, _table = run_engine(query, [a, b])
    # Both lower to OPTIONAL; the second firing is skipped as already lowered.
    assert engine.stats.fired + engine.stats.skipped_already_lowered == 2
    assert engine.stats.fired == 1


def test_transformation_budget_limits_firings():
    constraints = [
        SemanticConstraint.build(
            f"r{i}",
            [Predicate.equals("cargo.category", "perishable")],
            Predicate.selection("cargo.quantity", ">=", i),
            anchor_classes={"cargo"},
        )
        for i in range(1, 6)
    ]
    query = make_query(
        [Predicate.equals("cargo.category", "perishable")], ["cargo"]
    )
    schema = build_evaluation_schema()
    init = initialize(query, constraints)
    engine = TransformationEngine(init.table, schema, transformation_budget=2)
    engine.run()
    assert engine.stats.fired == 2
    assert engine.stats.budget_exhausted


def test_tags_only_ever_go_down():
    """After an intra-class redundant firing, an inter-class rule cannot raise it."""
    intra = SemanticConstraint.build(
        "intra",
        [Predicate.equals("cargo.category", "perishable")],
        Predicate.selection("cargo.quantity", "<=", 100),
        anchor_classes={"cargo"},
    )
    inter = SemanticConstraint.build(
        "inter",
        [Predicate.equals("vehicle.desc", "refrigerated truck")],
        Predicate.selection("cargo.quantity", "<=", 100),
        anchor_classes={"cargo", "vehicle"},
        anchor_relationships={"collects"},
    )
    query = Query(
        projections=("cargo.code",),
        selective_predicates=(
            Predicate.equals("cargo.category", "perishable"),
            Predicate.equals("vehicle.desc", "refrigerated truck"),
            Predicate.selection("cargo.quantity", "<=", 100),
        ),
        relationships=("collects",),
        classes=("cargo", "vehicle"),
    )
    engine, _trace, _table = run_engine(query, [intra, inter])
    quantity = Predicate.selection("cargo.quantity", "<=", 100).normalized()
    assert engine.final_tags()[quantity] is PredicateTag.REDUNDANT
