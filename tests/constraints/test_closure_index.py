"""The closure fixpoint's attribute index against the full scan it replaced.

``compute_closure`` probes, for each producer, only the admitted
(consumer, antecedent) pairs on its consequent's attribute.  The reference
below is the loop it replaced, kept here and nowhere else: every producer
tries every consumer × antecedent pair.  On seeded random constraint sets
the two must agree on everything a closure exposes — names, order,
lineage, descriptions and the round count — including when the
``max_derived`` / ``max_iterations`` cut-offs stop them part-way.
"""

from typing import List, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constraints import (
    ConstraintOrigin,
    PredicateStore,
    SemanticConstraint,
    build_example_constraints,
    compute_closure,
)
from repro.constraints.closure import ClosureResult, _resolve
from repro.constraints.horn_clause import fresh_name, unique_constraints
from repro.constraints.implication import implies
from repro.constraints.predicate import (
    AttributeOperand,
    ComparisonOperator,
    Predicate,
)
from repro.data import DatabaseSpec, build_evaluation_setup


def reference_closure(
    constraints, max_iterations: int = 16, max_derived: int = 10_000
) -> ClosureResult:
    """The full producer × consumer × antecedent scan."""
    store = PredicateStore()
    current: List[SemanticConstraint] = []
    signatures: Set[Tuple] = set()
    names: Set[str] = set()

    def admit(constraint):
        sig = constraint.signature()
        if sig in signatures:
            return False
        signatures.add(sig)
        names.add(constraint.name)
        current.append(constraint)
        return True

    for constraint in unique_constraints(tuple(constraints)):
        admit(
            SemanticConstraint.build(
                name=constraint.name,
                antecedents=store.intern_all(constraint.antecedents),
                consequent=store.intern(constraint.consequent),
                anchor_classes=constraint.anchor_classes,
                anchor_relationships=constraint.anchor_relationships,
                origin=constraint.origin,
                derived_from=constraint.derived_from,
                description=constraint.description,
            )
        )
    derived: List[SemanticConstraint] = []
    frontier = list(current)
    iterations = 0
    while frontier and iterations < max_iterations:
        iterations += 1
        new_constraints = []
        for producer in frontier:
            for consumer in list(current):
                if producer.name == consumer.name:
                    continue
                for antecedent in consumer.antecedents:
                    if not implies(producer.consequent, antecedent):
                        continue
                    name = fresh_name("cc", names)
                    candidate = _resolve(producer, consumer, antecedent, name, store)
                    if candidate is None:
                        continue
                    if admit(candidate):
                        new_constraints.append(candidate)
                        derived.append(candidate)
                        if len(derived) >= max_derived:
                            return ClosureResult(
                                tuple(current), tuple(derived), iterations, store
                            )
        frontier = new_constraints
    return ClosureResult(tuple(current), tuple(derived), iterations, store)


def _exposed(result: ClosureResult):
    """Everything a closure exposes, in order."""

    def rows(constraints):
        return [
            (
                c.name,
                c.signature(),
                c.derived_from,
                c.description,
                c.origin,
                tuple(str(p) for p in c.antecedents),
                str(c.consequent),
            )
            for c in constraints
        ]

    return rows(result.constraints), rows(result.derived), result.iterations


def assert_same_closure(constraints, **limits):
    expected = reference_closure(constraints, **limits)
    actual = compute_closure(constraints, **limits)
    assert _exposed(actual) == _exposed(expected)
    return actual


# ----------------------------------------------------------------------
# Seeded random constraint sets
# ----------------------------------------------------------------------
ATTRIBUTES = [
    AttributeOperand("cargo", "quantity"),
    AttributeOperand("cargo", "code"),
    AttributeOperand("vehicle", "class"),
    AttributeOperand("vehicle", "capacity"),
]
#: ``1`` and ``1.0`` are equal numbers but different predicate keys.
CONSTANTS = [1, 1.0, 2, 3, 5, 2.5, "x"]

selections = st.builds(
    Predicate,
    st.sampled_from(ATTRIBUTES),
    st.sampled_from(list(ComparisonOperator)),
    st.sampled_from(CONSTANTS),
)
#: Attribute-to-attribute predicates, in both orientations.
comparisons = st.builds(
    Predicate,
    st.sampled_from(ATTRIBUTES),
    st.sampled_from(list(ComparisonOperator)),
    st.sampled_from(ATTRIBUTES),
).filter(lambda p: p.left != p.right)
predicates = st.one_of(selections, selections, selections, comparisons)


@st.composite
def constraint_sets(draw):
    constraints = []
    for index in range(draw(st.integers(min_value=1, max_value=9))):
        antecedents = draw(st.lists(predicates, max_size=3))
        consequent = draw(predicates)
        if consequent.normalized() in [p.normalized() for p in antecedents]:
            continue  # trivial: no constraint may conclude its own premise
        constraints.append(
            SemanticConstraint.build(
                # A declared "cc<N>" makes the fresh names skip it.
                name=draw(st.sampled_from(["r", "cc"])) + str(index + 1),
                antecedents=antecedents,
                consequent=consequent,
                anchor_classes=draw(st.sets(st.sampled_from(["cargo", "vehicle"]))),
                anchor_relationships=draw(st.sets(st.just("collects"))),
                origin=draw(st.sampled_from(list(ConstraintOrigin))),
                description=f"rule {index + 1}",
            )
        )
    return constraints


@st.composite
def chains(draw):
    """``a0 -> a1 = v1``, ``a1 >= v1 -> a2 = v2``, ...: one link per round."""
    length = draw(st.integers(min_value=3, max_value=6))
    values = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=length + 1,
                           max_size=length + 1))
    links = []
    for index in range(length):
        left = ATTRIBUTES[index % len(ATTRIBUTES)]
        right = ATTRIBUTES[(index + 1) % len(ATTRIBUTES)]
        premise_op = draw(st.sampled_from(
            [ComparisonOperator.EQ, ComparisonOperator.GE, ComparisonOperator.LE]
        ))
        links.append(
            SemanticConstraint.build(
                name=f"k{index + 1}",
                antecedents=[Predicate(left, premise_op, values[index])],
                consequent=Predicate(right, ComparisonOperator.EQ, values[index + 1]),
                anchor_classes={left.class_name, right.class_name},
            )
        )
    return draw(st.permutations(links))


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    constraints=st.one_of(
        constraint_sets(),
        st.builds(lambda a, b: a + b, chains(), constraint_sets()),
    ),
    max_iterations=st.integers(min_value=1, max_value=16),
    max_derived=st.integers(min_value=1, max_value=60),
)
def test_index_matches_the_full_scan(constraints, max_iterations, max_derived):
    assert_same_closure(
        constraints, max_iterations=max_iterations, max_derived=max_derived
    )


# ----------------------------------------------------------------------
# Directed cases
# ----------------------------------------------------------------------
def _rule(name, antecedents, consequent, classes=("cargo",)):
    return SemanticConstraint.build(
        name, antecedents, consequent, anchor_classes=set(classes)
    )


def test_a_four_link_chain_derives_through_every_round():
    q = Predicate.selection
    constraints = [
        _rule("r1", [q("cargo.code", "=", "a")], q("cargo.quantity", "=", 5)),
        _rule("r2", [q("cargo.quantity", ">=", 3)], q("cargo.category", "=", "b")),
        _rule("r3", [q("cargo.category", "=", "b")], q("cargo.desc", "!=", "z")),
        _rule("r4", [q("cargo.desc", "!=", "z")], q("cargo.supplies", "=", 7)),
    ]
    closure = assert_same_closure(constraints)
    assert closure.iterations >= 3
    assert any(
        c.antecedents == (q("cargo.code", "=", "a"),)
        and c.consequent == q("cargo.supplies", "=", 7)
        for c in closure.derived
    )
    # Stopped part-way, the index stops where the scan stops.
    for limit in (1, 2, 3):
        assert_same_closure(constraints, max_iterations=limit)
        assert_same_closure(constraints, max_derived=limit)


def test_two_antecedents_on_one_attribute_and_ne_premises():
    q = Predicate.selection
    constraints = [
        _rule("r1", [q("cargo.code", "=", "a")], q("cargo.quantity", "=", 4)),
        _rule("r2", [q("cargo.code", "!=", "b")], q("cargo.quantity", ">", 3.0)),
        _rule(
            "r3",
            [q("cargo.quantity", ">", 1), q("cargo.quantity", "<", 9)],
            q("cargo.desc", "=", "d"),
        ),
        _rule("r4", [q("cargo.quantity", "!=", 2)], q("cargo.category", "=", 1)),
        _rule("r5", [q("cargo.category", "=", 1.0)], q("cargo.desc", "=", "e")),
    ]
    assert_same_closure(constraints)


def test_attribute_to_attribute_predicates_chain_in_either_orientation():
    left_first = Predicate.comparison("vehicle.class", "<=", "vehicle.capacity")
    right_first = Predicate.comparison("vehicle.capacity", ">=", "vehicle.class")
    constraints = [
        _rule("r1", [Predicate.selection("vehicle.desc", "=", "van")], left_first,
              ("vehicle",)),
        _rule("r2", [right_first], Predicate.selection("vehicle.class", "=", 2),
              ("vehicle",)),
    ]
    closure = assert_same_closure(constraints)
    assert [c.derived_from for c in closure.derived] == [("r1", "r2")]


@pytest.mark.parametrize("name", ["DB1", "DB2", "DB3", "DB4"])
def test_declared_sets_with_dynamic_rules(name):
    from repro.data import TABLE_4_1_SPECS
    from repro.service import OptimizationService

    setup = build_evaluation_setup(TABLE_4_1_SPECS[name], query_count=1)
    service = OptimizationService(
        setup.schema, repository=setup.repository, store=setup.store
    )
    service.enable_dynamic_rules()
    assert_same_closure(setup.repository.declared())
    service.close()


def test_example_constraints():
    assert_same_closure(build_example_constraints())


def test_a_generated_rule_set():
    setup = build_evaluation_setup(DatabaseSpec("tiny", 12, 36), query_count=1)
    assert_same_closure(setup.repository.declared())
