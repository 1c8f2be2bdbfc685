"""Pruned constraint enforcement repairs exactly what the exhaustive loop did.

``DatabaseGenerator`` evaluates each antecedent at the first binding level
where its classes are bound and skips the subtree when it is false.  The
reference below is the loop it replaced: every connected binding, every
antecedent evaluated at the leaf on current values.  Both must produce the
same rows, the same pass count and the same repaired count.
"""

import pytest

from repro.constraints import Predicate, SemanticConstraint
from repro.constraints.validation import enumerate_bindings
from repro.data import (
    TABLE_4_1_SPECS,
    DatabaseGenerator,
    build_evaluation_constraints,
    build_evaluation_schema,
)


class ExhaustiveGenerator(DatabaseGenerator):
    """Enforcement without pruning: the reference for the pruned generator."""

    def _enforce_constraints(self, store):
        repaired_total = 0
        for pass_number in range(1, self.max_enforcement_passes + 1):
            repaired = [self._enforce_all(store, c) for c in self.constraints]
            repaired_total += sum(repaired)
            if not any(repaired):
                return pass_number, repaired_total
        raise ValueError("constraint enforcement did not converge")

    def _enforce_all(self, store, constraint):
        class_names = sorted(constraint.referenced_classes())
        repaired = 0
        for binding in enumerate_bindings(self.schema, store, class_names):
            values = {name: instance.values for name, instance in binding.items()}
            if not all(p.evaluate(values) for p in constraint.antecedents):
                continue
            if constraint.consequent.evaluate(values):
                continue
            self._repair(binding, constraint.consequent)
            repaired += 1
        return repaired


def _hand_built_constraints():
    def rule(name, antecedents, consequent):
        classes = set().union(
            *(p.referenced_classes() for p in [*antecedents, consequent])
        )
        return SemanticConstraint.build(
            name, antecedents, consequent, anchor_classes=classes
        )

    return [
        # An antecedent on the written class, on another attribute: it
        # prunes at the first level.
        rule(
            "other_attribute",
            [
                Predicate.equals("cargo.category", "bulk"),
                Predicate.equals("vehicle.desc", "van"),
            ],
            Predicate.equals("cargo.desc", "machinery"),
        ),
        # An antecedent that reads the written attribute, with an
        # order-sensitive consequent: the first collecting vehicle's class
        # wins, and the antecedent is false for the cargo's later bindings.
        rule(
            "reads_written",
            [Predicate.selection("cargo.quantity", ">=", 100)],
            Predicate.comparison("cargo.quantity", "=", "vehicle.class"),
        ),
        # A join antecedent.
        rule(
            "join",
            [Predicate.comparison("driver.licenseClass", "<", "vehicle.class")],
            Predicate.equals("driver.clearance", "secret"),
        ),
        # Three classes (cargo, then supplier and vehicle through it): the
        # supplier antecedent prunes the vehicle level below it, and the
        # cargo.desc one stays at the leaf because the consequent writes it.
        rule(
            "deeper_class",
            [
                Predicate.equals("supplier.region", "west"),
                Predicate.equals("cargo.desc", "textiles"),
            ],
            Predicate.comparison("cargo.desc", "=", "vehicle.desc"),
        ),
    ]


def _outcome(generator_class, constraints, spec, seed):
    generated = generator_class(
        build_evaluation_schema(), constraints, seed=seed
    ).generate(spec)
    return (
        list(generated.store.snapshot_rows()),
        generated.enforcement_passes,
        generated.repaired_bindings,
    )


@pytest.mark.parametrize("seed", [3, 7, 11])
@pytest.mark.parametrize("name", ["DB1", "DB2", "DB3"])
def test_pruned_enforcement_equals_the_exhaustive_loop(name, seed):
    constraints = build_evaluation_constraints()
    spec = TABLE_4_1_SPECS[name]
    expected = _outcome(ExhaustiveGenerator, constraints, spec, seed)
    assert expected[2] > 0
    assert _outcome(DatabaseGenerator, constraints, spec, seed) == expected


@pytest.mark.parametrize("seed", [3, 7, 11])
@pytest.mark.parametrize("name", ["DB1", "DB2"])
def test_pruned_enforcement_equals_the_exhaustive_loop_on_hand_built_rules(
    name, seed
):
    constraints = _hand_built_constraints()
    spec = TABLE_4_1_SPECS[name]
    expected = _outcome(ExhaustiveGenerator, constraints, spec, seed)
    assert expected[2] > 0
    assert _outcome(DatabaseGenerator, constraints, spec, seed) == expected
