"""Integrity validation of database contents against semantic constraints.

Semantic constraints double as integrity constraints ("which are also used to
ensure the semantic validity of the database", Section 1 of the paper).  The
validator checks that every binding of instances connected through the
schema's relationships satisfies every constraint; it is used by the
constraint-consistent data generator's self-check and by tests to guarantee
that the synthetic databases actually obey the knowledge the optimizer
exploits — otherwise the "optimized" queries could return different answers
and the Table 4.2 reproduction would be meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..engine.storage import ObjectStore
from ..schema.schema import Schema
from .horn_clause import SemanticConstraint


@dataclass
class Violation:
    """A single constraint violation found during validation."""

    constraint: str
    binding_oids: Dict[str, int]
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.constraint} violated by {self.binding_oids}: {self.detail}"


@dataclass
class ValidationReport:
    """Outcome of validating a database against a constraint set."""

    constraints_checked: int = 0
    bindings_checked: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def is_valid(self) -> bool:
        """Whether no violations were found."""
        return not self.violations

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "VALID" if self.is_valid else f"{len(self.violations)} violations"
        return (
            f"{self.constraints_checked} constraints, "
            f"{self.bindings_checked} bindings checked: {status}"
        )


def _bindings_for_classes(
    schema: Schema,
    store: ObjectStore,
    class_names: Sequence[str],
    limit_per_class: Optional[int],
):
    """Yield bindings of instances for ``class_names`` joined along relationships.

    Classes connected by a relationship in the schema are joined through the
    relationship's pointer attributes; unconnected classes would produce a
    cross product, so they are bound independently only when the class list
    has a single member.  The generator yields dictionaries mapping class
    name to the bound :class:`~repro.engine.instance.ObjectInstance`.

    The order of the bindings is part of the contract (the data generator
    repairs values while it iterates): for each bound instance, the joined
    class's candidates are the targets of its own pointer, in pointer order,
    then the instances that reference it only from the other side, in extent
    order, none twice.  The reverse side is read from
    :meth:`~repro.engine.storage.ShardedObjectStore.referrer_map`, built on
    first use and held for this one enumeration, so it relies on one
    condition: pointer attributes and extents do not change while the
    enumeration is in flight.  Value attributes may (repairs touch only
    those).
    """
    if not class_names:
        return
    first = class_names[0]
    first_instances = store.instances(first)
    if limit_per_class is not None:
        first_instances = first_instances[:limit_per_class]

    # (class, pointer attribute) -> store.referrer_map of that side.
    referrer_maps: Dict[Tuple[str, str], Dict[int, List]] = {}
    for instance in first_instances:
        binding = {first: instance}
        yield from _extend_binding(
            schema, store, class_names, 1, binding, limit_per_class, referrer_maps
        )


def _extend_binding(
    schema: Schema,
    store: ObjectStore,
    class_names: Sequence[str],
    index: int,
    binding,
    limit_per_class: Optional[int],
    referrer_maps,
):
    if index >= len(class_names):
        yield dict(binding)
        return
    next_class = class_names[index]
    # Find a relationship connecting next_class to a class already bound.
    candidates = None
    for bound_class, bound_instance in binding.items():
        rel = schema.relationship_between(bound_class, next_class)
        if rel is None:
            continue
        pointer = rel.attribute_for(bound_class)
        back_pointer = rel.attribute_for(next_class)
        forward = [
            store.get(next_class, oid)
            for oid in bound_instance.pointer_oids(pointer)
        ]
        candidates = [instance for instance in forward if instance is not None]
        # Also pick up links stored only on the other side of the
        # relationship (reverse pointers).
        side = (next_class, back_pointer)
        if side not in referrer_maps:
            referrer_maps[side] = store.referrer_map(next_class, back_pointer)
        seen = {instance.oid for instance in candidates}
        candidates.extend(
            candidate
            for candidate in referrer_maps[side].get(bound_instance.oid, ())
            if candidate.oid not in seen
        )
        break
    if candidates is None:
        # No relationship to any bound class: fall back to all instances.
        candidates = store.instances(next_class)
        if limit_per_class is not None:
            candidates = candidates[:limit_per_class]
    for candidate in candidates:
        binding[next_class] = candidate
        yield from _extend_binding(
            schema,
            store,
            class_names,
            index + 1,
            binding,
            limit_per_class,
            referrer_maps,
        )
        del binding[next_class]


def connectivity_order(schema: Schema, class_names: Sequence[str]) -> List[str]:
    """Order ``class_names`` so each class connects to an earlier one when possible.

    Binding enumeration joins a new class to the already-bound ones through a
    schema relationship; visiting the classes in connectivity order avoids
    falling back to cross products for class sets that *are* connected but
    happen to be listed in an unfortunate order.
    """
    remaining = list(dict.fromkeys(class_names))
    if not remaining:
        return []
    ordered = [remaining.pop(0)]
    while remaining:
        for candidate in remaining:
            if any(
                schema.relationship_between(candidate, placed) is not None
                for placed in ordered
            ):
                ordered.append(candidate)
                remaining.remove(candidate)
                break
        else:
            ordered.append(remaining.pop(0))
    return ordered


def enumerate_bindings(
    schema: Schema,
    store: ObjectStore,
    class_names: Sequence[str],
    limit_per_class: Optional[int] = None,
):
    """Public wrapper over the binding enumerator.

    Yields dictionaries mapping each class in ``class_names`` to an
    :class:`~repro.engine.instance.ObjectInstance`, where classes connected
    by a schema relationship are joined through it.  Shared by the validator
    and by the constraint-enforcement pass of the data generator.
    """
    ordered = connectivity_order(schema, class_names)
    yield from _bindings_for_classes(schema, store, ordered, limit_per_class)


def validate_database(
    schema: Schema,
    store: ObjectStore,
    constraints: Iterable[SemanticConstraint],
    limit_per_class: Optional[int] = None,
) -> ValidationReport:
    """Check every constraint against every connected binding of instances.

    Parameters
    ----------
    schema, store:
        The schema and the object store holding the database instance.
    constraints:
        The semantic constraints to check.
    limit_per_class:
        Optional cap on the number of instances examined per class, useful
        to keep validation of the larger synthetic databases fast in tests.
    """
    report = ValidationReport()
    for constraint in constraints:
        report.constraints_checked += 1
        class_names = connectivity_order(
            schema, sorted(constraint.referenced_classes())
        )
        missing = [name for name in class_names if not store.has_class(name)]
        if missing:
            # Classes with no extent cannot produce violating bindings.
            continue
        for binding in _bindings_for_classes(
            schema, store, class_names, limit_per_class
        ):
            report.bindings_checked += 1
            values: Mapping[str, Mapping[str, object]] = {
                name: instance.values for name, instance in binding.items()
            }
            if not constraint.holds_for(values):
                report.violations.append(
                    Violation(
                        constraint=constraint.name,
                        binding_oids={
                            name: instance.oid
                            for name, instance in binding.items()
                        },
                        detail=str(constraint),
                    )
                )
    return report


def assert_valid(
    schema: Schema,
    store: ObjectStore,
    constraints: Iterable[SemanticConstraint],
    limit_per_class: Optional[int] = None,
) -> ValidationReport:
    """Validate and raise ``AssertionError`` when violations are found."""
    report = validate_database(schema, store, constraints, limit_per_class)
    if not report.is_valid:
        first = report.violations[0]
        raise AssertionError(
            f"database violates semantic constraints: {first} "
            f"({len(report.violations)} total violations)"
        )
    return report
