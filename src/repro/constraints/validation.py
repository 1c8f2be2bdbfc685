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
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..engine.instance import ObjectInstance
from ..engine.storage import ObjectStore
from ..schema.schema import Schema
from .horn_clause import SemanticConstraint
from .predicate import Predicate


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


class _Level(NamedTuple):
    """One class of a :class:`BindingPlan`, in enumeration order."""

    class_name: str
    #: The bound class this one is reached through; ``None`` binds ``extent``.
    source: Optional[str]
    pointer: Optional[str]
    targets: Mapping[int, ObjectInstance]
    referrers: Mapping[int, List[ObjectInstance]]
    extent: Sequence[ObjectInstance]
    #: The prune predicates whose deepest class is this one.
    checks: Tuple[Predicate, ...]


class BindingPlan:
    """How to enumerate the connected bindings of one class list on one store.

    Built once and reused for as long as pointer attributes and extents do
    not change (value attributes may: the data generator repairs values
    while it enumerates).  Each level after the first binds its class
    through the earliest bound class connected to it by a schema
    relationship; the level keeps that class's pointer attribute, the
    :meth:`~repro.engine.storage.ShardedObjectStore.oid_index` that resolves
    the pointer's targets, and the
    :meth:`~repro.engine.storage.ShardedObjectStore.referrer_map` of the
    relationship's other side.  Plans given one ``referrer_maps`` dict (one
    enforcement, one validation) scan each relationship side once between
    them.

    The order of the bindings is part of the contract (the data generator
    repairs values while it iterates): for each bound instance, the joined
    class's candidates are the targets of its own pointer, in pointer order,
    then the instances that reference it only from the other side, in extent
    order, none twice.  A class connected to no earlier one takes its whole
    extent, and so does the first class; ``limit_per_class`` caps both.

    ``prune`` predicates are evaluated at the first level where all their
    classes are bound, and a binding on which one is false is skipped with
    everything below it.  Each must read only values that stay put while the
    caller consumes the bindings.
    """

    __slots__ = ("_levels",)

    def __init__(
        self,
        schema: Schema,
        store: ObjectStore,
        class_names: Sequence[str],
        referrer_maps: Optional[Dict[Tuple[str, str], Dict[int, List]]] = None,
        limit_per_class: Optional[int] = None,
        prune: Sequence[Predicate] = (),
    ) -> None:
        if referrer_maps is None:
            referrer_maps = {}
        depth_of = {name: depth for depth, name in enumerate(class_names)}
        checks: List[List[Predicate]] = [[] for _ in class_names]
        for predicate in prune:
            depth = max(depth_of[name] for name in predicate.referenced_classes())
            checks[depth].append(predicate)
        levels = []
        for depth, class_name in enumerate(class_names):
            for earlier in class_names[:depth]:
                rel = schema.relationship_between(earlier, class_name)
                if rel is not None:
                    break
            else:
                extent = store.instances(class_name)[:limit_per_class]
                levels.append(
                    _Level(class_name, None, None, {}, {}, extent, tuple(checks[depth]))
                )
                continue
            back_pointer = rel.attribute_for(class_name)
            side = (class_name, back_pointer)
            if side not in referrer_maps:
                referrer_maps[side] = store.referrer_map(class_name, back_pointer)
            levels.append(
                _Level(
                    class_name,
                    earlier,
                    rel.attribute_for(earlier),
                    store.oid_index(class_name),
                    referrer_maps[side],
                    (),
                    tuple(checks[depth]),
                )
            )
        self._levels = tuple(levels)

    def bindings(
        self,
    ) -> Iterator[Tuple[Dict[str, ObjectInstance], Dict[str, Mapping[str, object]]]]:
        """Yield ``(binding, values)`` for every binding the pruning keeps.

        ``binding`` maps class name to instance and ``values`` class name to
        that instance's ``values``, ready for :meth:`Predicate.evaluate`.
        Both dictionaries are reused: each holds one binding until the next
        is yielded, so copy one to keep it.
        """
        if self._levels:
            yield from _walk(self._levels, 0, {}, {})


def _walk(levels, depth, binding, values):
    class_name, source, pointer, targets, referrers, extent, checks = levels[depth]
    if source is None:
        candidates = extent
    else:
        bound = binding[source]
        candidates = [
            targets[oid] for oid in bound.pointer_oids(pointer) if oid in targets
        ]
        reverse = referrers.get(bound.oid)
        if reverse:
            seen = {candidate.oid for candidate in candidates}
            candidates.extend(
                candidate for candidate in reverse if candidate.oid not in seen
            )
    last = depth + 1 == len(levels)
    # Deeper entries left from an earlier candidate are overwritten before
    # anything reads them.
    for candidate in candidates:
        binding[class_name] = candidate
        values[class_name] = candidate.values
        for predicate in checks:
            if not predicate.evaluate(values):
                break
        else:
            if last:
                yield binding, values
            else:
                yield from _walk(levels, depth + 1, binding, values)


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
    by a schema relationship are joined through it, in the order
    :class:`BindingPlan` documents.  The validator and the data generator's
    constraint enforcement walk a :class:`BindingPlan` directly.
    """
    plan = BindingPlan(
        schema,
        store,
        connectivity_order(schema, class_names),
        limit_per_class=limit_per_class,
    )
    for binding, _values in plan.bindings():
        yield dict(binding)


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
    referrer_maps: Dict[Tuple[str, str], Dict[int, List]] = {}
    for constraint in constraints:
        report.constraints_checked += 1
        class_names = connectivity_order(
            schema, sorted(constraint.referenced_classes())
        )
        missing = [name for name in class_names if not store.has_class(name)]
        if missing:
            # Classes with no extent cannot produce violating bindings.
            continue
        plan = BindingPlan(
            schema, store, class_names, referrer_maps, limit_per_class
        )
        for binding, values in plan.bindings():
            report.bindings_checked += 1
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
