"""Physical plan trees.

The conventional optimizer of the substrate produces small left-deep plans
made of four node types:

* :class:`ScanNode` — read an object-class extent, optionally through an
  index on one of its selective predicates, applying the remaining
  single-class predicates as filters.
* :class:`TraverseNode` — follow a relationship from the instances produced
  by the child plan to the instances of a neighbouring class (a pointer
  join), applying that class's single-class predicates on the way.
* :class:`FilterNode` — apply cross-class predicates (joins introduced by
  constraints, or explicit join predicates) once both sides are bound.
* :class:`ProjectNode` — the plan's root and last operator: the query's
  projection list, which is exactly what each answer row holds.

Plans are pure, frozen (shared) descriptions; evaluation lives in
:mod:`repro.engine.executor` and cost prediction in
:mod:`repro.engine.cost_model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..constraints.predicate import Predicate
from .modes import ExecutionMode


def _predicate_columns(predicates: Sequence[Predicate]) -> Tuple[str, ...]:
    """Qualified attributes referenced by ``predicates``, deduplicated."""
    seen = dict.fromkeys(
        operand.qualified_name
        for predicate in predicates
        for operand in predicate.referenced_attributes()
    )
    return tuple(seen)


@dataclass(frozen=True)
class PlanNode:
    """Base class for plan nodes."""

    def children(self) -> Tuple["PlanNode", ...]:
        """Child nodes (empty for leaves)."""
        return ()

    def explain(self, indent: int = 0) -> str:
        """A human-readable, indented description of the plan subtree."""
        raise NotImplementedError

    def walk(self):
        """Yield this node and, recursively, every descendant."""
        yield self
        for child in self.children():
            yield from child.walk()

    def required_columns(self) -> Tuple[str, ...]:
        """Qualified attributes this node reads (its batch contract).

        The vectorized executor moves data in per-class columns; this
        declares which columns the node's predicates (or pointers or
        projections) touch.  It is introspection surface — callers that
        pre-extract columns, size batches, or audit plans read it; the
        planner/executor tests pin it.
        """
        return ()


@dataclass(frozen=True)
class ScanNode(PlanNode):
    """Scan one object class, optionally via an index."""

    class_name: str
    predicates: Tuple[Predicate, ...] = ()
    index_predicate: Optional[Predicate] = None

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        access = (
            f"IndexScan({self.index_predicate})"
            if self.index_predicate is not None
            else "Scan"
        )
        filters = ", ".join(str(p) for p in self.predicates) or "-"
        return f"{pad}{access} {self.class_name} [filters: {filters}]"

    def required_columns(self) -> Tuple[str, ...]:
        predicates = list(self.predicates)
        if self.index_predicate is not None:
            predicates.append(self.index_predicate)
        return _predicate_columns(predicates)


@dataclass(frozen=True)
class TraverseNode(PlanNode):
    """Traverse a relationship from the child plan's bound class."""

    child: PlanNode
    relationship: str
    source_class: str
    target_class: str
    pointer_attribute: str
    forward: bool
    predicates: Tuple[Predicate, ...] = ()

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        direction = "->" if self.forward else "<-"
        filters = ", ".join(str(p) for p in self.predicates) or "-"
        lines = [
            f"{pad}Traverse {self.relationship} {self.source_class} {direction} "
            f"{self.target_class} [filters: {filters}]",
            self.child.explain(indent + 1),
        ]
        return "\n".join(lines)

    def required_columns(self) -> Tuple[str, ...]:
        columns = [f"{self.source_class}.{self.pointer_attribute}"]
        columns.extend(_predicate_columns(self.predicates))
        return tuple(dict.fromkeys(columns))


@dataclass(frozen=True)
class FilterNode(PlanNode):
    """Apply predicates that span more than one bound class."""

    child: PlanNode
    predicates: Tuple[Predicate, ...] = ()

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        filters = ", ".join(str(p) for p in self.predicates) or "-"
        return "\n".join(
            [f"{pad}Filter [{filters}]", self.child.explain(indent + 1)]
        )

    def required_columns(self) -> Tuple[str, ...]:
        return _predicate_columns(self.predicates)


@dataclass(frozen=True)
class ProjectNode(PlanNode):
    """The last operator: the answer is the projection of its bindings.

    ``projections`` is the first part of the paper's five-part query, the
    qualified ``class.attribute`` names in the order the query lists them.
    The executors build one answer row per binding that reaches this node,
    holding exactly these attributes in this order
    (:func:`~repro.engine.executor.build_rows`); an empty list means every
    attribute of every bound class.
    """

    child: PlanNode
    projections: Tuple[str, ...] = ()

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        attrs = ", ".join(self.projections) or "*"
        return "\n".join(
            [f"{pad}Project [{attrs}]", self.child.explain(indent + 1)]
        )

    def required_columns(self) -> Tuple[str, ...]:
        return tuple(self.projections)


@dataclass(frozen=True)
class QueryPlan:
    """A complete plan: the root node plus bookkeeping for explain output.

    ``execution_mode`` records which engine the planner targeted.  Plans are
    engine-agnostic descriptions — either executor accepts any plan — so the
    mode is advisory: it tells :func:`~repro.engine.modes.create_executor`
    callers and traces which path produced a measurement.
    """

    root: PlanNode
    class_order: Tuple[str, ...] = ()
    notes: Tuple[str, ...] = ()
    execution_mode: ExecutionMode = ExecutionMode.ROWWISE

    def explain(self) -> str:
        """Multi-line explain output."""
        lines = [self.root.explain()]
        if self.notes:
            lines.append("notes: " + "; ".join(self.notes))
        return "\n".join(lines)

    def scan_nodes(self) -> List[ScanNode]:
        """All scan leaves of the plan."""
        return [node for node in self.root.walk() if isinstance(node, ScanNode)]

    def uses_index(self) -> bool:
        """Whether any scan in the plan goes through an index."""
        return any(node.index_predicate is not None for node in self.scan_nodes())

    def required_columns(self) -> Tuple[str, ...]:
        """Every column any node of the plan reads, deduplicated."""
        seen = dict.fromkeys(
            column
            for node in self.root.walk()
            for column in node.required_columns()
        )
        return tuple(seen)


def plan_predicates(plan: QueryPlan) -> List[Predicate]:
    """All predicates applied anywhere in ``plan`` (for tests and traces)."""
    predicates: List[Predicate] = []
    for node in plan.root.walk():
        if isinstance(node, ScanNode):
            predicates.extend(node.predicates)
            if node.index_predicate is not None:
                predicates.append(node.index_predicate)
        elif isinstance(node, (TraverseNode, FilterNode)):
            predicates.extend(node.predicates)
    return predicates
