"""The conventional (physical) query planner.

The semantic optimizer of the paper sits *in front of* a conventional
optimizer: once the transformed query is formulated, a conventional planner
decides access methods and traversal order.  This module is that planner for
our substrate.  It is deliberately simple — the point of the reproduction is
the semantic optimizer, not a state-of-the-art physical optimizer — but it
makes the decisions that give semantic transformations their payoff:

* pick the *driver class* with the fewest estimated matching instances,
* use an index scan when a selective predicate falls on an indexed
  attribute (this is what makes *index introduction* profitable),
* bind the remaining classes by traversing the query's relationships from
  already-bound classes (pointer joins),
* evaluate single-class predicates as early as possible and cross-class
  predicates once both sides are bound.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple, Union

from ..constraints.predicate import Predicate
from ..query.query import Query, QueryError
from ..schema.schema import Schema
from .cost_model import CostModel
from .modes import ExecutionMode, resolve_execution_mode
from .plan import FilterNode, PlanNode, ProjectNode, QueryPlan, ScanNode, TraverseNode
from .statistics import DatabaseStatistics


class PlanningError(QueryError):
    """Raised when no valid plan can be produced for a query."""


class ConventionalPlanner:
    """Builds a :class:`~repro.engine.plan.QueryPlan` for a five-part query.

    ``execution_mode`` selects which engine the emitted plans target
    (row-wise interpretation or vectorized batches; default vectorized).
    The plan *shape* is deliberately identical in every mode — each
    executor accepts any plan, and metric parity between the engines
    depends on it — so the mode is purely recorded on the plan (and in its
    notes) for executor factories and traces.  The left-deep chains this
    planner emits are traversals, filters and a projection over one scan,
    which is what lets :class:`~repro.engine.parallel.ParallelExecutor`
    split the driver scan without changing the plan shape.
    """

    def __init__(
        self,
        schema: Schema,
        statistics: DatabaseStatistics,
        cost_model: Optional[CostModel] = None,
        execution_mode: Optional[Union[str, ExecutionMode]] = None,
    ) -> None:
        self.schema = schema
        self.statistics = statistics
        self.cost_model = cost_model or CostModel(schema, statistics)
        self.execution_mode = resolve_execution_mode(execution_mode)

    def _is_indexed(self, class_name: str, attribute_name: str) -> bool:
        """Live index availability: statistics first, schema as fallback.

        Statistics collected from a store carry the store's *current*
        index set, so runtime-created indexes attract index scans (and
        dropped ones stop doing so) without any schema change.
        """
        known = self.statistics.is_indexed(class_name, attribute_name)
        if known is not None:
            return known
        return self.schema.is_indexed(class_name, attribute_name)

    def _index_predicate(
        self, class_name: str, predicates: Sequence[Predicate]
    ) -> Optional[Predicate]:
        """Pick the most selective indexed predicate for an index scan."""
        candidates = [
            p
            for p in predicates
            if p.is_selection
            and self._is_indexed(class_name, p.left.attribute_name)
        ]
        if not candidates:
            return None
        return min(candidates, key=self.statistics.selectivity)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, query: Query) -> QueryPlan:
        """Produce a plan for ``query``.

        Raises
        ------
        PlanningError
            When the query's classes cannot all be connected through the
            query's relationships (the executor does not implement cartesian
            products because path queries never need them).
        """
        query.validate(self.schema)
        # One pricing of the query answers every estimate below and hands
        # over the predicate partition it was made from.
        pricing = self.cost_model.price(query)
        local, cross = pricing.local, pricing.cross
        notes: List[str] = []

        driver = pricing.driver()
        driver_predicates = list(local[driver])
        index_predicate = self._index_predicate(driver, driver_predicates)
        if index_predicate is not None:
            driver_predicates = [
                p for p in driver_predicates if p is not index_predicate
            ]
            notes.append(f"index scan on {driver} via {index_predicate}")

        node: PlanNode = ScanNode(
            class_name=driver,
            predicates=tuple(driver_predicates),
            index_predicate=index_predicate,
        )
        bound: Set[str] = {driver}
        order: List[str] = [driver]
        remaining = [name for name in query.classes if name != driver]
        relationships = pricing.relationships

        progress = True
        while remaining and progress:
            progress = False
            # Prefer the reachable class with the fewest matching instances so
            # intermediate results shrink as early as possible.
            reachable: List[Tuple[float, str]] = []
            for class_name in remaining:
                connecting = [
                    rel
                    for rel in relationships
                    if rel.involves(class_name) and rel.other(class_name) in bound
                ]
                if connecting:
                    estimate = pricing.class_price(class_name).matching
                    reachable.append((estimate, class_name))
            if not reachable:
                break
            reachable.sort()
            _, class_name = reachable[0]
            rel = next(
                rel
                for rel in relationships
                if rel.involves(class_name) and rel.other(class_name) in bound
            )
            source_class = rel.other(class_name)
            forward = rel.attribute_for(source_class) is not None
            node = TraverseNode(
                child=node,
                relationship=rel.name,
                source_class=source_class,
                target_class=class_name,
                pointer_attribute=rel.attribute_for(source_class),
                forward=True,
                predicates=tuple(local[class_name]),
            )
            bound.add(class_name)
            order.append(class_name)
            remaining.remove(class_name)
            progress = True

        if remaining:
            raise PlanningError(
                f"classes {remaining!r} cannot be reached through the query's "
                f"relationships {list(query.relationships)!r}"
            )

        if cross:
            node = FilterNode(child=node, predicates=tuple(cross))
        node = ProjectNode(child=node, projections=tuple(query.projections))
        if self.execution_mode is ExecutionMode.VECTORIZED:
            notes.append("vectorized batch execution")
        return QueryPlan(
            root=node,
            class_order=tuple(order),
            notes=tuple(notes),
            execution_mode=self.execution_mode,
        )
