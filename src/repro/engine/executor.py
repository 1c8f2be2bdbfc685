"""Plan execution against the object store.

The executor evaluates the plans produced by
:class:`~repro.engine.planner.ConventionalPlanner` and keeps counters of the
primitive operations performed (instances retrieved, predicates evaluated,
pointers traversed, index lookups).  Those counters are the measured cost of
a query in the Table 4.2 reproduction — the same role the relational DBMS
played in the paper's experiments, where it was used "to simulate the cost
ratios of the optimized and original queries".

Result rows are the query's answer: exactly the plan's projection list, in
qualified ``class.attribute`` form and in projection-list order.  They are
built once, by :func:`build_rows`, from the bindings the last operator
produced — the one place in the engine that constructs a result row, shared
by all three executors.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..constraints.predicate import Predicate
from ..query.query import Query
from ..schema.schema import Schema
from .instance import ObjectInstance
from .modes import ExecutionMode
from .plan import FilterNode, PlanNode, ProjectNode, QueryPlan, ScanNode, TraverseNode
from .statistics import DatabaseStatistics
from .storage import ObjectStore


@dataclass
class ExecutionMetrics:
    """Counters of the primitive operations performed by one execution."""

    instances_retrieved: int = 0
    predicate_evaluations: int = 0
    pointer_traversals: int = 0
    index_lookups: int = 0
    rows_output: int = 0

    def merge(self, other: "ExecutionMetrics") -> "ExecutionMetrics":
        """Element-wise sum of two metric sets."""
        return ExecutionMetrics(
            instances_retrieved=self.instances_retrieved + other.instances_retrieved,
            predicate_evaluations=(
                self.predicate_evaluations + other.predicate_evaluations
            ),
            pointer_traversals=self.pointer_traversals + other.pointer_traversals,
            index_lookups=self.index_lookups + other.index_lookups,
            rows_output=self.rows_output + other.rows_output,
        )

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view, convenient for reports."""
        return {
            "instances_retrieved": self.instances_retrieved,
            "predicate_evaluations": self.predicate_evaluations,
            "pointer_traversals": self.pointer_traversals,
            "index_lookups": self.index_lookups,
            "rows_output": self.rows_output,
        }


@dataclass(frozen=True)
class ShardReport:
    """Per-shard accounting of one partition-parallel execution.

    ``elapsed`` is the wall-clock time the shard's pipeline spent inside
    its worker (excluding queueing and transport), so the spread across
    reports shows partition skew.
    """

    shard_id: int
    row_count: int
    elapsed: float
    driver_rows: int = 0


@dataclass
class ExecutionResult:
    """The answer rows plus metrics from executing one plan.

    ``rows`` is the projection (see :func:`build_rows`): one row per
    binding, in binding order, duplicates kept, each holding exactly the
    plan's projection list.  An attribute the query did not project is not
    in the rows; a caller who wants it projects it.

    ``shard_reports`` is only populated by the parallel engine when the
    plan actually fanned out (one report per non-empty shard); in-process
    executions leave it ``None``.
    """

    rows: List[Dict[str, Any]]
    metrics: ExecutionMetrics
    plan: Optional[QueryPlan] = None
    shard_reports: Optional[List[ShardReport]] = None

    @property
    def row_count(self) -> int:
        """Number of result rows."""
        return len(self.rows)


#: A partial result during execution: class name -> bound instance.
Binding = Dict[str, ObjectInstance]


def build_rows(
    plan: QueryPlan, columns: Mapping[str, Sequence[ObjectInstance]]
) -> List[Dict[str, Any]]:
    """The answer rows of ``plan`` over its final bindings.

    ``columns`` holds the bindings column-wise: one equally long sequence of
    instances per bound class, in binding order.  Each row carries the
    projection list of the plan's root :class:`ProjectNode`, in list order
    (an attribute an instance lacks reads ``None``).  An empty projection
    list — or a plan without a projection root — means every attribute of
    every bound class, classes in binding order.
    """
    root = plan.root
    projections = root.projections if isinstance(root, ProjectNode) else ()
    if not projections:
        rows = []
        for binding in zip(*columns.values()):
            row: Dict[str, Any] = {}
            for instance in binding:
                row.update(instance.qualified_values())
            rows.append(row)
        return rows
    # Filled a column at a time: one-key rows for the first projection,
    # then each further one assigned down the rows.  Keys stay in
    # projection-list order, so the wire bytes do not depend on it.
    first, *rest = projections
    class_name, attribute = first.split(".", 1)
    rows = [{first: instance.values.get(attribute)} for instance in columns[class_name]]
    for projection in rest:
        class_name, attribute = projection.split(".", 1)
        for row, instance in zip(rows, columns[class_name]):
            row[projection] = instance.values.get(attribute)
    return rows


class QueryExecutor:
    """Executes query plans (or queries directly) against an object store.

    Parameters
    ----------
    schema, store:
        The database to execute against.
    join_strategy:
        ``"hash"`` (default) builds the candidate set of a traversed class
        once per traverse node, like a hash join.  ``"nested_loop"``
        re-scans (or re-probes the index of) the traversed class for every
        partial result, which models the behaviour of the simple relational
        executor the paper used to measure cost ratios — execution cost then
        grows super-linearly with database size, as it did in the paper's
        experiments, and the savings from introduced indexed predicates and
        eliminated classes are correspondingly larger.
    """

    #: The mode this executor implements (introspection/factory symmetry
    #: with :class:`~repro.engine.vectorized.VectorizedExecutor`).
    mode = ExecutionMode.ROWWISE

    def __init__(
        self,
        schema: Schema,
        store: ObjectStore,
        join_strategy: str = "hash",
    ) -> None:
        if join_strategy not in ("hash", "nested_loop"):
            raise ValueError("join_strategy must be 'hash' or 'nested_loop'")
        self.schema = schema
        self.store = store
        self.join_strategy = join_strategy

    def statistics(self) -> DatabaseStatistics:
        """Statistics current for the store's version (the store's cache)."""
        return self.store.statistics()

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def execute_plan(self, plan: QueryPlan) -> ExecutionResult:
        """Execute ``plan`` and return rows plus metrics."""
        metrics = ExecutionMetrics()
        bindings = self._run(plan.root, metrics)
        rows: List[Dict[str, Any]] = []
        if bindings:
            columns = {
                class_name: [binding[class_name] for binding in bindings]
                for class_name in bindings[0]
            }
            rows = build_rows(plan, columns)
        metrics.rows_output = len(rows)
        return ExecutionResult(rows=rows, metrics=metrics, plan=plan)

    def plan(self, query: Query) -> QueryPlan:
        """The plan :meth:`execute` runs: ``query`` under current statistics."""
        from .planner import ConventionalPlanner

        return ConventionalPlanner(
            self.schema, self.statistics(), execution_mode=self.mode
        ).plan(query)

    def execute(self, query: Query) -> ExecutionResult:
        """Plan and execute ``query`` in one call."""
        return self.execute_plan(self.plan(query))

    # ------------------------------------------------------------------
    # Node evaluation
    # ------------------------------------------------------------------
    def _run(self, node: PlanNode, metrics: ExecutionMetrics) -> List[Binding]:
        if isinstance(node, ScanNode):
            return self._run_scan(node, metrics)
        if isinstance(node, TraverseNode):
            bindings = self._run(node.child, metrics)
            return self._run_traverse(node, bindings, metrics)
        if isinstance(node, FilterNode):
            bindings = self._run(node.child, metrics)
            return self._run_filter(node, bindings, metrics)
        if isinstance(node, ProjectNode):
            # The last operator: its bindings are what build_rows projects.
            return self._run(node.child, metrics)
        raise TypeError(f"unknown plan node type {type(node).__name__}")

    def _candidate_instances(
        self,
        class_name: str,
        predicates: Sequence[Predicate],
        index_predicate: Optional[Predicate],
        metrics: ExecutionMetrics,
    ) -> List[ObjectInstance]:
        """Instances of ``class_name`` passing the given predicates.

        Uses the index for ``index_predicate`` when provided (or when one of
        the predicates is index-answerable) and applies the rest by
        evaluation.
        """
        remaining = list(predicates)
        instances: List[ObjectInstance]
        chosen = index_predicate
        if chosen is None:
            for predicate in remaining:
                if self.store.indexes.can_answer(predicate):
                    chosen = predicate
                    break
        if chosen is not None:
            oids = self.store.indexes.lookup(chosen)
            if oids is None:
                chosen = None
            else:
                metrics.index_lookups += 1
                instances = [
                    instance
                    for instance in (
                        self.store.get(class_name, oid) for oid in oids
                    )
                    if instance is not None
                ]
                metrics.instances_retrieved += len(instances)
                remaining = [p for p in remaining if p is not chosen]
        if chosen is None:
            instances = self.store.instances(class_name)
            metrics.instances_retrieved += len(instances)

        result = []
        for instance in instances:
            keep = True
            for predicate in remaining:
                metrics.predicate_evaluations += 1
                if not predicate.evaluate({class_name: instance.values}):
                    keep = False
                    break
            if keep:
                result.append(instance)
        return result

    def _run_scan(
        self, node: ScanNode, metrics: ExecutionMetrics
    ) -> List[Binding]:
        predicates = list(node.predicates)
        if node.index_predicate is not None:
            predicates = [node.index_predicate] + predicates
        instances = self._candidate_instances(
            node.class_name, predicates, node.index_predicate, metrics
        )
        return [{node.class_name: instance} for instance in instances]

    def _run_traverse(
        self,
        node: TraverseNode,
        bindings: List[Binding],
        metrics: ExecutionMetrics,
    ) -> List[Binding]:
        relationship = self.schema.relationship(node.relationship)
        source_class = node.source_class
        target_class = node.target_class
        source_attribute = relationship.attribute_for(source_class)
        target_attribute = relationship.attribute_for(target_class)

        if self.join_strategy == "nested_loop":
            return self._run_traverse_nested_loop(
                node, bindings, metrics, source_attribute, target_attribute
            )

        # Build the candidate set for the target class once (a hash-join
        # style build), applying the target's local predicates up front.
        candidates = self._candidate_instances(
            target_class, node.predicates, None, metrics
        )
        by_oid: Dict[int, ObjectInstance] = {c.oid: c for c in candidates}
        by_back_pointer: Dict[int, List[ObjectInstance]] = defaultdict(list)
        for candidate in candidates:
            for back in candidate.pointer_oids(target_attribute):
                by_back_pointer[back].append(candidate)

        results: List[Binding] = []
        for binding in bindings:
            source_instance = binding.get(source_class)
            if source_instance is None:
                continue
            metrics.pointer_traversals += 1
            matches: Dict[int, ObjectInstance] = {}
            for forward_oid in source_instance.pointer_oids(source_attribute):
                if forward_oid in by_oid:
                    matches[forward_oid] = by_oid[forward_oid]
            for candidate in by_back_pointer.get(source_instance.oid, ()):
                matches[candidate.oid] = candidate
            for candidate in matches.values():
                extended = dict(binding)
                extended[target_class] = candidate
                results.append(extended)
        return results

    def _run_traverse_nested_loop(
        self,
        node: TraverseNode,
        bindings: List[Binding],
        metrics: ExecutionMetrics,
        source_attribute: str,
        target_attribute: str,
    ) -> List[Binding]:
        """Nested-loop variant: re-derive the candidate set per partial result."""
        results: List[Binding] = []
        for binding in bindings:
            source_instance = binding.get(node.source_class)
            if source_instance is None:
                continue
            metrics.pointer_traversals += 1
            candidates = self._candidate_instances(
                node.target_class, node.predicates, None, metrics
            )
            forward = set(source_instance.pointer_oids(source_attribute))
            for candidate in candidates:
                linked = candidate.oid in forward or source_instance.oid in set(
                    candidate.pointer_oids(target_attribute)
                )
                if linked:
                    extended = dict(binding)
                    extended[node.target_class] = candidate
                    results.append(extended)
        return results

    def _run_filter(
        self,
        node: FilterNode,
        bindings: List[Binding],
        metrics: ExecutionMetrics,
    ) -> List[Binding]:
        results = []
        for binding in bindings:
            values = {name: instance.values for name, instance in binding.items()}
            keep = True
            for predicate in node.predicates:
                metrics.predicate_evaluations += 1
                if not predicate.evaluate(values):
                    keep = False
                    break
            if keep:
                results.append(binding)
        return results
