"""Query formulation (Section 3.4).

Once the transformation loop has settled the tag of every candidate
predicate, the formulation step builds the transformed query:

1. derive the final tag ``tp(pj)`` of every candidate predicate from the
   transformation table (imperative / optional / redundant);
2. apply the **class elimination** rule where desirable: a class with no
   projected attribute, no imperative predicate and linked to at most one
   other class in the query is dangling and may be dropped (profitability is
   checked through the cost model when available);
3. run the **cost-benefit analysis** of Table 3.3 on the optional
   predicates, reclassifying the unprofitable ones as redundant;
4. emit the final query containing only the imperative and retained optional
   predicates, over the surviving classes and relationships.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..constraints.predicate import Predicate
from ..query.query import Query
from ..schema.schema import Schema
from .profitability import ProfitabilityAnalyzer, ProfitabilityDecision
from .rules import RetentionAction, TransformationKind, retention_action
from .table import TransformationTable
from .tags import PredicateTag
from .trace import OptimizationTrace, TransformationRecord


@dataclass
class FormulationResult:
    """The transformed query plus everything decided on the way."""

    query: Query
    predicate_tags: Dict[Predicate, PredicateTag] = field(default_factory=dict)
    retained_optional: List[Predicate] = field(default_factory=list)
    discarded_optional: List[Predicate] = field(default_factory=list)
    discarded_redundant: List[Predicate] = field(default_factory=list)
    eliminated_classes: List[str] = field(default_factory=list)
    decisions: Dict[str, ProfitabilityDecision] = field(default_factory=dict)


class QueryFormulator:
    """Builds the final query from the transformation table."""

    def __init__(
        self,
        schema: Schema,
        analyzer: Optional[ProfitabilityAnalyzer] = None,
        enable_class_elimination: bool = True,
    ) -> None:
        self.schema = schema
        self.analyzer = analyzer or ProfitabilityAnalyzer(schema)
        self.enable_class_elimination = enable_class_elimination

    # ------------------------------------------------------------------
    # Class elimination
    # ------------------------------------------------------------------
    def _query_degree(self, query: Query, class_name: str) -> int:
        """Number of query relationships the class participates in."""
        degree = 0
        for name in query.relationships:
            relationship = self.schema.relationship(name)
            if relationship.involves(class_name):
                degree += 1
        return degree

    def _eliminable_classes(
        self,
        query: Query,
        tags: Dict[Predicate, PredicateTag],
    ) -> List[str]:
        """Classes currently satisfying the dangling-class condition."""
        projected = query.projection_classes()
        candidates = []
        for class_name in query.classes:
            if class_name in projected:
                continue
            has_imperative = any(
                tag is PredicateTag.IMPERATIVE and predicate.references_class(class_name)
                for predicate, tag in tags.items()
            )
            if has_imperative:
                continue
            if self._query_degree(query, class_name) <= 1 and len(query.classes) > 1:
                candidates.append(class_name)
        return candidates

    # ------------------------------------------------------------------
    # Formulation
    # ------------------------------------------------------------------
    def formulate(
        self,
        original: Query,
        table: TransformationTable,
        trace: Optional[OptimizationTrace] = None,
    ) -> FormulationResult:
        """Produce the transformed query from the final table state."""
        tags: Dict[Predicate, PredicateTag] = dict(table.final_predicates())
        result = FormulationResult(query=original, predicate_tags=dict(tags))

        # Step 1/2: class elimination (iterated — dropping one dangling class
        # can make its neighbour dangling in turn).
        working = original
        # One statistics-and-weights snapshot prices every decision below.
        priced = self.analyzer.price(working)
        if self.enable_class_elimination:
            changed = True
            while changed and len(working.classes) > 1:
                changed = False
                for class_name in self._eliminable_classes(working, tags):
                    decision = self.analyzer.class_elimination_is_profitable(
                        working, class_name, priced
                    )
                    result.decisions[f"class:{class_name}"] = decision
                    if not decision.profitable:
                        continue
                    working = working.without_class(class_name, self.schema)
                    priced = priced and priced.reprice(working)
                    result.eliminated_classes.append(class_name)
                    if trace is not None:
                        trace.add(
                            TransformationRecord(
                                kind=TransformationKind.CLASS_ELIMINATION,
                                eliminated_class=class_name,
                            )
                        )
                    changed = True
                    break

        surviving_classes: Set[str] = set(working.classes)

        # Step 3: partition predicates by their retention action.
        imperative: List[Predicate] = []
        optional: List[Predicate] = []
        for predicate, tag in tags.items():
            if not predicate.referenced_classes() <= surviving_classes:
                # The predicate referenced an eliminated class; it vanishes
                # with the class.
                continue
            action = retention_action(tag)
            if action is RetentionAction.RETAIN:
                imperative.append(predicate)
            elif action is RetentionAction.COST_BENEFIT:
                optional.append(predicate)
            else:
                result.discarded_redundant.append(predicate)

        # Step 4: cost-benefit analysis of optional predicates.  The working
        # query used for the comparison carries the imperative predicates
        # plus all optional predicates, so each decision sees the richest
        # available context (matching the paper, which evaluates
        # profitability of retaining the predicate in the final query).  It
        # is priced once; each decision prices only its "without" variant.
        candidate_query = self._build_query(working, imperative + optional)
        priced = priced and priced.reprice(candidate_query)
        retained_optional: List[Predicate] = []
        for predicate in optional:
            decision = self.analyzer.predicate_is_profitable(
                candidate_query, predicate, priced
            )
            result.decisions[f"predicate:{predicate}"] = decision
            if decision.profitable:
                retained_optional.append(predicate)
            else:
                result.discarded_optional.append(predicate)
        result.retained_optional = retained_optional

        final_query = self._build_query(working, imperative + retained_optional)
        result.query = final_query
        return result

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _build_query(base: Query, predicates: Sequence[Predicate]) -> Query:
        """Assemble a query over ``base``'s classes with the given predicates."""
        joins: List[Predicate] = []
        selections: List[Predicate] = []
        seen = set()
        for predicate in predicates:
            key = predicate.normalized().key()
            if key in seen:
                continue
            seen.add(key)
            if predicate.is_join:
                joins.append(predicate)
            else:
                selections.append(predicate)
        return Query(
            projections=base.projections,
            join_predicates=tuple(joins),
            selective_predicates=tuple(selections),
            relationships=base.relationships,
            classes=base.classes,
            name=base.name,
        )
