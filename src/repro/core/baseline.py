"""The straight-forward baseline optimizer (Section 4 comparison).

The paper contrasts its tentative-application strategy with "a
straight-forward approach ... to evaluate the profitability of each
transformation, and if deemed profitable, immediately apply it to the
query.  This way, some transformations might preclude other transformations
(eg. eliminating an antecedent predicate of a semantic constraint means it
cannot be used to introduce its consequent predicate) and hence the order of
transformations is important."

:class:`StraightforwardOptimizer` implements exactly that strategy so the
ablation benchmark can demonstrate the two properties the paper claims for
its own algorithm: (1) the tentative approach is never worse, and (2) the
straight-forward approach is sensitive to constraint ordering while the
tentative approach is not.  The baseline also counts how many profitability
evaluations it performs — the paper notes its approach "is only necessary to
test the profitability of a subset of transformations".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..constraints.horn_clause import SemanticConstraint
from ..constraints.implication import implies
from ..constraints.predicate import Predicate
from ..query.query import Query
from ..schema.schema import Schema
from .profitability import ProfitabilityAnalyzer

try:  # pragma: no cover - engine is always available in-tree
    from ..engine.cost_model import CostModel
except Exception:  # pragma: no cover
    CostModel = None  # type: ignore[assignment]


@dataclass
class BaselineResult:
    """Outcome of one straight-forward optimization run."""

    original: Query
    optimized: Query
    applied: List[str] = field(default_factory=list)
    profitability_checks: int = 0
    eliminated_classes: List[str] = field(default_factory=list)
    elapsed: float = 0.0


class StraightforwardOptimizer:
    """Immediately applies each profitable transformation, in constraint order."""

    def __init__(
        self,
        schema: Schema,
        constraints: Sequence[SemanticConstraint],
        cost_model: Optional["CostModel"] = None,
        max_passes: int = 4,
        enable_class_elimination: bool = True,
    ) -> None:
        self.schema = schema
        self.constraints = list(constraints)
        self.analyzer = ProfitabilityAnalyzer(schema, cost_model=cost_model)
        self.max_passes = max_passes
        self.enable_class_elimination = enable_class_elimination

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _antecedents_hold(query: Query, constraint: SemanticConstraint) -> bool:
        """Whether the current (physical) query implies every antecedent."""
        return all(
            any(implies(p, antecedent) for p in query.predicates())
            for antecedent in constraint.antecedents
        )

    @staticmethod
    def _remove_predicate(query: Query, predicate: Predicate) -> Query:
        target = predicate.normalized()
        return Query(
            projections=query.projections,
            join_predicates=tuple(
                p for p in query.join_predicates if p.normalized() != target
            ),
            selective_predicates=tuple(
                p for p in query.selective_predicates if p.normalized() != target
            ),
            relationships=query.relationships,
            classes=query.classes,
            name=query.name,
        )

    @staticmethod
    def _add_predicate(query: Query, predicate: Predicate) -> Query:
        if predicate.is_join:
            return Query(
                projections=query.projections,
                join_predicates=query.join_predicates + (predicate,),
                selective_predicates=query.selective_predicates,
                relationships=query.relationships,
                classes=query.classes,
                name=query.name,
            )
        return query.add_selective_predicates([predicate])

    def _try_class_elimination(self, query: Query, result: BaselineResult) -> Query:
        projected = query.projection_classes()
        changed = True
        while changed and len(query.classes) > 1:
            changed = False
            for class_name in query.classes:
                if class_name in projected:
                    continue
                if query.predicates_on(class_name):
                    continue
                degree = sum(
                    1
                    for name in query.relationships
                    if self.schema.relationship(name).involves(class_name)
                )
                if degree > 1:
                    continue
                result.profitability_checks += 1
                decision = self.analyzer.class_elimination_is_profitable(
                    query, class_name
                )
                if not decision.profitable:
                    continue
                query = query.without_class(class_name, self.schema)
                result.eliminated_classes.append(class_name)
                result.applied.append(f"class elimination: {class_name}")
                changed = True
                break
        return query

    # ------------------------------------------------------------------
    # Optimization
    # ------------------------------------------------------------------
    def optimize(self, query: Query) -> BaselineResult:
        """Run the straight-forward strategy over the constraint list."""
        start = time.perf_counter()
        result = BaselineResult(original=query, optimized=query)
        working = query
        query_classes = query.referenced_classes()

        for _pass in range(self.max_passes):
            changed = False
            for constraint in self.constraints:
                if not constraint.is_relevant_to(query_classes, query.relationships):
                    continue
                if not self._antecedents_hold(working, constraint):
                    continue
                consequent = constraint.consequent
                if working.has_predicate(consequent):
                    # Candidate restriction elimination: profitable when the
                    # query is cheaper without the predicate.
                    result.profitability_checks += 1
                    without = self._remove_predicate(working, consequent)
                    decision = self.analyzer.predicate_is_profitable(
                        working, consequent
                    )
                    if not decision.profitable:
                        working = without
                        result.applied.append(
                            f"restriction elimination via {constraint.name}: "
                            f"{consequent}"
                        )
                        changed = True
                else:
                    # Candidate introduction: profitable when the query is
                    # cheaper with the predicate added.
                    if not consequent.referenced_classes() <= query_classes:
                        continue
                    result.profitability_checks += 1
                    decision = self.analyzer.predicate_is_profitable(
                        self._add_predicate(working, consequent), consequent
                    )
                    if decision.profitable:
                        working = self._add_predicate(working, consequent)
                        result.applied.append(
                            f"restriction introduction via {constraint.name}: "
                            f"{consequent}"
                        )
                        changed = True
            if not changed:
                break

        if self.enable_class_elimination:
            working = self._try_class_elimination(working, result)

        result.optimized = working
        result.elapsed = time.perf_counter() - start
        return result
