"""Profitability analysis for optional predicates and class elimination.

The paper delegates the decision to retain an *optional* predicate — and the
decision to eliminate a dangling class — to "a cost model and conventional
query optimization techniques".  :class:`ProfitabilityAnalyzer` provides
that decision procedure:

* with a :class:`~repro.engine.cost_model.CostModel` (i.e. with database
  statistics available), the analyzer compares the estimated execution cost
  of the working query with and without the candidate predicate/class and
  keeps whichever alternative is cheaper.  The working query is priced
  once (:meth:`ProfitabilityAnalyzer.price`); each optional predicate's
  "without" variant is a one-class delta of that
  :class:`~repro.engine.cost_model.QueryPricing` — one estimate and k deltas
  for k optional predicates, all against one statistics-and-weights snapshot;
* without a cost model, it falls back to a structural heuristic: optional
  predicates on indexed attributes are retained (they enable index scans,
  the paper's primary motivation for index introduction), other optional
  predicates are retained only when they are the sole selective predicate on
  their class (they then cut intermediate results), and dangling classes are
  always eliminated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from ..constraints.predicate import Predicate
from ..query.query import Query
from ..schema.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - the analyzer only calls its cost model
    from ..engine.cost_model import CostModel, QueryPricing


#: Live index availability, ``(class, attribute) -> indexed?``; ``None``
#: means unknown.
IndexProbe = Callable[[str, str], Optional[bool]]


def is_indexed(
    schema: Schema,
    index_probe: Optional[IndexProbe],
    class_name: str,
    attribute_name: str,
) -> bool:
    """Whether ``class_name.attribute_name`` carries an index.

    ``index_probe`` (e.g. a store's ``is_indexed``) answers first: the
    schema records only the *declared* index set, and a runtime create or
    drop (the auto-indexer, an operator) must steer the optimizer too.  A
    probe that is absent, raises or answers ``None`` defers to the schema.
    """
    if index_probe is not None:
        try:
            known = index_probe(class_name, attribute_name)
        except Exception:
            known = None
        if known is not None:
            return bool(known)
    try:
        return schema.is_indexed(class_name, attribute_name)
    except Exception:
        return False


@dataclass
class ProfitabilityDecision:
    """Outcome of a profitability question, with the numbers behind it."""

    profitable: bool
    cost_with: Optional[float] = None
    cost_without: Optional[float] = None
    reason: str = ""

    @property
    def saving(self) -> Optional[float]:
        """Estimated cost saving (positive when the change helps)."""
        if self.cost_with is None or self.cost_without is None:
            return None
        return self.cost_without - self.cost_with


class ProfitabilityAnalyzer:
    """Cost-benefit decisions used during query formulation."""

    def __init__(
        self,
        schema: Schema,
        cost_model: Optional["CostModel"] = None,
        epsilon: float = 1e-9,
        index_probe: Optional[IndexProbe] = None,
    ) -> None:
        self.schema = schema
        self.cost_model = cost_model
        self.epsilon = epsilon
        # Live index availability (see is_indexed): a dropped index must
        # not keep attracting predicates that no longer pay off.
        self.index_probe = index_probe

    def price(self, query: Query) -> Optional["QueryPricing"]:
        """``query`` priced once, for the ``priced`` argument of the decisions
        (``None`` without a cost model)."""
        return None if self.cost_model is None else self.cost_model.price(query)

    # ------------------------------------------------------------------
    # Optional predicates
    # ------------------------------------------------------------------
    def predicate_is_profitable(
        self,
        query: Query,
        predicate: Predicate,
        priced: Optional["QueryPricing"] = None,
    ) -> ProfitabilityDecision:
        """Should ``predicate`` be retained in ``query``?

        ``query`` is the working query *including* the predicate when it is
        already part of it (else the predicate is appended and that query
        priced, whatever ``priced`` holds); the analyzer always compares
        the variant with the predicate against the variant without it.
        ``priced`` is ``query`` as :meth:`price` returned it: k decisions
        about one query then cost one estimate and k one-class deltas
        (:meth:`QueryPricing.without`), all against one snapshot.

        The variant without drops copies from the selective list only, so
        an optional *join* predicate is priced against itself (``cost_with
        == cost_without``) and never retained; the spine digest pins that.
        """
        if self.cost_model is not None:
            if not query.has_predicate(predicate):
                query, priced = query.add_selective_predicates([predicate]), None
            if priced is None:
                priced = self.cost_model.price(query)
            cost_with = priced.estimate().total
            target = predicate.normalized()
            joins, selections = query.join_predicates, query.selective_predicates
            # ``without`` drops the local copies: the selective list's drop
            # unless a copy sits in the list of the other kind.
            other_kind = joins if len(target.referenced_classes()) == 1 else selections
            if any(p.normalized() == target for p in other_kind):
                kept = [p for p in selections if p.normalized() != target]
                variant = priced.reprice(query.with_selective_predicates(kept))
            else:
                variant = priced.without(target)
            cost_without = variant.estimate().total
            return ProfitabilityDecision(
                profitable=cost_with + self.epsilon < cost_without,
                cost_with=cost_with,
                cost_without=cost_without,
                reason="cost-model comparison",
            )
        return self._heuristic_predicate_decision(query, predicate)

    def _heuristic_predicate_decision(
        self, query: Query, predicate: Predicate
    ) -> ProfitabilityDecision:
        if predicate.is_selection:
            class_name = predicate.left.class_name
            attribute_name = predicate.left.attribute_name
            if is_indexed(self.schema, self.index_probe, class_name, attribute_name):
                return ProfitabilityDecision(
                    profitable=True,
                    reason="selection on an indexed attribute enables an index scan",
                )
            other_selections = [
                p
                for p in query.selective_predicates
                if p.normalized() != predicate.normalized()
                and p.referenced_classes() == frozenset({class_name})
            ]
            if not other_selections:
                return ProfitabilityDecision(
                    profitable=True,
                    reason=(
                        "only selective predicate on its class; cuts the "
                        "instances flowing into later joins"
                    ),
                )
            return ProfitabilityDecision(
                profitable=False,
                reason="not indexed and the class is already restricted",
            )
        return ProfitabilityDecision(
            profitable=False,
            reason="cross-class comparison adds CPU work without cutting retrieval",
        )

    # ------------------------------------------------------------------
    # Class elimination
    # ------------------------------------------------------------------
    def class_elimination_is_profitable(
        self,
        query: Query,
        class_name: str,
        priced: Optional["QueryPricing"] = None,
    ) -> ProfitabilityDecision:
        """Should the dangling class ``class_name`` be dropped from ``query``?

        ``priced`` as for :meth:`predicate_is_profitable`.
        """
        if self.cost_model is not None:
            if priced is None:
                priced = self.cost_model.price(query)
            cost_with = priced.estimate().total
            reduced = query.without_class(class_name, self.schema)
            cost_without = priced.reprice(reduced).estimate().total
            return ProfitabilityDecision(
                profitable=cost_without + self.epsilon < cost_with,
                cost_with=cost_with,
                cost_without=cost_without,
                reason="cost-model comparison",
            )
        return ProfitabilityDecision(
            profitable=True,
            reason="dangling class contributes no output and no restriction",
        )
