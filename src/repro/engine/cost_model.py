"""The conventional cost model.

The paper leans on "the cost model in the conventional query optimizer" in
two places: deciding whether an *optional* predicate is profitable to retain
(Section 3.4) and estimating the profitability of removing a class.  This
module provides that cost model for our substrate, plus the weights used to
convert the executor's measured counters into a single scalar cost so that
original and optimized executions can be compared as in Table 4.2.

Costs are expressed in abstract units: retrieving one instance from an
extent costs :data:`CostWeights.instance_retrieval`, evaluating one predicate
on one instance costs :data:`CostWeights.predicate_evaluation`, and so on.
The absolute values are unimportant — the Table 4.2 reproduction reports the
*ratio* of optimized to original cost — but the relative weighting (I/O two
orders of magnitude above CPU) mirrors the assumptions of the era's
optimizers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from ..constraints.predicate import Predicate, partition_by_class
from ..query.query import Query
from ..schema.schema import Schema
from .statistics import DatabaseStatistics


@dataclass(frozen=True)
class CostWeights:
    """Relative weights of the primitive operations.

    One weight per counter of :class:`~repro.engine.executor.ExecutionMetrics`.
    Every engine performs the same primitive operations and reports the same
    counters, so one weight set prices every engine, estimated or measured.
    """

    instance_retrieval: float = 1.0
    predicate_evaluation: float = 0.01
    pointer_traversal: float = 0.2
    index_lookup: float = 0.05
    result_construction: float = 0.05


@dataclass
class CostEstimate:
    """Breakdown of an estimated query cost."""

    retrieval: float = 0.0
    cpu: float = 0.0
    traversal: float = 0.0

    @property
    def total(self) -> float:
        """Total estimated cost."""
        return self.retrieval + self.cpu + self.traversal


def _no_live_statistics() -> None:
    """The unbound provider: estimates read the explicit snapshot."""
    return None


class ClassPrice(NamedTuple):
    """What one class of a priced query contributes, computed once."""

    #: Product of the local predicates' selectivities, in query order.
    selectivity: float
    #: Estimated instances passing the local predicates.
    matching: float
    #: The local selection an index scan would go through, if any.
    indexed: Optional[Predicate]
    #: Cost of producing the class's matching instances (never mutated).
    scan: CostEstimate
    #: Each local predicate's selectivity, in local order (never mutated).
    selectivities: List[float]


class QueryPricing:
    """One query priced against one statistics-and-weights snapshot.

    Built by :meth:`CostModel.price`.  Construction reads the model's
    statistics and weights **once** and partitions the query's predicates
    by class; each class's :class:`ClassPrice` is computed the first time
    it is needed; :meth:`estimate` walks the bindings over those values and
    keeps its result.  :meth:`reprice` prices another query — a variant
    without one class, typically (:meth:`without` drops one predicate) —
    under the same snapshot, carrying over the price of every class whose
    local predicates did not change: only the changed class is priced
    again, and the driver choice and the binding walk's sums re-run in the
    same arithmetic order, so the variant costs bit for bit what pricing it
    from scratch would.  The walk's binding order, which depends on the
    driver, the classes and the relationships only, is found once per
    driver and shared by every variant over the same classes and
    relationships.  A set of decisions made from one object therefore
    never straddles a statistics refresh.

    The object is a value for one caller: it holds no version and outlives
    no call.
    """

    def __init__(
        self, source: Union["CostModel", "QueryPricing"], query: Query
    ) -> None:
        # The one read of the model's (live) statistics and weights; from
        # an earlier pricing, the snapshot it took.
        self.schema = source.schema
        self.statistics = source.statistics
        self.weights = source.weights
        self.classes = query.classes
        self.relationships = [
            self.schema.relationship(name) for name in query.relationships
        ]
        #: Per-class local predicates and the cross-class rest (joins,
        #: then selections — the order selectivities multiply in).
        self.local, self.cross = partition_by_class(
            query.predicates(), query.classes
        )
        self._shape = (query.classes, query.relationships)
        self._prices: Dict[str, ClassPrice] = {}
        #: Per driver, the order :meth:`estimate` binds the other classes
        #: in; shared by reprices over the same classes and relationships.
        self._walks: Dict[str, Tuple[List[str], List[str]]] = {}
        self._estimate: Optional[CostEstimate] = None

    def reprice(self, query: Query) -> "QueryPricing":
        """``query`` priced under this object's snapshot.

        Class prices already computed here are kept for every class whose
        local predicate list is the same in ``query``, and binding orders
        when ``query`` has the same classes and relationships.
        """
        other = QueryPricing(self, query)
        other._prices = {
            name: price
            for name, price in self._prices.items()
            if self.local[name] == other.local.get(name)
        }
        if other._shape == self._shape:
            other._walks = self._walks
        return other

    def without(self, predicate: Predicate) -> "QueryPricing":
        """This query minus every local copy of ``predicate``, under the same
        snapshot and with no query built: only that class is priced again,
        from the selectivities its price holds, and every other class price
        and the walks are shared.  A cross-class predicate, or one with no
        local copy, changes nothing: ``self`` is returned."""
        target = predicate.normalized()
        (class_name, *more) = target.referenced_classes()
        predicates = () if more else self.local.get(class_name, ())
        kept = [i for i, p in enumerate(predicates) if p.normalized() != target]
        if len(kept) == len(predicates):
            return self
        selectivities = self.class_price(class_name).selectivities
        other = object.__new__(QueryPricing)
        other.__dict__.update(self.__dict__)
        other.local = {**self.local, class_name: [predicates[i] for i in kept]}
        other._prices = {n: p for n, p in self._prices.items() if n != class_name}
        other._estimate = None
        other.class_price(class_name, [selectivities[i] for i in kept])
        return other

    # ------------------------------------------------------------------
    # Per-class pricing
    # ------------------------------------------------------------------
    def _is_indexed(self, class_name: str, attribute_name: str) -> bool:
        """Whether an index scan is available for the attribute *now*.

        Prefers the statistics' live-index set (which tracks runtime index
        creation/drops) over the schema's static flags, so auto-managed
        indexes steer estimates the moment statistics refresh.
        """
        known = self.statistics.is_indexed(class_name, attribute_name)
        if known is not None:
            return known
        return self.schema.is_indexed(class_name, attribute_name)

    def class_price(
        self, class_name: str, selectivities: Optional[List[float]] = None
    ) -> ClassPrice:
        """The class's price under its local predicates (kept once computed).

        When one of the predicates is a selection on an indexed attribute,
        the scan is assumed to go through the index: only the matching
        fraction of the extent is retrieved, plus an index-lookup charge.
        Otherwise a full extent scan retrieves every instance and evaluates
        every predicate on each.  Given ``selectivities`` (the local
        predicates', in order), none is read.
        """
        price = self._prices.get(class_name)
        if price is not None:
            return price
        predicates = self.local[class_name]
        statistics = self.statistics
        weights = self.weights
        cardinality = statistics.cardinality(class_name)
        selectivity = 1.0
        indexed = None
        indexed_selectivity = 1.0
        known, selectivities = selectivities, []
        for predicate in predicates:
            own = known[len(selectivities)] if known else statistics.selectivity(predicate)
            selectivities.append(own)
            selectivity *= own
            if (
                indexed is None
                and predicate.is_selection
                and self._is_indexed(class_name, predicate.left.attribute_name)
            ):
                indexed, indexed_selectivity = predicate, own
        scan = CostEstimate()
        if indexed is not None:
            matching = cardinality * indexed_selectivity
            scan.retrieval = matching * weights.instance_retrieval
            scan.cpu = (
                matching * max(0, len(predicates) - 1) * weights.predicate_evaluation
                + weights.index_lookup
            )
        else:
            scan.retrieval = cardinality * weights.instance_retrieval
            scan.cpu = cardinality * len(predicates) * weights.predicate_evaluation
        price = self._prices[class_name] = ClassPrice(
            selectivity, cardinality * selectivity, indexed, scan, selectivities
        )
        return price

    # ------------------------------------------------------------------
    # Query-level estimation
    # ------------------------------------------------------------------
    def driver(self) -> str:
        """The class a conventional planner would scan first.

        The driver is the class with the fewest estimated matching instances
        after applying its local predicates, with indexed access breaking
        ties in its favour.
        """
        def sort_key(class_name: str) -> Tuple[float, bool, str]:
            price = self.class_price(class_name)
            return (price.matching, price.indexed is None, class_name)

        return min(self.classes, key=sort_key)

    def _walk(self, driver: str) -> Tuple[List[str], List[str]]:
        """The classes bound from ``driver`` by traversing relationships,
        in binding order, and the rest (unreachable), in class-list order.

        The order depends on the classes and relationships only, never on
        a price, so every variant of one query shape reads one walk.
        """
        walk = self._walks.get(driver)
        if walk is not None:
            return walk
        bound = {driver}
        connected: List[str] = []
        remaining = [name for name in self.classes if name != driver]
        progress = True
        while remaining and progress:
            progress = False
            for class_name in list(remaining):
                if not any(
                    rel.involves(class_name) and rel.other(class_name) in bound
                    for rel in self.relationships
                ):
                    continue
                connected.append(class_name)
                bound.add(class_name)
                remaining.remove(class_name)
                progress = True
        walk = self._walks[driver] = (connected, remaining)
        return walk

    def estimate(self) -> CostEstimate:
        """The estimated execution cost (computed once per object).

        The estimate mimics the executor's strategy: scan the driver class,
        then traverse the query's relationships to bind the remaining
        classes, carrying forward the estimated number of partial results
        and charging retrieval for every instance touched along the way.
        """
        if self._estimate is not None:
            return self._estimate
        weights = self.weights
        driver = self.driver()
        driver_price = self.class_price(driver)
        driver_scan = driver_price.scan
        # Everything after the driver scan is accumulated separately and
        # added to it last: the formulation digests pin this summation
        # order bit for bit.
        distributed = CostEstimate()

        connected, disconnected = self._walk(driver)
        current_rows = max(1.0, driver_price.matching)
        for class_name in connected:
            # The executor builds the candidate set of the traversed class
            # once (an index scan when one of its predicates is on an
            # indexed attribute, a full extent scan otherwise) and then
            # follows one pointer per partial result.
            price = self.class_price(class_name)
            distributed.retrieval += price.scan.retrieval
            distributed.cpu += price.scan.cpu
            distributed.traversal += current_rows * weights.pointer_traversal
            current_rows = max(1.0, current_rows * price.selectivity)

        # Disconnected classes (should not occur for path queries): charge a
        # full scan and a cross filter.
        for class_name in disconnected:
            price = self.class_price(class_name)
            distributed.retrieval += price.scan.retrieval
            distributed.cpu += price.scan.cpu
            current_rows = max(1.0, current_rows * price.matching)

        # Cross-class predicates evaluated on the joined rows.
        distributed.cpu += (
            current_rows * len(self.cross) * weights.predicate_evaluation
        )
        construction = current_rows * weights.result_construction

        estimate = self._estimate = CostEstimate()
        estimate.retrieval = driver_scan.retrieval + distributed.retrieval
        estimate.traversal = distributed.traversal
        estimate.cpu = driver_scan.cpu + distributed.cpu + construction
        return estimate


class CostModel:
    """Cardinality/selectivity-based cost estimation for five-part queries.

    Every estimate is made on a :class:`QueryPricing` (:meth:`price`): a
    value that reads the statistics and the weights once and prices the
    query and its variants from them; a caller with several questions
    about one query (query formulation, the planner) keeps it.

    Statistics can be **bound to a provider** (:meth:`bind_statistics`,
    typically a store's ``statistics``)
    so every pricing reads statistics current for the store's version
    instead of whatever was collected at attach time.  The weights are
    fixed at construction (``CostWeights()`` unless given).
    """

    def __init__(
        self,
        schema: Schema,
        statistics: DatabaseStatistics,
        weights: Optional[CostWeights] = None,
    ) -> None:
        self.schema = schema
        self._statistics = statistics
        self._statistics_provider = _no_live_statistics
        self.weights = weights or CostWeights()

    @property
    def statistics(self) -> DatabaseStatistics:
        """The statistics estimates read (live when a provider is bound)."""
        live = self._statistics_provider()
        return self._statistics if live is None else live

    @statistics.setter
    def statistics(self, value: DatabaseStatistics) -> None:
        self._statistics = value
        self._statistics_provider = _no_live_statistics

    def bind_statistics(self, provider) -> None:
        """Read statistics through ``provider()`` from now on.

        Pass a store's ``statistics`` so estimates always price against
        its current contents.  When there is no provider, or it returns
        ``None``, estimates read the last explicitly set snapshot.
        """
        self._statistics_provider = provider or _no_live_statistics

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def price(self, query: Query) -> QueryPricing:
        """``query`` priced against the current statistics and weights."""
        return QueryPricing(self, query)

    # ------------------------------------------------------------------
    # Measured cost
    # ------------------------------------------------------------------
    def measured_cost(self, metrics: "ExecutionMetrics") -> float:
        """Convert executor counters into a scalar cost.

        Defined here (rather than on the metrics object) so that both the
        estimated and measured costs share one set of weights.
        """
        weights = self.weights
        return (
            metrics.instances_retrieved * weights.instance_retrieval
            + metrics.predicate_evaluations * weights.predicate_evaluation
            + metrics.pointer_traversals * weights.pointer_traversal
            + metrics.index_lookups * weights.index_lookup
            + metrics.rows_output * weights.result_construction
        )
