"""Database statistics for cardinality and selectivity estimation.

The conventional query optimizer of the paper relies on "a reasonably
accurate cost model" to estimate the profitability of optional predicates
and of class elimination.  That cost model in turn needs statistics about
the stored data; :class:`DatabaseStatistics` collects the usual ones —
extent cardinalities, per-attribute distinct-value counts and numeric
min/max — of an :class:`~repro.engine.storage.ObjectStore`, and offers
textbook selectivity estimates for predicates.

:meth:`DatabaseStatistics.collect` defines them by walking every extent;
:meth:`DatabaseStatistics.summarize` reads the same numbers off the value
summaries the store maintains (:mod:`repro.engine.summary`), and is what
``store.statistics()`` serves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Optional, Tuple

from ..constraints.predicate import (
    ComparisonOperator,
    Predicate,
    partition_by_class,
)
from ..schema.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - the store imports this module
    from .storage import ObjectStore

#: Fallback selectivities when no statistics are available, in the spirit of
#: the classic System R defaults.
DEFAULT_EQUALITY_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 0.3
DEFAULT_INEQUALITY_SELECTIVITY = 0.9


@dataclass
class AttributeStatistics:
    """Statistics about a single attribute of a class extent."""

    distinct_values: int = 0
    null_count: int = 0
    minimum: Optional[Any] = None
    maximum: Optional[Any] = None
    is_numeric: bool = False


@dataclass
class DatabaseStatistics:
    """Statistics for one database instance."""

    cardinalities: Dict[str, int] = field(default_factory=dict)
    attributes: Dict[Tuple[str, str], AttributeStatistics] = field(
        default_factory=dict
    )
    #: The ``(class, attribute)`` pairs that carried a *live* secondary
    #: index when these statistics were collected.  ``None`` means the
    #: statistics were built without a store (tests constructing them by
    #: hand), in which case consumers fall back to the static schema.
    #: Runtime index creation/drops (the tuning advisor) are only visible
    #: through this set — the schema's ``indexed`` flags never change.
    indexed: Optional[FrozenSet[Tuple[str, str]]] = None

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    @staticmethod
    def collect(schema: Schema, store: ObjectStore) -> "DatabaseStatistics":
        """Gather statistics by walking every extent of ``store``.

        The definition :meth:`summarize` is tested against; serving code
        reads ``store.statistics()`` instead.
        """
        stats = DatabaseStatistics()
        stats.indexed = frozenset(store.indexes.indexed_attributes())
        for class_name in schema.class_names():
            extent = store.instances(class_name)
            stats.cardinalities[class_name] = len(extent)
            cls = schema.object_class(class_name)
            for attribute in cls.value_attributes:
                values = [instance.values.get(attribute.name) for instance in extent]
                non_null = [v for v in values if v is not None]
                numeric = attribute.domain.is_numeric
                attr_stats = AttributeStatistics(
                    distinct_values=len(set(non_null)),
                    null_count=len(values) - len(non_null),
                    is_numeric=numeric,
                )
                if non_null and numeric:
                    attr_stats.minimum = min(non_null)
                    attr_stats.maximum = max(non_null)
                stats.attributes[(class_name, attribute.name)] = attr_stats
        return stats

    @staticmethod
    def summarize(schema: Schema, store: ObjectStore) -> "DatabaseStatistics":
        """What :meth:`collect` gathers, read off the store's value summaries.

        No extent is walked: a class's summary is built on its first read
        and kept by the writes from then on (``store.value_summary``).
        """
        stats = DatabaseStatistics()
        stats.indexed = frozenset(store.indexes.indexed_attributes())
        for class_name in schema.class_names():
            summary = store.value_summary(class_name)
            stats.cardinalities[class_name] = store.count(class_name)
            for attribute in schema.object_class(class_name).value_attributes:
                name = attribute.name
                numeric = attribute.domain.is_numeric
                attr_stats = AttributeStatistics(
                    distinct_values=summary.distinct(name),
                    null_count=summary.multiplicity(name, None),
                    is_numeric=numeric,
                )
                if numeric and attr_stats.distinct_values:
                    attr_stats.minimum, attr_stats.maximum = summary.bounds(name)
                stats.attributes[(class_name, name)] = attr_stats
        return stats

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def cardinality(self, class_name: str) -> int:
        """Extent cardinality (0 when unknown)."""
        return self.cardinalities.get(class_name, 0)

    def attribute_statistics(
        self, class_name: str, attribute_name: str
    ) -> Optional[AttributeStatistics]:
        """Statistics for ``class_name.attribute_name`` if collected."""
        return self.attributes.get((class_name, attribute_name))

    def distinct(self, class_name: str, attribute_name: str) -> Optional[int]:
        """Distinct-value count for an attribute, when known."""
        stats = self.attribute_statistics(class_name, attribute_name)
        if stats is None or stats.distinct_values == 0:
            return None
        return stats.distinct_values

    def is_indexed(
        self, class_name: str, attribute_name: str
    ) -> Optional[bool]:
        """Whether the attribute carried a live index at collect time.

        ``None`` when these statistics were built without a store — the
        caller should then fall back to the schema's static flags.
        """
        if self.indexed is None:
            return None
        return (class_name, attribute_name) in self.indexed

    # ------------------------------------------------------------------
    # Selectivity estimation
    # ------------------------------------------------------------------
    def selectivity(self, predicate: Predicate) -> float:
        """Estimate the fraction of instances satisfying ``predicate``.

        Join predicates get the usual ``1 / max(distinct_left,
        distinct_right)`` estimate; selective predicates use distinct-value
        counts for equality and min/max interpolation for ranges, falling
        back to the textbook defaults when statistics are missing.
        """
        if not predicate.is_selection:
            left = self.distinct(
                predicate.left.class_name, predicate.left.attribute_name
            )
            right_operand = predicate.right
            right = None
            if hasattr(right_operand, "class_name"):
                right = self.distinct(
                    right_operand.class_name, right_operand.attribute_name
                )
            denominator = max(left or 0, right or 0)
            if denominator <= 0:
                return DEFAULT_RANGE_SELECTIVITY
            return min(1.0, 1.0 / denominator)

        class_name = predicate.left.class_name
        attribute_name = predicate.left.attribute_name
        stats = self.attribute_statistics(class_name, attribute_name)
        operator = predicate.operator

        if operator is ComparisonOperator.EQ:
            if stats and stats.distinct_values > 0:
                return min(1.0, 1.0 / stats.distinct_values)
            return DEFAULT_EQUALITY_SELECTIVITY
        if operator is ComparisonOperator.NE:
            if stats and stats.distinct_values > 0:
                return max(0.0, 1.0 - 1.0 / stats.distinct_values)
            return DEFAULT_INEQUALITY_SELECTIVITY

        # Range operators.
        value = predicate.constant
        if (
            stats
            and stats.is_numeric
            and isinstance(value, (int, float))
            and stats.minimum is not None
            and stats.maximum is not None
            and stats.maximum > stats.minimum
        ):
            span = float(stats.maximum - stats.minimum)
            position = (float(value) - float(stats.minimum)) / span
            position = min(1.0, max(0.0, position))
            if operator in (ComparisonOperator.LT, ComparisonOperator.LE):
                return max(0.0, min(1.0, position))
            return max(0.0, min(1.0, 1.0 - position))
        return DEFAULT_RANGE_SELECTIVITY

    def combined_selectivity(self, predicates) -> float:
        """Independence-assumption product of individual selectivities."""
        result = 1.0
        for predicate in predicates:
            result *= self.selectivity(predicate)
        return result

    def estimated_matching(self, class_name: str, predicates) -> float:
        """Estimated number of instances of ``class_name`` passing ``predicates``.

        Only the predicates that reference ``class_name`` and no other class
        contribute; cross-class predicates are handled at join level.
        """
        local, _ = partition_by_class(predicates, (class_name,))
        return self.cardinality(class_name) * self.combined_selectivity(
            local[class_name]
        )
