"""Database statistics for cardinality and selectivity estimation.

The conventional query optimizer of the paper relies on "a reasonably
accurate cost model" to estimate the profitability of optional predicates
and of class elimination.  That cost model in turn needs statistics about
the stored data; :class:`DatabaseStatistics` collects the usual ones —
extent cardinalities, per-attribute distinct-value counts and numeric
min/max — straight from an :class:`~repro.engine.storage.ObjectStore`, and
offers textbook selectivity estimates for predicates.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

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
    def collect(
        schema: Schema,
        store: ObjectStore,
        class_names: Optional[Iterable[str]] = None,
    ) -> "DatabaseStatistics":
        """Gather statistics from the current contents of ``store``.

        ``class_names`` restricts collection to a subset of classes (the
        :class:`StatisticsCache` recollects only journal-touched classes);
        per-class statistics are independent, so a restricted collect is
        byte-identical to the matching slice of a full collect.
        """
        stats = DatabaseStatistics()
        stats.indexed = frozenset(store.indexes.indexed_attributes())
        if class_names is None:
            names: List[str] = list(schema.class_names())
        else:
            wanted = set(class_names)
            names = [name for name in schema.class_names() if name in wanted]
        for class_name in names:
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


class StatisticsCache:
    """The versioned statistics a store keeps of itself.

    Owned by the store (:meth:`ShardedObjectStore.statistics` is the way
    in), which passes itself to :meth:`get`: the cache holds no reference
    back, so a store that is swapped out is freed at once rather than
    waiting for the cycle collector.

    Collecting :class:`DatabaseStatistics` walks every extent, which is the
    single most expensive per-request step once executors and plans are
    warm.  The cache keys one collected snapshot on the store's global
    mutation counter: while the version stands still, every consumer —
    executors planning queries, the service's batch path, the optimizer's
    cost model — reads the same object and **no collection runs at all**.

    When the version moves, the store's bounded mutation journal decides
    how much work the refresh costs:

    * the journal bridges the delta → only the journal-touched classes are
      recollected (per-class statistics are independent, so the merged
      snapshot is byte-identical to a full collect);
    * the delta contains only index lifecycle ops → data statistics are
      reused verbatim and just the live-index set is refreshed;
    * the journal cannot bridge (bounded retention, an index rebuild's
      floor) → a full collect runs.

    Snapshots are never mutated in place — consumers holding a reference
    (a plan under execution) keep a consistent view while later requests
    read the refreshed one.  ``get`` is thread-safe; collection runs at
    most once per observed store version (the regression contract pinned
    by ``tests/service/test_statistics_staleness.py``).
    """

    #: Journal ops that change data statistics (index lifecycle ops don't).
    _DATA_OPS = ("insert", "update", "delete")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats: Optional[DatabaseStatistics] = None
        self._version: Optional[int] = None
        #: Full store walks performed (cache misses the journal couldn't
        #: soften).  Exposed for regression tests and tuning stats.
        self.full_collects = 0
        #: Journal-guided partial recollects (touched classes only).
        self.partial_collects = 0

    @property
    def collects(self) -> int:
        """Total collection passes, full or partial."""
        return self.full_collects + self.partial_collects

    def get(self, store: ObjectStore) -> DatabaseStatistics:
        """Statistics current for the present version of ``store`` (the owner)."""
        with self._lock:
            version = store.version
            if self._stats is not None and version == self._version:
                return self._stats
            previous = self._stats
            records = (
                store.journal_since(self._version)
                if previous is not None and self._version is not None
                else None
            )
            if records is None:
                stats = DatabaseStatistics.collect(store.schema, store)
                self.full_collects += 1
            else:
                touched = sorted(
                    {
                        record.class_name
                        for record in records
                        if record.op in self._DATA_OPS
                    }
                )
                if touched:
                    fresh = DatabaseStatistics.collect(
                        store.schema, store, class_names=touched
                    )
                    cardinalities = dict(previous.cardinalities)
                    cardinalities.update(fresh.cardinalities)
                    attributes = dict(previous.attributes)
                    attributes.update(fresh.attributes)
                    stats = DatabaseStatistics(
                        cardinalities=cardinalities,
                        attributes=attributes,
                        indexed=fresh.indexed,
                    )
                    self.partial_collects += 1
                else:
                    # Index-only delta: the data statistics are unchanged;
                    # refresh just the live-index set (no extent is walked,
                    # so this does not count as a collection pass).
                    stats = DatabaseStatistics(
                        cardinalities=previous.cardinalities,
                        attributes=previous.attributes,
                        indexed=frozenset(
                            store.indexes.indexed_attributes()
                        ),
                    )
            self._stats = stats
            self._version = version
            return stats
