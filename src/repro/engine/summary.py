"""Value summaries: what one class extent holds, kept by the store.

Rule derivation (:mod:`repro.constraints.dynamic`) and the planner's
statistics (:class:`~repro.engine.statistics.DatabaseStatistics`) ask the
same questions of an extent: how often each value occurs, which values are
the least and the greatest, whether one attribute's value fixes another's.
Answering them by reading every instance made every write pay a scan of
the class it touched.  A :class:`ValueSummary` answers them from state the
store keeps in the calls that change stored values — where it keeps the
reverse-pointer index — so a write moves a summary by the one row it
changed.

The scans stay as the definitions (:meth:`DatabaseStatistics.collect
<repro.engine.statistics.DatabaseStatistics.collect>` and
:func:`repro.constraints.dynamic.derive_by_scan`); the tests compare both
readings after every step of seeded write schedules.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Dict, Iterable, List, Sequence, Tuple, Union

from ..schema.attribute import Attribute
from .instance import ObjectInstance

#: One value's holders: the instance itself, or a list of two or more.
Holders = Union[ObjectInstance, List[ObjectInstance]]


def _rows(bucket: Holders) -> Sequence[ObjectInstance]:
    return bucket if type(bucket) is list else (bucket,)


def _position(bucket: List[ObjectInstance], oid: int) -> int:
    """Where ``oid`` belongs in ``bucket`` (ascending OIDs): its first row not below ``oid``.

    ``bisect`` searches by a key only from Python 3.10 on, so by hand.
    """
    low, high = 0, len(bucket)
    while low < high:
        middle = (low + high) // 2
        if bucket[middle].oid < oid:
            low = middle + 1
        else:
            high = middle
    return low


class ValueSummary:
    """The values one class extent holds, per value attribute.

    * :attr:`holders` — per attribute, value -> the instances holding it:
      the one instance bare (most values of a key-like attribute have one
      holder, and a list each would cost a store thousands of objects the
      collector tracks), several as a list in ascending OID order.
      ``None`` stands for a ``None`` and a missing value alike, as
      ``values.get`` reads both.  The first holder is the value's first
      occurrence, so a value keeps its place in scan order — and its
      spelling, ``1`` or ``1.0`` — across deletes.
    * :attr:`numbers` — per numeric attribute, its distinct values other
      than ``None``, ascending: the column's least and greatest are its
      ends.  The store admits nothing but numbers (``bool`` included) and
      ``None`` into a numeric column, so its values always compare.
    * witness tables (:meth:`witnesses`) — per attribute pair someone has
      asked about, source value -> target value -> rows holding both.

    Built from the extent on the first read
    (:meth:`~repro.engine.storage.ShardedObjectStore.value_summary`), kept
    by :meth:`add` and :meth:`remove` from then on.  It takes no lock: the
    store's owner serializes writers against readers, as it does for every
    other piece of store state.
    """

    __slots__ = ("holders", "numbers", "_witnesses")

    def __init__(self, attributes: Iterable[Attribute]) -> None:
        self.holders: Dict[str, Dict[Any, Holders]] = {}
        self.numbers: Dict[str, List[Any]] = {}
        for attribute in attributes:
            self.holders[attribute.name] = {}
            if attribute.domain.is_numeric:
                self.numbers[attribute.name] = []
        self._witnesses: Dict[Tuple[str, str], Dict[Any, Dict[Any, int]]] = {}

    # ------------------------------------------------------------------
    # Maintenance (called by the store where stored values change)
    # ------------------------------------------------------------------
    def add(self, instance: ObjectInstance) -> None:
        """Count ``instance``'s current values."""
        values = instance.values
        for name, holders in self.holders.items():
            value = values.get(name)
            bucket = holders.get(value)
            if bucket is None:
                holders[value] = instance
                if value is not None and name in self.numbers:
                    insort(self.numbers[name], value)
            elif type(bucket) is not list:
                holders[value] = (
                    [bucket, instance] if bucket.oid < instance.oid else [instance, bucket]
                )
            elif bucket[-1].oid < instance.oid:
                bucket.append(instance)
            else:
                bucket.insert(_position(bucket, instance.oid), instance)
        for (source, target), table in self._witnesses.items():
            key = values.get(source)
            if key is None:
                continue
            seen = table.get(key)
            if seen is None:
                seen = table[key] = {}
            value = values.get(target)
            seen[value] = seen.get(value, 0) + 1

    def remove(self, instance: ObjectInstance) -> None:
        """Withdraw ``instance``'s current values.

        Like the store's other indexes it withdraws what is present: a row
        whose values were edited around ``update`` is counted again
        correctly once ``rebuild_indexes`` drops and rebuilds the summary.
        """
        values = instance.values
        for name, holders in self.holders.items():
            value = values.get(name)
            bucket = holders.get(value)
            if type(bucket) is list:
                at = _position(bucket, instance.oid)
                if at < len(bucket) and bucket[at] is instance:
                    del bucket[at]
                    if len(bucket) == 1:
                        holders[value] = bucket[0]
                continue
            if bucket is not instance:
                continue
            del holders[value]
            numbers = self.numbers.get(name)
            if numbers is not None and value is not None:
                at = bisect_left(numbers, value)
                if at < len(numbers) and numbers[at] == value:
                    del numbers[at]
        for (source, target), table in self._witnesses.items():
            key = values.get(source)
            seen = None if key is None else table.get(key)
            if seen is None:
                continue
            value = values.get(target)
            count = seen.get(value)
            if count is None:
                continue
            if count > 1:
                seen[value] = count - 1
            elif len(seen) > 1:
                del seen[value]
            else:
                del table[key]

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def multiplicity(self, name: str, value: Any) -> int:
        """How many rows hold ``value`` in ``name`` (``None``: unset)."""
        bucket = self.holders[name].get(value)
        return 0 if bucket is None else len(_rows(bucket))

    def first_holder(self, name: str, value: Any) -> ObjectInstance:
        """The lowest-OID row holding ``value`` in ``name``."""
        return _rows(self.holders[name][value])[0]

    def distinct(self, name: str) -> int:
        """How many distinct values other than ``None`` ``name`` holds."""
        holders = self.holders[name]
        return len(holders) - (None in holders)

    def first(self, name: str, value: Any) -> Any:
        """``value`` as the lowest-OID row holding it spells it."""
        return self.first_holder(name, value).values.get(name)

    def only_numbers(self, name: str) -> bool:
        """Whether every row holds a number in the numeric attribute ``name``."""
        return None not in self.holders[name]

    def bounds(self, name: str) -> Tuple[Any, Any]:
        """The least and greatest value of numeric ``name`` other than ``None``.

        What ``min`` and ``max`` over the rows in OID order return: of
        equal values, the first.  The column must hold a value other than
        ``None``.
        """
        numbers = self.numbers[name]
        return self.first(name, numbers[0]), self.first(name, numbers[-1])

    def witnesses(self, source: str, target: str) -> Dict[Any, Dict[Any, int]]:
        """Source value -> target value -> how many rows hold the two together.

        A source value whose entry holds one target value fixes that value:
        the functional dependency the rule deriver looks for.  Rows whose
        source is ``None`` are left out, as the derivation leaves them out.
        Built from :attr:`holders` on the first call for a pair and kept
        by :meth:`add` and :meth:`remove` from then on, so a pair nobody
        asks about costs nothing.
        """
        table = self._witnesses.get((source, target))
        if table is None:
            table = {}
            for key, bucket in self.holders[source].items():
                if key is None:
                    continue
                seen: Dict[Any, int] = {}
                for instance in _rows(bucket):
                    value = instance.values.get(target)
                    seen[value] = seen.get(value, 0) + 1
                table[key] = seen
            self._witnesses[source, target] = table
        return table
