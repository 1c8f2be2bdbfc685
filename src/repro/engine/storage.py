"""The in-memory object store, hash-partitioned into shards.

The store keeps one extent (list of instances) per object class and
maintains the secondary indexes declared by the schema.  It is the
"database" side of our substrate: the data generator fills it, the executor
reads from it, the validator checks it against the semantic constraints, and
the dynamic-rule deriver learns from it.

Storage is organised as a *shard set*: a :class:`ShardedObjectStore` routes
every instance to one of ``shard_count`` :class:`StoreShard` partitions by
hashing its OID (``oid % shard_count``).  Each shard owns its slice of every
class extent plus its own :class:`~repro.engine.indexes.IndexManager` and
its own monotonic version counter, which is what lets the parallel executor
run per-shard pipelines.  The store still answers every global question
(``instances``, ``get``, ``indexes.lookup``) through a deterministic merged
view — per-shard extents preserve global insertion order restricted to the
shard, and OIDs are assigned in one global sequence, so merging shards by
ascending OID reproduces a single extent exactly.  :class:`ObjectStore` (the name the rest of the system grew up
with) is simply the ``shard_count=1`` case, where the merged view *is* the
only shard and no merging ever happens.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from heapq import merge as _heap_merge
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..constraints.predicate import ComparisonOperator, Predicate
from ..schema.attribute import DomainType
from ..schema.schema import Schema
from .indexes import IndexManager
from .instance import ObjectInstance
from .statistics import DatabaseStatistics
from .summary import ValueSummary

#: Default number of mutation records the store's journal retains.
DEFAULT_JOURNAL_LIMIT = 512

#: Journaled index lifecycle ops (``values`` carries the attribute name).
#: They ride the same journal/WAL/replication path as data mutations, so
#: forked parallel workers, replicas and crash recovery all converge on the
#: same live index set.  Consumers that only care about row changes (e.g.
#: subscription delta classification) skip them by op.
INDEX_OPS = ("create_index", "drop_index")

#: Row-changing journal ops (everything that is not index lifecycle).
DATA_OPS = ("insert", "update", "delete")


class StorageError(Exception):
    """Raised on inconsistent store operations."""


#: One bucket of the reverse-pointer index: the OID of a target's only
#: referrer, or an ascending tuple of OIDs when it has several.  A store
#: holds about one bucket per link end, so the single referrer is stored
#: bare (see :meth:`ShardedObjectStore.referrer_oids`).
ReferrerBucket = Union[int, Tuple[int, ...]]


_OID_TYPES = frozenset((int,))


def _is_pointer_value(value: Any) -> bool:
    """Whether ``value`` is ``None``, an OID, or a list/tuple of OIDs.

    Exact types (a ``bool`` is not an OID), compared without a Python-level
    call per OID: rebuilds and restores check every stored pointer.
    """
    kind = type(value)
    if value is None or kind is int:
        return True
    return kind in (list, tuple) and _OID_TYPES.issuperset(map(type, value))


#: The integers a reply carries exactly: the signed and unsigned 64-bit ranges.
_INT_LOW, _INT_END = -(1 << 63), 1 << 64

_VALUE_RULE = (
    "a value is null, a boolean, a UTF-8 string, an integer in "
    "[-2**63, 2**64) or a finite float"
)


def _refusal(domain: Optional[DomainType], value: Any) -> Optional[str]:
    """Why a value attribute of ``domain`` cannot hold ``value`` (``None``: it can).

    The one rule for every value that enters the store: ``None``, or a
    value the gateway's reply codec carries exactly (a ``bool``, a ``str``
    that encodes as UTF-8, an ``int`` in [−2⁶³, 2⁶⁴), a finite ``float``)
    that is of the attribute's domain — a number (``bool`` included) for a
    numeric domain, a string for a string domain.  So every stored value
    is hashable, equal to itself and ordered against the other values of
    its column, which the indexes and value summaries rely on.

    >>> _refusal(DomainType.INTEGER, "lots")
    'expects a number, got str'
    >>> _refusal(DomainType.FLOAT, float("inf")) is not None
    True
    """
    if value is None:
        return None
    kind = type(value)
    if kind is str:
        if domain is not None and domain.is_numeric:
            return "expects a number, got str"
        if value.isascii():
            return None
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            return f"cannot hold {value!r}: {_VALUE_RULE}"
        return None
    if kind is int or kind is float or kind is bool:
        if domain is DomainType.STRING:
            return f"expects a string, got {kind.__name__}"
        if (kind is int and not _INT_LOW <= value < _INT_END) or (
            kind is float and not math.isfinite(value)
        ):
            return f"cannot hold {value!r}: {_VALUE_RULE}"
        return None
    return f"cannot hold {value!r}: {_VALUE_RULE}"


def _distinct_targets(value: Any) -> Iterable[int]:
    """The OIDs a set, well-formed pointer value links to (a repeat is one link)."""
    return (value,) if isinstance(value, int) else dict.fromkeys(value)


@dataclass(frozen=True)
class MutationRecord:
    """One journaled store mutation.

    ``seq`` is the store's global version *after* the mutation was applied,
    so a replica at version ``v`` catches up by applying every record with
    ``seq > v`` in order.  ``values`` carries the inserted attribute values
    (``op == "insert"``) or the applied update delta (``op == "update"``);
    deletes carry ``None``.  Index lifecycle ops (``create_index`` /
    ``drop_index``) carry ``oid == 0`` (no instance is involved) and
    ``values == {"attribute": name}``.
    """

    seq: int
    op: str
    class_name: str
    oid: int
    values: Optional[Dict[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the write-ahead log's frame payload).

        ``values`` is passed through as-is — its key order is preserved by
        JSON round-trips, which keeps replayed instances (and therefore
        result-row key order) byte-identical to the originals.
        """
        return {
            "seq": self.seq,
            "op": self.op,
            "class": self.class_name,
            "oid": self.oid,
            "values": self.values,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MutationRecord":
        """Rebuild a record from :meth:`as_dict` output (WAL replay).

        Raises :class:`StorageError` on a structurally invalid payload so a
        corrupted-but-parseable frame is reported, never half-applied.
        """
        seq = payload.get("seq")
        op = payload.get("op")
        class_name = payload.get("class")
        oid = payload.get("oid")
        values = payload.get("values")
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
            raise StorageError(f"mutation record has invalid seq {seq!r}")
        if op not in DATA_OPS + INDEX_OPS:
            raise StorageError(f"mutation record has unknown op {op!r}")
        if not isinstance(class_name, str) or not class_name:
            raise StorageError("mutation record has no class name")
        if op in INDEX_OPS:
            if oid != 0:
                raise StorageError(
                    f"index record must carry oid 0, got {oid!r}"
                )
            if not isinstance(values, dict) or not isinstance(
                values.get("attribute"), str
            ):
                raise StorageError(
                    "index record values must name an 'attribute'"
                )
            return cls(seq, op, class_name, oid, values)
        if not isinstance(oid, int) or isinstance(oid, bool) or oid < 1:
            raise StorageError(f"mutation record has invalid oid {oid!r}")
        if values is not None and not isinstance(values, dict):
            raise StorageError("mutation record values must be an object")
        return cls(seq, op, class_name, oid, values)


class StoreShard:
    """One partition of a sharded store.

    A shard is a miniature object store: per-class extent slices (in global
    insertion order restricted to this shard), an OID map, its own secondary
    :class:`~repro.engine.indexes.IndexManager` and its own version counter.
    Mutation routing and OID assignment live on the owning
    :class:`ShardedObjectStore`; the shard only maintains its local state.
    """

    __slots__ = ("shard_id", "schema", "extents", "by_oid", "indexes", "version")

    def __init__(self, schema: Schema, shard_id: int) -> None:
        self.shard_id = shard_id
        self.schema = schema
        self.extents: Dict[str, List[ObjectInstance]] = {
            name: [] for name in schema.class_names()
        }
        self.by_oid: Dict[str, Dict[int, ObjectInstance]] = {
            name: {} for name in schema.class_names()
        }
        self.indexes = IndexManager(schema)
        self.version = 0

    # ------------------------------------------------------------------
    # Local mutation (called by the owning store, which routes by OID)
    # ------------------------------------------------------------------
    def insert(self, instance: ObjectInstance) -> None:
        """Register a freshly created instance in this shard."""
        self.extents[instance.class_name].append(instance)
        self.by_oid[instance.class_name][instance.oid] = instance
        self.indexes.on_insert(instance.class_name, instance.oid, instance.values)
        self.version += 1

    def delete(self, class_name: str, oid: int) -> ObjectInstance:
        """Remove ``class_name#oid`` from this shard and return it."""
        instance = self.by_oid.get(class_name, {}).pop(oid, None)
        if instance is None:
            raise StorageError(f"no instance {class_name}#{oid}")
        self.extents[class_name].remove(instance)
        self.indexes.on_delete(class_name, oid, instance.values)
        self.version += 1
        return instance

    def update(
        self, class_name: str, oid: int, values: Mapping[str, Any]
    ) -> ObjectInstance:
        """Update attribute values of an instance living in this shard."""
        instance = self.by_oid.get(class_name, {}).get(oid)
        if instance is None:
            raise StorageError(f"no instance {class_name}#{oid}")
        self.indexes.on_delete(class_name, oid, instance.values)
        instance.values.update(values)
        instance.forget_derived()
        self.indexes.on_insert(class_name, oid, instance.values)
        self.version += 1
        return instance

    def rebuild_indexes(self, index_overrides: Optional[Dict] = None) -> None:
        """Rebuild this shard's secondary indexes from its extents.

        ``index_overrides`` maps ``(class, attribute)`` to ``True`` (a
        runtime-created index to re-create) or ``False`` (a dropped
        schema index to leave absent), so a rebuild preserves the store's
        live index set instead of resetting it to the schema baseline.

        A rebuild is how in-place ``values`` repairs become visible, so it
        also drops every instance's memoized derivations.
        """
        self.indexes = IndexManager(self.schema)
        for (class_name, attribute_name), present in sorted(
            (index_overrides or {}).items()
        ):
            if present:
                self.indexes.create(class_name, attribute_name)
            else:
                self.indexes.drop(class_name, attribute_name)
        for class_name, extent in self.extents.items():
            for instance in extent:
                instance.forget_derived()
                self.indexes.on_insert(class_name, instance.oid, instance.values)
        self.version += 1

    def count(self, class_name: str) -> int:
        """Number of instances of ``class_name`` stored in this shard."""
        return len(self.extents.get(class_name, ()))


class _ShardedIndexView:
    """Read-only index facade merging per-shard secondary indexes.

    Exposes the :class:`~repro.engine.indexes.IndexManager` query surface
    over a shard set.  Equality and range lookups fan out to every shard and
    merge the per-shard OID lists into one deterministic global order:
    ascending OID for hash lookups, ``(value, oid)`` order for range
    lookups — the same orders a single-shard index produces for data that
    entered the store through inserts.
    """

    def __init__(self, shards: List[StoreShard]) -> None:
        # The shard list, not the store: the store holds this view, and a
        # view holding the store back would make a cycle only the
        # collector frees.
        self._shards = shards

    def indexed_attributes(self) -> List[Tuple[str, str]]:
        """All (class, attribute) pairs that carry an index."""
        return self._shards[0].indexes.indexed_attributes()

    def is_indexed(self, class_name: str, attribute_name: str) -> bool:
        """Whether an index exists for ``class_name.attribute_name``."""
        return self._shards[0].indexes.is_indexed(class_name, attribute_name)

    def can_answer(self, predicate: Predicate) -> bool:
        """Whether :meth:`lookup` would answer ``predicate`` (an O(1) probe)."""
        return self._shards[0].indexes.can_answer(predicate)

    def lookup(self, predicate: Predicate) -> Optional[List[int]]:
        """Merged candidate OIDs for ``predicate`` (``None`` if unanswerable).

        Equality lookups merge the per-shard hash buckets in ascending-OID
        order (the order an insert-populated single bucket has); range
        lookups merge the per-shard ``(value, oid)`` slices by that pair,
        which *is* the single sorted index's answer order — so candidate
        (and therefore row) ordering is identical for every shard count.
        """
        if not self.can_answer(predicate):
            return None
        # Extend-and-sort, not a k-way generator merge: OIDs are unique and
        # ``(value, oid)`` entries totally ordered, so sorting the
        # concatenation *is* the merge, without a generator resumption per
        # answer.
        shards = self._shards
        if predicate.operator is ComparisonOperator.EQ:
            oids: List[int] = []
            for shard in shards:
                oids.extend(shard.indexes.lookup(predicate))
            oids.sort()
            return oids
        entries: List[Tuple[Any, int]] = []
        for shard in shards:
            entries.extend(shard.indexes.range_entries_for(predicate))
        entries.sort()
        return [oid for _value, oid in entries]

    def distinct_count(self, class_name: str, attribute_name: str) -> Optional[int]:
        """Distinct indexed values for an attribute across all shards."""
        distinct: set = set()
        for shard in self._shards:
            values = shard.indexes.distinct_index_values(class_name, attribute_name)
            if values is None:
                return None
            distinct.update(values)
        return len(distinct)


class ShardedObjectStore:
    """Extents of object instances, hash-partitioned across shards.

    ``shard_count=1`` (the :class:`ObjectStore` default) keeps the single
    extent-per-class layout every earlier layer assumed; larger counts route
    each instance to shard ``oid % shard_count`` while preserving the exact
    global semantics through merged views.  OIDs are assigned from one
    global per-class sequence regardless of the shard count, so the same
    insertion stream produces the same instances — and the same global
    ordering — for any sharding:

    >>> from repro.schema import build_example_schema
    >>> store = ShardedObjectStore(build_example_schema(), shard_count=3)
    >>> oids = [store.insert("supplier", {"name": f"S{i}"}).oid for i in range(5)]
    >>> [store.shard_of(oid) for oid in oids]
    [1, 2, 0, 1, 2]
    >>> [i.oid for i in store.instances("supplier")]  # merged view, OID order
    [1, 2, 3, 4, 5]
    >>> store.count("supplier"), store.shard_count
    (5, 3)
    >>> before = store.version
    >>> _ = store.insert("supplier", {"name": "S5"})
    >>> store.version > before  # mutation counter feeds derived caches
    True
    """

    def __init__(
        self,
        schema: Schema,
        shard_count: int = 1,
        journal_limit: int = DEFAULT_JOURNAL_LIMIT,
    ) -> None:
        if shard_count < 1:
            raise StorageError(f"shard_count must be >= 1, got {shard_count}")
        self.schema = schema
        self.shards: List[StoreShard] = [
            StoreShard(schema, shard_id) for shard_id in range(shard_count)
        ]
        self._next_oid: Dict[str, int] = {name: 1 for name in schema.class_names()}
        # Domains of the value attributes per class: every row that enters
        # is checked against these (:func:`_refusal`) before state changes.
        self._value_domains: Dict[str, Dict[str, DomainType]] = {
            cls.name: {attribute.name: attribute.domain for attribute in cls.value_attributes}
            for cls in schema.classes()
        }
        # The reverse-pointer index (see :meth:`referrer_oids`): one map per
        # (class, pointer attribute), kept by the mutation methods below.
        self._pointer_attributes: Dict[str, Tuple[str, ...]] = {
            cls.name: tuple(a.name for a in cls.pointer_attributes)
            for cls in schema.classes()
        }
        self._referrers: Dict[Tuple[str, str], Dict[int, ReferrerBucket]] = {
            (class_name, name): {}
            for class_name, names in self._pointer_attributes.items()
            for name in names
        }
        # Merged per-class views (extent list, OID map), rebuilt lazily when
        # any shard's version moves; for one shard they alias shard state.
        self._merged_version = -1
        self._merged_extents: Dict[str, List[ObjectInstance]] = {}
        self._merged_oid_maps: Dict[str, Dict[int, ObjectInstance]] = {}
        self._index_view = _ShardedIndexView(self.shards) if shard_count > 1 else None
        # Runtime index lifecycle (the tuning advisor's lever), applied on
        # top of the schema baseline: (class, attribute) -> True means a
        # runtime-created index, False a dropped schema-declared one.
        # Rebuilds, snapshots and restores preserve these overrides.
        self._index_overrides: Dict[Tuple[str, str], bool] = {}
        # Bounded mutation journal: lets forked replicas (the parallel
        # engine's live workers) catch up by replaying the delta instead of
        # being re-forked wholesale.  ``_journal_floor`` is exclusive: the
        # journal can bridge a replica at any version >= the floor.  An
        # index rebuild (un-journaled in-place repairs) raises the floor
        # *above* the post-rebuild version, so even a replica whose version
        # numerically equals ours cannot claim to have observed the repairs.
        self.journal_limit = max(0, journal_limit)
        self._journal: Deque[MutationRecord] = deque()
        self._journal_floor = 0
        # Optional durability hook: every journaled mutation is also handed
        # to the sink (the write-ahead log).  Suppressed during journal
        # replay — a replica catching up replays mutations the primary
        # already logged, and forked workers inherit the sink but must
        # never append to the parent's log files.
        self._mutation_sink = None
        self._suppress_sink = False
        # Value summaries (see :meth:`value_summary`): per class, built on
        # the first read and kept by the mutation methods below from then on.
        self._summaries: Dict[str, ValueSummary] = {}
        # The one statistics snapshot, with the version it describes.
        self._statistics: Optional[Tuple[int, DatabaseStatistics]] = None

    def statistics(self) -> DatabaseStatistics:
        """Statistics of the store as it is now, read off its value summaries.

        Every consumer — executors planning queries, the service's batch
        path, the cost model (~150 reads per optimize) — reads this.  A
        snapshot is built once per store version, from the summaries the
        writes keep (:meth:`DatabaseStatistics.summarize`), so no extent is
        walked; it equals :meth:`DatabaseStatistics.collect` and is never
        mutated, so a plan under execution keeps a consistent view.
        """
        version = self.version
        held = self._statistics
        if held is None or held[0] != version:
            held = self._statistics = (
                version, DatabaseStatistics.summarize(self.schema, self)
            )
        return held[1]

    def value_summary(self, class_name: str) -> ValueSummary:
        """What ``class_name``'s extent holds, per value attribute.

        The value index of rule derivation and statistics.  Built from the
        extent on the first call for a class — so a store nobody reads
        this way pays nothing — and from then on kept by ``insert``,
        ``update``, ``delete`` and journal replay in the same call that
        changes the stored values, like :meth:`referrer_oids`.  ``restore``
        starts without summaries and :meth:`rebuild_indexes` drops them,
        which is how values edited in place become visible.  Read-only for
        callers.
        """
        summary = self._summaries.get(class_name)
        if summary is None:
            if class_name not in self._next_oid:
                raise StorageError(f"unknown object class {class_name!r}")
            summary = ValueSummary(self.schema.object_class(class_name).value_attributes)
            for instance in self.instances(class_name):
                summary.add(instance)
            self._summaries[class_name] = summary
        return summary

    @property
    def indexes(self):
        """The global secondary-index surface.

        For a single shard this is that shard's
        :class:`~repro.engine.indexes.IndexManager` itself (resolved live,
        so index rebuilds are never observed through a stale alias); for a
        shard set it is the merging :class:`_ShardedIndexView`.
        """
        if self._index_view is not None:
            return self._index_view
        return self.shards[0].indexes

    def is_indexed(self, class_name: str, attribute_name: str) -> bool:
        """Whether ``class_name.attribute_name`` carries an index now."""
        return self.indexes.is_indexed(class_name, attribute_name)

    # ------------------------------------------------------------------
    # Shard topology
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        """Number of hash partitions."""
        return len(self.shards)

    def shard_of(self, oid: int) -> int:
        """The shard an instance with ``oid`` lives in (hash partitioning)."""
        return oid % len(self.shards)

    def shard_versions(self) -> Tuple[int, ...]:
        """Per-shard mutation counters (persisted by snapshots, reported by writes)."""
        return tuple(shard.version for shard in self.shards)

    @property
    def version(self) -> int:
        """Monotonic mutation counter, bumped by every insert/update/delete.

        State derived from the whole store (the merged views, the
        statistics cache, the parallel executor's forked worker pool) keys
        on this to refresh when the store changes between executions.  It
        is the sum of the per-shard counters, so any shard-local mutation
        moves it.
        """
        # A plain loop, not a generator: every statistics read checks the
        # version (~150 reads per optimize), and a generator adds a frame
        # per shard to each.
        total = 0
        for shard in self.shards:
            total += shard.version
        return total

    def instances_in_shard(self, class_name: str, shard_id: int) -> List[ObjectInstance]:
        """The slice of a class extent stored in one shard (a copy)."""
        if class_name not in self._next_oid:
            raise StorageError(f"unknown object class {class_name!r}")
        return list(self.shards[shard_id].extents[class_name])

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def check(
        self,
        op: str,
        class_name: str,
        oid: Optional[int] = None,
        values: Optional[Mapping[str, Any]] = None,
        gone: Iterable[Tuple[str, int]] = (),
    ) -> None:
        """Raise :class:`StorageError` unless ``op`` would apply cleanly now.

        The one gate in front of every write: :meth:`insert`,
        :meth:`update` and :meth:`delete` call it first, and a batch calls
        it for every op before applying the first (then :meth:`apply`), so
        a refused batch has changed nothing.  ``gone`` holds the
        ``(class, oid)`` pairs deleted earlier in the same batch, which is
        what refuses delete-then-update and a double delete.
        """
        if class_name not in self._next_oid:
            raise StorageError(f"unknown object class {class_name!r}")
        if op != "insert" and (
            self.get(class_name, oid) is None or (class_name, oid) in gone
        ):
            raise StorageError(f"no instance {class_name}#{oid}")
        if op != "delete":
            self._validate_values(class_name, values or {})

    def apply(
        self,
        op: str,
        class_name: str,
        oid: Optional[int] = None,
        values: Optional[Mapping[str, Any]] = None,
    ) -> int:
        """Apply one op that :meth:`check` has passed; returns the OID written."""
        if op == "insert":
            return self._insert(class_name, values or {}).oid
        if op == "update":
            self._update(class_name, oid, values or {})
        else:
            self._delete(class_name, oid)
        return oid

    def insert(self, class_name: str, values: Mapping[str, Any]) -> ObjectInstance:
        """Insert a new instance of ``class_name`` and return it.

        Attribute names are validated against the schema; unknown attributes
        raise :class:`StorageError` so data-generation bugs surface early.
        """
        self.check("insert", class_name, None, values)
        return self._insert(class_name, values)

    def _insert(self, class_name: str, values: Mapping[str, Any]) -> ObjectInstance:
        oid = self._next_oid[class_name]
        self._next_oid[class_name] += 1
        instance = ObjectInstance(class_name, oid, dict(values))
        self.shards[self.shard_of(oid)].insert(instance)
        self._link(class_name, oid, instance.values, self._pointer_attributes[class_name])
        self._summarize(instance, True)
        self._record("insert", class_name, oid, dict(values))
        return instance

    def _validate_values(self, class_name: str, values: Mapping[str, Any]) -> None:
        """Reject unknown attributes and malformed pointer or other values.

        Every traversal requires a pointer to be ``None``, an OID or a
        list/tuple of OIDs, and every other value must pass
        :func:`_refusal`: of its attribute's domain, and carried exactly by
        the reply codec.  The check runs before *any* state changes, so a
        malformed write is a clean :class:`StorageError` — never a
        half-applied mutation that left the extent and the indexes
        disagreeing, never a value that raises out of every later read,
        and never a row no reply can carry.
        """
        domains = self._value_domains[class_name]
        pointers = self._pointer_attributes[class_name]
        for attribute_name, value in values.items():
            if attribute_name in pointers:
                if not _is_pointer_value(value):
                    raise StorageError(
                        f"pointer attribute {class_name}.{attribute_name} expects "
                        f"an OID or a list of OIDs, got {value!r}"
                    )
                continue
            if attribute_name not in domains:
                raise StorageError(
                    f"class {class_name!r} has no attribute {attribute_name!r}"
                )
            refusal = _refusal(domains[attribute_name], value)
            if refusal is not None:
                raise StorageError(
                    f"attribute {class_name}.{attribute_name} {refusal}"
                )

    def insert_many(
        self, class_name: str, rows: Iterable[Mapping[str, Any]]
    ) -> List[ObjectInstance]:
        """Insert several instances of ``class_name``."""
        return [self.insert(class_name, row) for row in rows]

    def delete(self, class_name: str, oid: int) -> None:
        """Remove an instance (reachable through the service's write path)."""
        self.check("delete", class_name, oid)
        self._delete(class_name, oid)

    def _delete(self, class_name: str, oid: int) -> None:
        instance = self.shards[self.shard_of(oid)].delete(class_name, oid)
        self._unlink(class_name, oid, instance.values, self._pointer_attributes[class_name])
        self._summarize(instance, False)
        self._record("delete", class_name, oid, None)

    def update(
        self, class_name: str, oid: int, values: Mapping[str, Any]
    ) -> ObjectInstance:
        """Update attribute values of an existing instance.

        Attribute names are validated against the schema (like
        :meth:`insert`) so a malformed write surfaces as a
        :class:`StorageError` before any state changes.
        """
        self.check("update", class_name, oid, values)
        return self._update(class_name, oid, values)

    def _update(
        self, class_name: str, oid: int, values: Mapping[str, Any]
    ) -> ObjectInstance:
        shard = self.shards[self.shard_of(oid)]
        instance = shard.by_oid[class_name][oid]
        # Only a write that names a pointer attribute touches the reverse
        # index: the old targets are unlinked before the values change.
        written = [n for n in self._pointer_attributes[class_name] if n in values]
        if written:
            self._unlink(class_name, oid, instance.values, written)
        self._summarize(instance, False)
        shard.update(class_name, oid, values)
        self._summarize(instance, True)
        if written:
            self._link(class_name, oid, instance.values, written)
        self._record("update", class_name, oid, dict(values))
        return instance

    # ------------------------------------------------------------------
    # Reverse-pointer index maintenance
    # ------------------------------------------------------------------
    def _link(
        self, class_name: str, oid: int, values: Mapping[str, Any], names: Sequence[str]
    ) -> None:
        """Enter ``class_name#oid`` under every target its ``names`` pointers hold."""
        for name in names:
            value = values.get(name)
            if value is None:
                continue
            buckets = self._referrers[class_name, name]
            for target in _distinct_targets(value):
                held = buckets.get(target)
                if held is None:
                    buckets[target] = oid
                elif isinstance(held, int):
                    if held != oid:
                        buckets[target] = (held, oid) if held < oid else (oid, held)
                else:
                    at = bisect_left(held, oid)
                    if at == len(held) or held[at] != oid:
                        buckets[target] = held[:at] + (oid,) + held[at:]

    def _unlink(
        self, class_name: str, oid: int, values: Mapping[str, Any], names: Sequence[str]
    ) -> None:
        """Undo :meth:`_link` for the values the instance holds now.

        Like :meth:`HashIndex.remove <repro.engine.indexes.HashIndex.remove>`
        it removes what is present: values edited around :meth:`update` may
        name links the index never saw (they are picked up by
        :meth:`rebuild_indexes`) or hold no pointer at all (never linked,
        and an ``update`` is how such a row is repaired).
        """
        for name in names:
            value = values.get(name)
            if value is None or not _is_pointer_value(value):
                continue
            buckets = self._referrers[class_name, name]
            for target in _distinct_targets(value):
                held = buckets.get(target)
                if held is None:
                    continue
                if isinstance(held, int):
                    if held == oid:
                        del buckets[target]
                    continue
                rest = tuple(other for other in held if other != oid)
                buckets[target] = rest[0] if len(rest) == 1 else rest

    def _summarize(self, instance: ObjectInstance, add: bool) -> None:
        """Count ``instance``'s values in its class summary, or withdraw them."""
        summary = self._summaries.get(instance.class_name)
        if summary is None:
            return
        values = instance.values
        domains = self._value_domains[instance.class_name]
        if any(_refusal(domains[name], values.get(name)) for name in summary.holders):
            # A value edited in place around update() that no write would
            # have admitted (a list, a string in a numeric column): this
            # summary cannot count it.  Drop it; the next read rebuilds it
            # from the extent.
            del self._summaries[instance.class_name]
        elif add:
            summary.add(instance)
        else:
            summary.remove(instance)

    def _check_row(
        self, class_name: str, oid: int, values: Mapping[str, Any]
    ) -> None:
        """Reject a replayed, restored or rebuilt row that no write would admit.

        The rows that enter without :meth:`check` — journal and WAL inserts,
        snapshot rows, in-place edits before a rebuild — meet the same two
        value rules a write meets: a pointer is ``None``, an OID or a list
        of OIDs, and any other value passes :func:`_refusal`.
        """
        pointers = self._pointer_attributes[class_name]
        for name in pointers:
            value = values.get(name)
            if not _is_pointer_value(value):
                raise StorageError(
                    f"{class_name}#{oid}: pointer attribute {name!r} holds a "
                    f"non-OID value {value!r}"
                )
        domains = self._value_domains[class_name]
        for name, value in values.items():
            if name not in pointers:
                refusal = _refusal(domains.get(name), value)
                if refusal is not None:
                    raise StorageError(f"{class_name}#{oid}: attribute {name!r} {refusal}")

    # ------------------------------------------------------------------
    # Index lifecycle (runtime create/drop, journaled)
    # ------------------------------------------------------------------
    def index_overrides(self) -> Dict[Tuple[str, str], bool]:
        """The live deviations from the schema's index baseline (a copy).

        ``True`` marks a runtime-created index, ``False`` a dropped
        schema-declared one.  Empty when the live index set equals the
        schema's.
        """
        return dict(self._index_overrides)

    def _index_attribute(self, class_name: str, attribute_name: str):
        """Resolve and validate the target attribute of an index op."""
        if class_name not in self._next_oid:
            raise StorageError(f"unknown object class {class_name!r}")
        cls = self.schema.object_class(class_name)
        attribute = next(
            (a for a in cls.attributes if a.name == attribute_name), None
        )
        if attribute is None:
            raise StorageError(
                f"class {class_name!r} has no attribute {attribute_name!r}"
            )
        if attribute.is_pointer:
            raise StorageError(
                f"cannot index pointer attribute {class_name}.{attribute_name}"
            )
        return attribute

    def _set_index_state(self, class_name: str, attribute, present: bool) -> None:
        """Apply one index create/drop to every shard plus the bookkeeping."""
        key = (class_name, attribute.name)
        for shard in self.shards:
            if present:
                # Per-shard extent slices are in ascending-OID order, so the
                # backfilled buckets satisfy the HashIndex determinism
                # contract exactly like insert-maintained ones.
                shard.indexes.create(
                    class_name, attribute.name, shard.extents[class_name]
                )
            else:
                shard.indexes.drop(class_name, attribute.name)
        baseline = attribute.indexed and not attribute.is_pointer
        if present == baseline:
            self._index_overrides.pop(key, None)
        else:
            self._index_overrides[key] = present

    def create_index(self, class_name: str, attribute_name: str) -> bool:
        """Create a secondary index on a value attribute at runtime.

        Backfills from the stored extents, journals a ``create_index``
        record (so replicas, forked parallel workers and crash recovery
        converge on the same index set) and returns ``True``.  A no-op —
        the index already exists — returns ``False`` *without journaling*,
        so replayers never see a record whose application would not
        advance their version.

        The journal/WAL seq-density invariant: every journaled record must
        move the global version by exactly one (recovery replays only a
        contiguous seq prefix).  Index state changed on *every* shard, but
        only shard 0's counter is bumped — the global version is the shard
        sum, and a per-shard bump would open a seq gap.  That is safe
        because nothing keys on a single shard's counter: everything
        access-path-dependent keys on the global version, which does
        move.
        """
        attribute = self._index_attribute(class_name, attribute_name)
        if self.indexes.is_indexed(class_name, attribute_name):
            return False
        # No domain check: every stored value already passed the write
        # gate, so the sorted-index backfill compares values of one domain.
        self._set_index_state(class_name, attribute, True)
        self.shards[0].version += 1
        self._record("create_index", class_name, 0, {"attribute": attribute_name})
        return True

    def drop_index(self, class_name: str, attribute_name: str) -> bool:
        """Drop a live secondary index (schema-declared or runtime-created).

        Journals a ``drop_index`` record with the same one-version-bump
        discipline as :meth:`create_index`; returns ``False`` without
        journaling when no index exists.
        """
        attribute = self._index_attribute(class_name, attribute_name)
        if not self.indexes.is_indexed(class_name, attribute_name):
            return False
        self._set_index_state(class_name, attribute, False)
        self.shards[0].version += 1
        self._record("drop_index", class_name, 0, {"attribute": attribute_name})
        return True

    def rebuild_indexes(self) -> None:
        """Rebuild every shard's secondary indexes from the stored extents.

        Used after bulk in-place value repairs that bypass :meth:`update`
        (the constraint-enforcing data generator does this, and links its
        instances the same way): the reverse-pointer index
        (:meth:`referrer_oids`) is rebuilt from the extents too.  Because the
        repaired values were never journaled, the journal cannot bridge a
        replica across a rebuild: it is truncated and its floor raised so
        :meth:`journal_since` reports the gap and replicas re-snapshot.

        The floor is raised to ``version + 1`` — *exclusive* of the
        post-rebuild version.  A replica whose version numerically equals
        ours may have reached it through a different history (it never saw
        the un-journaled repairs), so exactly-at-version catch-up requests
        must report the gap too, not an empty delta.
        """
        # In-place edits were never validated; refuse a malformed pointer or
        # value before anything is rebuilt, as a write would have.
        for shard in self.shards:
            for class_name, extent in shard.extents.items():
                for instance in extent:
                    self._check_row(class_name, instance.oid, instance.values)
        for shard in self.shards:
            shard.rebuild_indexes(self._index_overrides)
        self._summaries.clear()
        for buckets in self._referrers.values():
            buckets.clear()
        for class_name, names in self._pointer_attributes.items():
            if names:
                # Ascending OIDs, so every bucket grows at its end.
                for instance in self.instances(class_name):
                    self._link(class_name, instance.oid, instance.values, names)
        self._journal.clear()
        self._journal_floor = self.version + 1

    # ------------------------------------------------------------------
    # Mutation journal
    # ------------------------------------------------------------------
    def set_mutation_sink(self, sink) -> None:
        """Install (or clear, with ``None``) the store's one sink.

        The sink is called with every :class:`MutationRecord` produced by a
        direct mutation, in application order, while the mutation's caller
        still holds whatever lock serialized the write.  A store has one:
        a serving :class:`~repro.service.OptimizationService` installs its
        own and forwards each record to the write-ahead log, then the
        replication feed.  Journal *replay* (:meth:`apply_journal`) never
        feeds the sink: replayed records were already logged by the store
        that produced them.
        """
        self._mutation_sink = sink

    @property
    def journal_floor(self) -> int:
        """The lowest version :meth:`journal_since` can still bridge from.

        Applied-version accounting for replication: a follower whose
        acked version sits below this floor cannot tail and must take a
        full snapshot resync.
        """
        return self._journal_floor

    def _record(
        self, op: str, class_name: str, oid: int, values: Optional[Dict[str, Any]]
    ) -> None:
        record = MutationRecord(self.version, op, class_name, oid, values)
        if self._mutation_sink is not None and not self._suppress_sink:
            self._mutation_sink(record)
        if self.journal_limit == 0:
            self._journal_floor = self.version
            return
        self._journal.append(record)
        while len(self._journal) > self.journal_limit:
            self._journal_floor = self._journal.popleft().seq

    def journal_since(self, version: int) -> Optional[List[MutationRecord]]:
        """The mutations a replica at ``version`` must replay to catch up.

        Returns ``None`` when the journal cannot bridge the replica's
        version and it must re-snapshot instead:

        * ``version > self.version`` — the replica is *ahead* of this
          store.  After a crash that lost un-fsynced WAL tail frames, a
          recovered primary can be behind a replica that applied the lost
          writes; reporting ``[]`` here would let that replica silently
          keep rows the primary no longer has.
        * ``version`` below the journal floor — bounded retention dropped
          the records in between.
        * ``version`` below the (exclusive) floor an index rebuild raised
          after un-journaled in-place repairs — including a replica whose
          version numerically equals the post-rebuild version.
        """
        if version > self.version:
            return None
        if version < self._journal_floor:
            return None
        if version == self.version:
            return []
        return [record for record in self._journal if record.seq > version]

    def apply_journal(self, records: Sequence[MutationRecord]) -> int:
        """Replay journal ``records`` into this store (replica catch-up).

        Records at or below the current version are skipped, so replaying
        an overlapping batch is idempotent.  Version counters advance
        exactly as they did on the journaling store, which keeps every
        version-keyed cache invalidation equivalent on both sides.
        """
        applied = 0
        # Replayed records never reach the durability sink: the store that
        # produced them already logged them, and a forked worker replaying
        # its catch-up delta must not append to the parent's WAL files.
        self._suppress_sink = True
        try:
            for record in records:
                if record.seq <= self.version:
                    continue
                if record.op == "insert":
                    self._restore(
                        record.class_name, record.oid, dict(record.values or {})
                    )
                elif record.op == "update":
                    self.update(record.class_name, record.oid, record.values or {})
                elif record.op == "delete":
                    self.delete(record.class_name, record.oid)
                elif record.op in INDEX_OPS:
                    attribute = (record.values or {}).get("attribute", "")
                    changed = (
                        self.create_index(record.class_name, attribute)
                        if record.op == "create_index"
                        else self.drop_index(record.class_name, attribute)
                    )
                    if not changed:
                        # The op advanced the journaling store's version; a
                        # no-op here would leave this replica permanently
                        # one version behind — that is divergence, not a
                        # skippable duplicate (those were filtered by seq).
                        raise StorageError(
                            f"replayed {record.op} of "
                            f"{record.class_name}.{attribute} was a no-op; "
                            "index state diverged from the journaling store"
                        )
                else:  # pragma: no cover - future-proofing
                    raise StorageError(f"unknown journal op {record.op!r}")
                applied += 1
        finally:
            self._suppress_sink = False
        return applied

    def _restore(self, class_name: str, oid: int, values: Dict[str, Any]) -> None:
        """Insert an instance under a journal-dictated OID (replay only)."""
        if class_name not in self._next_oid:
            raise StorageError(f"unknown object class {class_name!r}")
        self._check_row(class_name, oid, values)
        instance = ObjectInstance(class_name, oid, values)
        self.shards[self.shard_of(oid)].insert(instance)
        self._link(class_name, oid, values, self._pointer_attributes[class_name])
        self._summarize(instance, True)
        if oid >= self._next_oid[class_name]:
            self._next_oid[class_name] = oid + 1
        self._record("insert", class_name, oid, dict(values))

    # ------------------------------------------------------------------
    # Snapshot serialization (durability)
    # ------------------------------------------------------------------
    def snapshot_header(self) -> Dict[str, Any]:
        """The counters a snapshot must persist beside the rows.

        ``shard_versions`` and ``next_oid`` are what makes recovery *exact*:
        a store rebuilt by re-inserting rows would advance its version
        counters differently, and version-keyed state (statistics, forked
        worker pools) would diverge from an uninterrupted run.
        """
        header = {
            "shard_count": self.shard_count,
            "version": self.version,
            "shard_versions": list(self.shard_versions()),
            "next_oid": dict(self._next_oid),
        }
        if self._index_overrides:
            header["index_overrides"] = [
                [class_name, attribute_name, present]
                for (class_name, attribute_name), present in sorted(
                    self._index_overrides.items()
                )
            ]
        return header

    def snapshot_rows(self) -> Iterable[Tuple[str, int, Dict[str, Any]]]:
        """Every stored instance as ``(class_name, oid, values)``.

        Classes are emitted in sorted-name order and instances in global
        OID order, so two snapshots of equal stores are byte-identical.
        ``values`` is the live dict — callers serialize, they must not
        mutate.
        """
        for class_name in sorted(self._next_oid):
            for instance in self.instances(class_name):
                yield class_name, instance.oid, instance.values

    @classmethod
    def restore(
        cls,
        schema: Schema,
        header: Mapping[str, Any],
        rows: Iterable[Tuple[str, int, Mapping[str, Any]]],
        journal_limit: int = DEFAULT_JOURNAL_LIMIT,
    ) -> "ShardedObjectStore":
        """Rebuild a store from :meth:`snapshot_header` + :meth:`snapshot_rows`.

        Restores extents, secondary indexes, OID allocation *and the exact
        per-shard version counters* of the snapshotted store.  The journal
        floor is set to the restored version: nothing before the snapshot
        is journaled, so only replicas at (or beyond, via
        :meth:`apply_journal`) the snapshot version can be bridged.
        """
        shard_count = header.get("shard_count")
        if not isinstance(shard_count, int) or shard_count < 1:
            raise StorageError(f"snapshot has invalid shard_count {shard_count!r}")
        store = cls(schema, shard_count=shard_count, journal_limit=journal_limit)
        # Apply index overrides before the rows land, so per-shard insert
        # maintenance covers runtime-created indexes (and skips dropped
        # ones) exactly as it did on the snapshotted store.
        for entry in header.get("index_overrides") or []:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 3
                or not isinstance(entry[0], str)
                or not isinstance(entry[1], str)
                or not isinstance(entry[2], bool)
            ):
                raise StorageError(
                    f"snapshot has invalid index override {entry!r}"
                )
            class_name, attribute_name, present = entry
            attribute = store._index_attribute(class_name, attribute_name)
            store._set_index_state(class_name, attribute, present)
        for class_name, oid, values in rows:
            if class_name not in store._next_oid:
                raise StorageError(
                    f"snapshot row references unknown class {class_name!r}"
                )
            if not isinstance(oid, int) or isinstance(oid, bool) or oid < 1:
                raise StorageError(f"snapshot row has invalid oid {oid!r}")
            instance = ObjectInstance(class_name, oid, dict(values))
            store._check_row(class_name, oid, instance.values)
            store.shards[store.shard_of(oid)].insert(instance)
            store._link(
                class_name, oid, instance.values, store._pointer_attributes[class_name]
            )
        shard_versions = header.get("shard_versions")
        if (
            not isinstance(shard_versions, (list, tuple))
            or len(shard_versions) != shard_count
            or not all(isinstance(v, int) and v >= 0 for v in shard_versions)
        ):
            raise StorageError("snapshot has invalid shard_versions")
        for shard, version in zip(store.shards, shard_versions):
            shard.version = version
        next_oid = header.get("next_oid") or {}
        for class_name, value in next_oid.items():
            if class_name in store._next_oid and isinstance(value, int):
                store._next_oid[class_name] = max(
                    store._next_oid[class_name], value
                )
        store._journal_floor = store.version
        return store

    # ------------------------------------------------------------------
    # Merged views
    # ------------------------------------------------------------------
    def _sync_merged(self) -> None:
        version = self.version
        if version == self._merged_version:
            return
        if len(self.shards) == 1:
            shard = self.shards[0]
            self._merged_extents = shard.extents
            self._merged_oid_maps = shard.by_oid
        else:
            # Each shard's extent slice is in ascending-OID order (OIDs are
            # assigned from one global ascending sequence and appended), so
            # a k-way merge by OID reproduces the global insertion order.
            # Built aside and published whole before the version stamp:
            # readers sharing the read lock may rebuild concurrently.
            extents, oid_maps = {}, {}
            for class_name in self._next_oid:
                merged = list(
                    _heap_merge(
                        *(shard.extents[class_name] for shard in self.shards),
                        key=lambda instance: instance.oid,
                    )
                )
                extents[class_name] = merged
                oid_maps[class_name] = {instance.oid: instance for instance in merged}
            self._merged_extents, self._merged_oid_maps = extents, oid_maps
        self._merged_version = version

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def has_class(self, class_name: str) -> bool:
        """Whether the store has an extent for ``class_name``."""
        return class_name in self._next_oid

    def instances(self, class_name: str) -> List[ObjectInstance]:
        """The full extent of ``class_name`` (a copy, in global OID order)."""
        if class_name not in self._next_oid:
            raise StorageError(f"unknown object class {class_name!r}")
        self._sync_merged()
        return list(self._merged_extents[class_name])

    def oid_index(self, class_name: str) -> Mapping[int, ObjectInstance]:
        """A read-only OID -> instance mapping over the whole class extent.

        The mapping is shared and version-cached; callers must not mutate
        it.  Executors use it for bulk OID resolution (index scans, merging
        per-shard results) without paying a per-instance ``get`` call.
        """
        if class_name not in self._next_oid:
            raise StorageError(f"unknown object class {class_name!r}")
        self._sync_merged()
        return self._merged_oid_maps[class_name]

    def get(self, class_name: str, oid: int) -> Optional[ObjectInstance]:
        """The instance ``class_name#oid`` or ``None``."""
        if class_name not in self._next_oid:
            return None
        shard = self.shards[self.shard_of(oid)]
        return shard.by_oid[class_name].get(oid)

    def count(self, class_name: str) -> int:
        """Cardinality of the class extent."""
        if class_name not in self._next_oid:
            raise StorageError(f"unknown object class {class_name!r}")
        return sum(shard.count(class_name) for shard in self.shards)

    def counts(self) -> Dict[str, int]:
        """Cardinality of every class extent."""
        return {name: self.count(name) for name in self._next_oid}

    def total_instances(self) -> int:
        """Total number of instances across all extents."""
        return sum(self.count(name) for name in self._next_oid)

    # ------------------------------------------------------------------
    # Relationship traversal
    # ------------------------------------------------------------------
    def dereference(
        self, instance: ObjectInstance, pointer_attribute: str, target_class: str
    ) -> Optional[ObjectInstance]:
        """Follow a pointer attribute to its target instance."""
        oid = instance.pointer(pointer_attribute)
        if oid is None:
            return None
        return self.get(target_class, oid)

    def referrer_oids(
        self, source_class: str, pointer_attribute: str
    ) -> Mapping[int, ReferrerBucket]:
        """Target OID -> the OIDs of the ``source_class`` instances pointing at it.

        The maintained reverse-pointer index, read by the batch executors:
        a target with one referrer maps to that OID bare, one with several
        to an ascending tuple of them (an OID repeated in one pointer list
        counts once).  It is an index, not a memo: ``insert``, ``update``
        (when the written values name a pointer attribute), ``delete``,
        journal replay, ``restore`` and :meth:`rebuild_indexes` keep it in
        the same call that changes the stored values, so it has no version
        key and is never stale — except, like every other index, for a
        pointer written into ``values`` around :meth:`update`, which is
        visible after :meth:`rebuild_indexes`.  It equals
        :meth:`referrer_map` (as OIDs) at every point; the tests pin that.
        Read-only and shared; an undeclared class or attribute has no
        referrers.
        """
        return self._referrers.get((source_class, pointer_attribute), {})

    def referrer_map(
        self, source_class: str, pointer_attribute: str
    ) -> Dict[int, List[ObjectInstance]]:
        """Target OID -> the ``source_class`` instances whose pointer holds it.

        The reverse traversal of a relationship, for every target at once,
        *by definition*: one pass over the source extent, each list in
        extent order.  Scalar and list-valued pointers are read through
        :meth:`~repro.engine.instance.ObjectInstance.pointer_oids`, which
        raises ``TypeError`` on a non-OID value.  It reads ``values`` as
        they are now, so it sees pointers edited in place — which is why
        database generation (it links instances in place before its one
        :meth:`rebuild_indexes`) uses it, and why it is the oracle
        :meth:`referrer_oids` is tested against.  The map is not kept; a
        caller that holds one across pointer writes holds a stale one.
        """
        if source_class not in self._next_oid:
            return {}
        result: Dict[int, List[ObjectInstance]] = {}
        for instance in self.instances(source_class):
            # dict.fromkeys: an OID repeated in one pointer list is one link.
            for oid in dict.fromkeys(instance.pointer_oids(pointer_attribute)):
                result.setdefault(oid, []).append(instance)
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        summary = ", ".join(
            f"{name}:{count}" for name, count in self.counts().items()
        )
        return f"{type(self).__name__}({summary}, shards={self.shard_count})"


class ObjectStore(ShardedObjectStore):
    """The historical single-store entry point: a one-shard shard set.

    Kept as the default constructor the data generator, fixtures and most
    callers use; pass ``shard_count`` to get a partitioned store for the
    parallel execution path.
    """
