"""Object instances stored in the database.

An :class:`ObjectInstance` is one object of an object class: an OID plus a
mapping from attribute name to value.  Pointer attributes hold the OID of the
referenced instance (or ``None``), mirroring how the paper's OODB implements
relationships through pointer attributes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional


class ObjectInstance:
    """A single stored object.

    Parameters
    ----------
    class_name:
        The object class this instance belongs to.
    oid:
        Object identifier, unique within the class extent.
    values:
        Attribute name -> value.  Pointer attributes store the target OID.

    One value derived from ``values`` alone — the distinct OIDs of each
    pointer attribute — is memoized on the instance (:meth:`pointers`).  The
    memo is no part of the instance's identity: equality, ``repr`` and
    :meth:`copy` ignore it.  Whoever changes ``values`` must call
    :meth:`forget_derived`; the store does, in the only two places stored
    values change (:meth:`~repro.engine.storage.StoreShard.update` and
    :meth:`~repro.engine.storage.StoreShard.rebuild_indexes`).

    The instance knows its own pointers only.  Who points *at* it is kept
    by the store (:meth:`~repro.engine.storage.ShardedObjectStore.referrer_oids`),
    maintained by the same write calls — so a pointer written into
    ``values`` directly is, like any value written that way, visible to the
    indexes after ``rebuild_indexes``.
    """

    # Slots, not a __dict__: a store holds one instance per row, and the
    # memo field must not cost a per-row dictionary.
    __slots__ = ("class_name", "oid", "values", "_pointers")

    # Mutable, so unhashable (as the dataclass this replaces was).
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self, class_name: str, oid: int, values: Optional[Dict[str, Any]] = None
    ) -> None:
        self.class_name = class_name
        self.oid = oid
        self.values: Dict[str, Any] = {} if values is None else values
        self._pointers: Optional[Dict[str, List[int]]] = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.class_name, self.oid, self.values) == (
            other.class_name,
            other.oid,
            other.values,
        )

    def __repr__(self) -> str:
        return (
            f"ObjectInstance(class_name={self.class_name!r}, oid={self.oid!r}, "
            f"values={self.values!r})"
        )

    def get(self, attribute_name: str, default: Any = None) -> Any:
        """Value of ``attribute_name`` (or ``default`` when absent)."""
        return self.values.get(attribute_name, default)

    def pointer(self, attribute_name: str) -> Optional[int]:
        """The OID stored in a single-valued pointer attribute.

        Returns ``None`` when the pointer is unset; for multi-valued
        pointers the first OID is returned (use :meth:`pointer_oids` to get
        them all).
        """
        oids = self.pointer_oids(attribute_name)
        return oids[0] if oids else None

    def pointer_oids(self, attribute_name: str) -> List[int]:
        """All OIDs stored in a pointer attribute.

        Pointer attributes may hold a single OID (one-to-one links) or a
        list/tuple of OIDs (one-to-many links); both forms are normalized to
        a list here.
        """
        value = self.values.get(attribute_name)
        if value is None:
            return []
        if isinstance(value, int):
            return [value]
        if isinstance(value, (list, tuple)):
            result = []
            for item in value:
                if not isinstance(item, int):
                    raise TypeError(
                        f"pointer attribute {self.class_name}.{attribute_name} "
                        f"holds a non-OID value {item!r}"
                    )
                result.append(item)
            return result
        raise TypeError(
            f"pointer attribute {self.class_name}.{attribute_name} holds a "
            f"non-OID value {value!r}"
        )

    def matches(self, attribute_values: Mapping[str, Any]) -> bool:
        """Whether every (attribute, value) pair in the mapping is satisfied."""
        return all(
            self.values.get(name) == value for name, value in attribute_values.items()
        )

    def qualified_values(self) -> Dict[str, Any]:
        """Values keyed by ``class.attribute`` notation, used for result rows."""
        return {
            f"{self.class_name}.{name}": value for name, value in self.values.items()
        }

    # ------------------------------------------------------------------
    # Memoized derivation (read by the batch executors)
    # ------------------------------------------------------------------
    def pointers(self, attribute_name: str) -> List[int]:
        """:meth:`pointer_oids` without repeats (an OID repeated in one list
        is one link), built once per attribute; read-only."""
        memo = self._pointers
        if memo is None:
            memo = self._pointers = {}
        oids = memo.get(attribute_name)
        if oids is None:
            oids = memo[attribute_name] = list(
                dict.fromkeys(self.pointer_oids(attribute_name))
            )
        return oids

    def forget_derived(self) -> None:
        """Drop the memo; call after changing ``values``."""
        self._pointers = None

    def copy(self) -> "ObjectInstance":
        """A shallow copy with an independent values dictionary."""
        return ObjectInstance(self.class_name, self.oid, dict(self.values))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.class_name}#{self.oid}"
