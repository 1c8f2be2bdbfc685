"""The database schema: object classes plus relationships.

A :class:`Schema` owns a set of :class:`~repro.schema.object_class.ObjectClass`
definitions and the :class:`~repro.schema.relationship.Relationship` links
between them.  It resolves inheritance (so that ``driver`` exposes the
attributes it inherits from ``employee``), validates pointer attributes
against relationships, and offers the graph-level lookups needed by the query
generator, the constraint repository and the execution engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .attribute import Attribute
from .object_class import ObjectClass, SchemaError
from .relationship import Relationship


@dataclass(frozen=True)
class AttributeRef:
    """A fully resolved reference to ``class_name.attribute`` in a schema."""

    class_name: str
    attribute: Attribute

    @property
    def qualified_name(self) -> str:
        """``class.attribute`` notation used by predicates."""
        return f"{self.class_name}.{self.attribute.name}"


class Schema:
    """A collection of object classes and the relationships linking them."""

    def __init__(
        self,
        classes: Sequence[ObjectClass],
        relationships: Sequence[Relationship] = (),
        name: str = "schema",
    ) -> None:
        self.name = name
        self._declared: Dict[str, ObjectClass] = {}
        for cls in classes:
            if cls.name in self._declared:
                raise SchemaError(f"duplicate object class {cls.name!r}")
            self._declared[cls.name] = cls

        self._classes: Dict[str, ObjectClass] = {}
        for cls in classes:
            self._classes[cls.name] = self._resolve_inheritance(cls)

        self._relationships: Dict[str, Relationship] = {}
        for rel in relationships:
            if rel.name in self._relationships:
                raise SchemaError(f"duplicate relationship {rel.name!r}")
            self._validate_relationship(rel)
            self._relationships[rel.name] = rel

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _resolve_inheritance(self, cls: ObjectClass) -> ObjectClass:
        """Merge inherited attributes into ``cls`` (parents first)."""
        chain: List[ObjectClass] = []
        current: Optional[ObjectClass] = cls
        visited = set()
        while current is not None and current.parent is not None:
            if current.parent in visited or current.parent == current.name:
                raise SchemaError(
                    f"inheritance cycle detected at class {current.name!r}"
                )
            visited.add(current.parent)
            parent = self._declared.get(current.parent)
            if parent is None:
                raise SchemaError(
                    f"class {current.name!r} inherits from unknown class "
                    f"{current.parent!r}"
                )
            chain.append(parent)
            current = parent
        resolved = cls
        for parent in chain:
            resolved = resolved.with_attributes(parent.attributes)
        return resolved

    def _validate_relationship(self, rel: Relationship) -> None:
        """Ensure both ends of ``rel`` exist and use pointer attributes."""
        for class_name, attr_name in (
            (rel.source, rel.source_attribute),
            (rel.target, rel.target_attribute),
        ):
            cls = self._classes.get(class_name)
            if cls is None:
                raise SchemaError(
                    f"relationship {rel.name!r} references unknown class "
                    f"{class_name!r}"
                )
            if not cls.has_attribute(attr_name):
                raise SchemaError(
                    f"relationship {rel.name!r} references unknown attribute "
                    f"{class_name}.{attr_name}"
                )
            if not cls.attribute(attr_name).is_pointer:
                raise SchemaError(
                    f"relationship {rel.name!r} must use pointer attributes; "
                    f"{class_name}.{attr_name} is a value attribute"
                )

    # ------------------------------------------------------------------
    # Class access
    # ------------------------------------------------------------------
    def class_names(self) -> List[str]:
        """All class names in declaration order."""
        return list(self._classes)

    def classes(self) -> List[ObjectClass]:
        """All (inheritance-resolved) object classes."""
        return list(self._classes.values())

    def has_class(self, name: str) -> bool:
        """Whether a class named ``name`` exists."""
        return name in self._classes

    def object_class(self, name: str) -> ObjectClass:
        """Return the resolved class ``name`` or raise :class:`SchemaError`."""
        try:
            return self._classes[name]
        except KeyError:
            raise SchemaError(f"unknown object class {name!r}") from None

    def attribute(self, class_name: str, attribute_name: str) -> Attribute:
        """Return the attribute ``class_name.attribute_name``."""
        return self.object_class(class_name).attribute(attribute_name)

    def resolve(self, qualified_name: str) -> AttributeRef:
        """Resolve ``class.attribute`` notation into an :class:`AttributeRef`."""
        if "." not in qualified_name:
            raise SchemaError(
                f"expected 'class.attribute' notation, got {qualified_name!r}"
            )
        class_name, attribute_name = qualified_name.split(".", 1)
        return AttributeRef(class_name, self.attribute(class_name, attribute_name))

    def is_indexed(self, class_name: str, attribute_name: str) -> bool:
        """Whether ``class_name.attribute_name`` has an index."""
        return self.attribute(class_name, attribute_name).indexed

    # ------------------------------------------------------------------
    # Relationship access
    # ------------------------------------------------------------------
    def relationship_names(self) -> List[str]:
        """All relationship names in declaration order."""
        return list(self._relationships)

    def relationships(self) -> List[Relationship]:
        """All relationships."""
        return list(self._relationships.values())

    def has_relationship(self, name: str) -> bool:
        """Whether a relationship named ``name`` exists."""
        return name in self._relationships

    def relationship(self, name: str) -> Relationship:
        """Return the relationship ``name`` or raise :class:`SchemaError`."""
        try:
            return self._relationships[name]
        except KeyError:
            raise SchemaError(f"unknown relationship {name!r}") from None

    def relationships_of(self, class_name: str) -> List[Relationship]:
        """All relationships in which ``class_name`` participates."""
        self.object_class(class_name)
        return [
            rel for rel in self._relationships.values() if rel.involves(class_name)
        ]

    def relationship_between(
        self, class_a: str, class_b: str
    ) -> Optional[Relationship]:
        """The relationship connecting two classes, or ``None``."""
        for rel in self._relationships.values():
            if rel.connects(class_a, class_b):
                return rel
        return None

    def neighbours(self, class_name: str) -> List[str]:
        """Class names directly connected to ``class_name`` by a relationship."""
        return sorted(
            {rel.other(class_name) for rel in self.relationships_of(class_name)}
        )

    # ------------------------------------------------------------------
    # Graph-level views
    # ------------------------------------------------------------------
    def adjacency(self) -> Dict[str, List[Tuple[str, str]]]:
        """Adjacency map: class -> list of (relationship name, other class)."""
        adj: Dict[str, List[Tuple[str, str]]] = {
            name: [] for name in self._classes
        }
        for rel in self._relationships.values():
            adj[rel.source].append((rel.name, rel.target))
            adj[rel.target].append((rel.name, rel.source))
        for entries in adj.values():
            entries.sort()
        return adj

    def subclasses_of(self, class_name: str) -> List[str]:
        """Names of classes that (transitively) inherit from ``class_name``."""
        result = []
        for cls in self._declared.values():
            current = cls
            while current.parent is not None:
                if current.parent == class_name:
                    result.append(cls.name)
                    break
                current = self._declared[current.parent]
        return sorted(result)

    def __contains__(self, class_name: str) -> bool:
        return class_name in self._classes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schema({self.name!r}, classes={len(self._classes)}, "
            f"relationships={len(self._relationships)})"
        )
