"""The query representation used throughout the system.

The paper represents queries in a five-part form::

    (SELECT {projectList} {joinPredicateList} {selectivePredicateList}
            {relationshipList} {classList})

describing "the attributes required, the join predicates and selective
predicates on object classes, the relationships between the classes
involved, and the object classes to be accessed".  :class:`Query` is a
faithful, immutable rendering of that form.  The optimizer never mutates a
query — it produces a new one during query formulation — so immutability is
both safe and convenient.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from ..constraints.predicate import Predicate
from ..schema.schema import Schema


class QueryError(Exception):
    """Raised when a query is malformed or inconsistent with its schema."""


@dataclass(frozen=True)
class Query:
    """A five-part query.

    Parameters
    ----------
    projections:
        Qualified attribute names (``class.attribute``) to return.
    join_predicates:
        Explicit attribute-to-attribute join predicates.  In the paper's
        OODB setting most joins are expressed through the ``relationships``
        list instead, so this list is frequently empty — exactly as in the
        Figure 2.3 example where the join predicate list is ``{ }``.
    selective_predicates:
        Predicates comparing attributes to constants (or attributes across
        classes, for constraint-introduced comparisons).
    relationships:
        Names of schema relationships connecting the classes of the query.
    classes:
        The object classes accessed by the query.
    name:
        Optional identifier used by the workload generator and experiment
        reports.
    """

    projections: Tuple[str, ...] = ()
    join_predicates: Tuple[Predicate, ...] = ()
    selective_predicates: Tuple[Predicate, ...] = ()
    relationships: Tuple[str, ...] = ()
    classes: Tuple[str, ...] = ()
    name: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "projections", tuple(self.projections))
        object.__setattr__(self, "join_predicates", tuple(self.join_predicates))
        object.__setattr__(
            self, "selective_predicates", tuple(self.selective_predicates)
        )
        object.__setattr__(self, "relationships", tuple(self.relationships))
        object.__setattr__(self, "classes", tuple(self.classes))
        if not self.classes:
            raise QueryError("a query must access at least one object class")
        if len(set(self.classes)) != len(self.classes):
            raise QueryError("duplicate class in query class list")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def predicates(self) -> Tuple[Predicate, ...]:
        """All predicates of the query (joins then selections)."""
        return self.join_predicates + self.selective_predicates

    def referenced_classes(self) -> FrozenSet[str]:
        """The classes in the query's class list."""
        return frozenset(self.classes)

    def projection_classes(self) -> FrozenSet[str]:
        """Classes that contribute at least one projected attribute."""
        classes: Set[str] = set()
        for projection in self.projections:
            classes.add(projection.split(".", 1)[0])
        return frozenset(classes)

    def predicate_classes(self) -> FrozenSet[str]:
        """Classes referenced by any predicate of the query."""
        classes: Set[str] = set()
        for predicate in self.predicates():
            classes.update(predicate.referenced_classes())
        return frozenset(classes)

    def predicates_on(self, class_name: str) -> List[Predicate]:
        """All predicates that mention ``class_name``."""
        return [p for p in self.predicates() if p.references_class(class_name)]

    def has_predicate(self, predicate: Predicate) -> bool:
        """Whether the query contains ``predicate`` (modulo normalization)."""
        target = predicate.normalized()
        return any(p.normalized() == target for p in self.predicates())

    @property
    def class_count(self) -> int:
        """Number of object classes accessed."""
        return len(self.classes)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def with_selective_predicates(
        self, predicates: Iterable[Predicate]
    ) -> "Query":
        """A copy of the query with a replaced selective-predicate list."""
        return replace(self, selective_predicates=tuple(predicates))

    def add_selective_predicates(
        self, predicates: Iterable[Predicate]
    ) -> "Query":
        """A copy of the query with extra selective predicates appended."""
        extra = [p for p in predicates if not self.has_predicate(p)]
        return replace(
            self,
            selective_predicates=self.selective_predicates + tuple(extra),
        )

    def without_classes(self, class_names: Iterable[str]) -> "Query":
        """A copy of the query with ``class_names`` and the predicates and
        projections referencing them removed.

        The relationship list is kept as it is: a query holds no schema, so
        it cannot tell which relationships involve a dropped class.
        :meth:`without_class` is the schema-aware drop class elimination
        uses.
        """
        dropped = set(class_names)
        remaining = tuple(c for c in self.classes if c not in dropped)
        if not remaining:
            raise QueryError("cannot eliminate every class from a query")
        projections = tuple(
            p for p in self.projections if p.split(".", 1)[0] not in dropped
        )
        joins = tuple(
            p
            for p in self.join_predicates
            if not (p.referenced_classes() & dropped)
        )
        selections = tuple(
            p
            for p in self.selective_predicates
            if not (p.referenced_classes() & dropped)
        )
        return replace(
            self,
            projections=projections,
            join_predicates=joins,
            selective_predicates=selections,
            classes=remaining,
        )

    def without_class(self, class_name: str, schema: Schema) -> "Query":
        """Class elimination's drop: :meth:`without_classes` for
        ``class_name``, minus every relationship that involves it."""
        return self.without_classes([class_name]).keep_relationships(
            name
            for name in self.relationships
            if not schema.relationship(name).involves(class_name)
        )

    def keep_relationships(self, names: Iterable[str]) -> "Query":
        """A copy of the query keeping only the listed relationships."""
        keep = set(names)
        return replace(
            self,
            relationships=tuple(r for r in self.relationships if r in keep),
        )

    def renamed(self, name: str) -> "Query":
        """A copy of the query carrying a different name."""
        return replace(self, name=name)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, schema: Schema) -> None:
        """Check the query against ``schema``.

        Verifies that every class exists, every projected / filtered
        attribute resolves, every relationship exists and connects two
        classes of the query, and every predicate only references classes in
        the class list.

        Raises
        ------
        QueryError
            On the first inconsistency found.
        """
        for class_name in self.classes:
            if not schema.has_class(class_name):
                raise QueryError(f"query references unknown class {class_name!r}")
        class_set = set(self.classes)
        for projection in self.projections:
            try:
                ref = schema.resolve(projection)
            except Exception as exc:
                raise QueryError(f"bad projection {projection!r}: {exc}") from exc
            if ref.class_name not in class_set:
                raise QueryError(
                    f"projection {projection!r} references class outside the "
                    "query's class list"
                )
        for predicate in self.predicates():
            for operand in predicate.referenced_attributes():
                if operand.class_name not in class_set:
                    raise QueryError(
                        f"predicate {predicate} references class "
                        f"{operand.class_name!r} outside the query's class list"
                    )
                try:
                    schema.attribute(operand.class_name, operand.attribute_name)
                except Exception as exc:
                    raise QueryError(
                        f"predicate {predicate} references unknown attribute "
                        f"{operand.qualified_name}: {exc}"
                    ) from exc
        for rel_name in self.relationships:
            if not schema.has_relationship(rel_name):
                raise QueryError(
                    f"query references unknown relationship {rel_name!r}"
                )
            rel = schema.relationship(rel_name)
            if rel.source not in class_set or rel.target not in class_set:
                raise QueryError(
                    f"relationship {rel_name!r} connects classes outside the "
                    "query's class list"
                )

    # ------------------------------------------------------------------
    # Graph helpers
    # ------------------------------------------------------------------
    def connected_components(self, schema: Schema) -> List[Set[str]]:
        """Partition the query's classes by relationship connectivity."""
        remaining = set(self.classes)
        components: List[Set[str]] = []
        rel_objects = [schema.relationship(name) for name in self.relationships]
        while remaining:
            seed = remaining.pop()
            component = {seed}
            frontier = [seed]
            while frontier:
                current = frontier.pop()
                for rel in rel_objects:
                    if not rel.involves(current):
                        continue
                    other = rel.other(current)
                    if other in remaining:
                        remaining.discard(other)
                        component.add(other)
                        frontier.append(other)
            components.append(component)
        return components

    def __str__(self) -> str:
        from .formatter import format_query

        return format_query(self)
