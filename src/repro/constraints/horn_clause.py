"""Semantic constraints as Horn clauses.

The paper restricts itself to *"semantic constraints in the form of Horn
clauses"*: a conjunction of antecedent predicates implying a single
consequent predicate, e.g. constraint c1 of Figure 2.2::

    cargo(_, desc, ..., collects), vehicle(_, "refrigerated truck", ...,
    collects, _)  -->  equal(desc, "frozen food")

which in our predicate notation reads::

    vehicle.desc = "refrigerated truck"  -->  cargo.desc = "frozen food"
    (over classes joined by the ``collects`` relationship)

Constraints are classified *intra-class* (all predicates reference a single
object class, like c4) or *inter-class* (predicates span classes, like c1,
c2, c3, c5); the classification is computed at construction time and stored
in the constraint's tag, exactly as the paper stores it during
precompilation.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from .predicate import Predicate


class ConstraintClass(enum.Enum):
    """The paper's intra-class / inter-class constraint classification."""

    INTRA = "intra"
    INTER = "inter"


class ConstraintOrigin(enum.Enum):
    """Where a constraint came from.

    ``STATIC`` constraints are integrity constraints declared on the schema
    (always true in every database state).  ``DERIVED`` constraints are the
    Siegel-style rules deduced from the *current* database state (Section 1
    of the paper notes these can be accommodated by the same algorithm), and
    ``CLOSURE`` constraints were produced by transitive-closure
    materialization during precompilation.
    """

    STATIC = "static"
    DERIVED = "derived"
    CLOSURE = "closure"


class ConstraintError(Exception):
    """Raised when a semantic constraint is malformed."""


@dataclass(frozen=True)
class SemanticConstraint:
    """A Horn-clause semantic constraint ``antecedents -> consequent``.

    Parameters
    ----------
    name:
        Identifier used in traces, groups and experiment output (``"c1"``).
    antecedents:
        The conjunctive body of the clause.  May be empty, modelling an
        unconditional fact about the database such as c4 in Figure 2.2
        ("only research staff members can be appointed as managers") whose
        only condition is membership of the ``manager`` class itself; class
        membership is implicit in our representation, so the predicate list
        is empty and :attr:`anchor_classes` carries the class.
    consequent:
        The single consequent predicate (Horn restriction).
    anchor_classes:
        Classes referenced by the constraint through *class membership*
        rather than through an explicit predicate (e.g. ``manager`` in c4,
        or the two classes related by ``collects`` in c1).  They count
        towards relevance and towards the intra-/inter-class classification.
    anchor_relationships:
        The relationships the constraint is conditioned on.  In the paper's
        notation an inter-class constraint shares a relationship pointer
        variable between its class literals (c1 relates cargo and vehicle
        through ``collects``); the rule only holds for object pairs linked
        through that relationship, so a query is only allowed to use the
        constraint when it traverses the same relationship.  Intra-class
        constraints leave this empty.
    origin:
        Provenance of the constraint (static / derived / closure).
    derived_from:
        For closure constraints, the names of the constraints chained to
        produce this one.
    description:
        Optional natural-language reading of the constraint.
    """

    name: str
    antecedents: Tuple[Predicate, ...]
    consequent: Predicate
    anchor_classes: FrozenSet[str] = frozenset()
    anchor_relationships: FrozenSet[str] = frozenset()
    origin: ConstraintOrigin = ConstraintOrigin.STATIC
    derived_from: Tuple[str, ...] = ()
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConstraintError("constraint name must be non-empty")
        object.__setattr__(self, "antecedents", tuple(self.antecedents))
        object.__setattr__(self, "anchor_classes", frozenset(self.anchor_classes))
        object.__setattr__(
            self, "anchor_relationships", frozenset(self.anchor_relationships)
        )
        object.__setattr__(self, "derived_from", tuple(self.derived_from))
        if self.consequent in self.antecedents:
            raise ConstraintError(
                f"constraint {self.name!r} is trivial: consequent appears in "
                "its own antecedent"
            )

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @staticmethod
    def build(
        name: str,
        antecedents: Iterable[Predicate],
        consequent: Predicate,
        anchor_classes: Iterable[str] = (),
        anchor_relationships: Iterable[str] = (),
        origin: ConstraintOrigin = ConstraintOrigin.STATIC,
        derived_from: Iterable[str] = (),
        description: str = "",
    ) -> "SemanticConstraint":
        """Build a constraint, normalizing container types."""
        return SemanticConstraint(
            name=name,
            antecedents=tuple(antecedents),
            consequent=consequent,
            anchor_classes=frozenset(anchor_classes),
            anchor_relationships=frozenset(anchor_relationships),
            origin=origin,
            derived_from=tuple(derived_from),
            description=description,
        )

    # ------------------------------------------------------------------
    # Classification and relevance
    # ------------------------------------------------------------------
    def referenced_classes(self) -> FrozenSet[str]:
        """All object classes referenced by this constraint.

        Includes classes mentioned in any antecedent or consequent predicate
        plus the anchor classes referenced by class membership only.
        """
        classes = set(self.anchor_classes)
        for predicate in self.predicates():
            classes.update(predicate.referenced_classes())
        return frozenset(classes)

    @property
    def classification(self) -> ConstraintClass:
        """Intra-class when one class is referenced, inter-class otherwise.

        This mirrors the paper's tag ``tc(ci)`` computed at precompilation.
        """
        return (
            ConstraintClass.INTRA
            if len(self.referenced_classes()) <= 1
            else ConstraintClass.INTER
        )

    @property
    def is_intra_class(self) -> bool:
        """Shorthand for ``classification is ConstraintClass.INTRA``."""
        return self.classification is ConstraintClass.INTRA

    def is_relevant_to(
        self,
        query_classes: Iterable[str],
        query_relationships: Optional[Iterable[str]] = None,
    ) -> bool:
        """The paper's relevance test.

        A constraint is relevant to a query iff *all* object classes it
        references also appear in the query and, when the query's
        relationship list is supplied, every relationship the constraint is
        anchored on is traversed by the query.  (The second condition is
        implicit in the paper's Horn-clause notation, where inter-class
        constraints share a relationship pointer variable between their
        class literals.)
        """
        available = set(query_classes)
        if not self.referenced_classes() <= available:
            return False
        if query_relationships is not None and self.anchor_relationships:
            return self.anchor_relationships <= set(query_relationships)
        return True

    # ------------------------------------------------------------------
    # Predicate access
    # ------------------------------------------------------------------
    def predicates(self) -> Tuple[Predicate, ...]:
        """All predicates of the constraint (antecedents then consequent)."""
        return self.antecedents + (self.consequent,)

    def has_antecedent(self, predicate: Predicate) -> bool:
        """Whether ``predicate`` appears in the antecedent."""
        target = predicate.normalized()
        return any(p.normalized() == target for p in self.antecedents)

    def is_consequent(self, predicate: Predicate) -> bool:
        """Whether ``predicate`` is the consequent."""
        return self.consequent.normalized() == predicate.normalized()

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def holds_for(self, binding: Mapping[str, Mapping[str, object]]) -> bool:
        """Check the constraint against one binding of classes to instances.

        The constraint holds when some antecedent is false or the consequent
        is true — standard material implication.  Used by the integrity
        validator (:mod:`repro.constraints.validation`) and by the
        constraint-consistent data generator.
        """
        if all(p.evaluate(binding) for p in self.antecedents):
            return self.consequent.evaluate(binding)
        return True

    def renamed(self, new_name: str) -> "SemanticConstraint":
        """A copy of this constraint under a different name."""
        return SemanticConstraint(
            name=new_name,
            antecedents=self.antecedents,
            consequent=self.consequent,
            anchor_classes=self.anchor_classes,
            anchor_relationships=self.anchor_relationships,
            origin=self.origin,
            derived_from=self.derived_from,
            description=self.description,
        )

    def signature(self) -> Tuple:
        """A name-independent identity for duplicate elimination."""
        return (
            tuple(sorted(p.key() for p in self.antecedents)),
            self.consequent.key(),
            tuple(sorted(self.anchor_classes)),
            tuple(sorted(self.anchor_relationships)),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(str(p) for p in self.antecedents) or "true"
        return f"{self.name}: {body} -> {self.consequent}"


def unique_constraints(
    constraints: Sequence[SemanticConstraint],
) -> Tuple[SemanticConstraint, ...]:
    """Drop constraints whose signature duplicates an earlier one."""
    seen = set()
    result = []
    for constraint in constraints:
        sig = constraint.signature()
        if sig in seen:
            continue
        seen.add(sig)
        result.append(constraint)
    return tuple(result)


def fresh_name(prefix: str, taken: Iterable[str]) -> str:
    """Generate a constraint name ``prefix<N>`` not present in ``taken``."""
    existing = set(taken)
    for index in itertools.count(1):
        candidate = f"{prefix}{index}"
        if candidate not in existing:
            return candidate
    raise AssertionError("unreachable")  # pragma: no cover
