"""Tags used by the transformation algorithm.

The paper classifies

* **predicates in a query** as ``imperative``, ``optional`` or ``redundant``
  (the tag ``tp(pj)``),
* **cells of the transformation table** ``t(ci, pj)`` with the richer set
  ``{AbsentAntecedent, PresentAntecedent, AbsentConsequent, Imperative,
  Optional, Redundant, _}``, and
* **semantic constraints** as ``intra``- or ``inter``-class (``tc(ci)``,
  modelled by :class:`repro.constraints.horn_clause.ConstraintClass`).

This module defines the first two tag sets plus the *lowering* partial order
``Imperative > Optional > Redundant`` the algorithm relies on: a
transformation may only ever lower a predicate's classification, which is
what makes the tentative-application strategy order-insensitive.
"""

from __future__ import annotations

import enum
from typing import Optional


class PredicateTag(enum.Enum):
    """Final classification of a predicate (``tp`` in the paper).

    * ``IMPERATIVE`` — removal would change the query's answer.
    * ``OPTIONAL`` — inclusion does not change the answer but may change
      execution efficiency; kept only if the cost model finds it profitable.
    * ``REDUNDANT`` — affects neither the answer nor efficiency; dropped.
    """

    IMPERATIVE = "imperative"
    OPTIONAL = "optional"
    REDUNDANT = "redundant"

    @property
    def rank(self) -> int:
        """Lowering rank: imperative (2) > optional (1) > redundant (0)."""
        return _PREDICATE_RANK[self._value_]

    def is_lower_than(self, other: "PredicateTag") -> bool:
        """Whether this tag is a strict lowering of ``other``."""
        return self.rank < other.rank


# Keyed by the members' string values, like the conversion tables below.
_PREDICATE_RANK = {
    PredicateTag.IMPERATIVE.value: 2,
    PredicateTag.OPTIONAL.value: 1,
    PredicateTag.REDUNDANT.value: 0,
}


class CellTag(enum.Enum):
    """State of one cell ``t(ci, pj)`` of the transformation table.

    ``NOT_PRESENT`` is the paper's ``_`` — the predicate does not appear in
    the constraint at all.
    """

    ABSENT_ANTECEDENT = "AbsentAntecedent"
    PRESENT_ANTECEDENT = "PresentAntecedent"
    ABSENT_CONSEQUENT = "AbsentConsequent"
    IMPERATIVE = "Imperative"
    PRESENT_OPTIONAL = "Optional"
    PRESENT_REDUNDANT = "Redundant"
    NOT_PRESENT = "_"

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    @property
    def is_classification(self) -> bool:
        """Whether the cell carries a predicate classification."""
        return self in (
            CellTag.IMPERATIVE,
            CellTag.PRESENT_OPTIONAL,
            CellTag.PRESENT_REDUNDANT,
        )

    @property
    def is_antecedent(self) -> bool:
        """Whether the predicate is an antecedent of the row's constraint."""
        return self in (CellTag.ABSENT_ANTECEDENT, CellTag.PRESENT_ANTECEDENT)

    @property
    def is_consequent(self) -> bool:
        """Whether the predicate is the consequent of the row's constraint."""
        return self in (
            CellTag.ABSENT_CONSEQUENT,
            CellTag.IMPERATIVE,
            CellTag.PRESENT_OPTIONAL,
            CellTag.PRESENT_REDUNDANT,
        )

    def as_predicate_tag(self) -> Optional[PredicateTag]:
        """The predicate tag this cell encodes, if any."""
        return _CELL_TO_PREDICATE.get(self._value_)

    @staticmethod
    def from_predicate_tag(tag: PredicateTag) -> "CellTag":
        """The cell tag encoding a predicate classification."""
        return _PREDICATE_TO_CELL[tag._value_]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Keyed by the members' string values: a str hashes in C, an enum member
# through the Python-level ``Enum.__hash__``.
_CELL_TO_PREDICATE = {
    CellTag.IMPERATIVE.value: PredicateTag.IMPERATIVE,
    CellTag.PRESENT_OPTIONAL.value: PredicateTag.OPTIONAL,
    CellTag.PRESENT_REDUNDANT.value: PredicateTag.REDUNDANT,
}
_PREDICATE_TO_CELL = {
    PredicateTag.IMPERATIVE.value: CellTag.IMPERATIVE,
    PredicateTag.OPTIONAL.value: CellTag.PRESENT_OPTIONAL,
    PredicateTag.REDUNDANT.value: CellTag.PRESENT_REDUNDANT,
}


def lower_of(first: PredicateTag, second: PredicateTag) -> PredicateTag:
    """The lower (weaker) of two predicate tags."""
    return first if first.rank <= second.rank else second


def can_lower(current: Optional[PredicateTag], target: PredicateTag) -> bool:
    """Whether a cell currently classified ``current`` can be lowered to ``target``.

    ``current`` is ``None`` for an ``AbsentConsequent`` cell — introduction is
    always possible there, whatever the target classification.
    """
    if current is None:
        return True
    return target.is_lower_than(current)
