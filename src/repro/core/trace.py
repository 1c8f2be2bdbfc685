"""Transformation traces.

Every transformation the optimizer applies (tentatively, on the table) is
recorded as a :class:`TransformationRecord`; the whole list forms the trace
attached to an :class:`~repro.core.optimizer.OptimizationResult`.  Traces
are what the worked-example test checks against the paper's Section 3.5 and
what the examples print to explain the optimizer's behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..constraints.predicate import Predicate
from .rules import TransformationKind
from .tags import PredicateTag


@dataclass(frozen=True)
class TransformationRecord:
    """One applied transformation.

    Attributes
    ----------
    kind:
        Which rule fired.
    constraint_name:
        The semantic constraint used (empty for class elimination).
    predicate:
        The consequent predicate whose tag changed (``None`` for class
        elimination).
    new_tag:
        The classification assigned by the transformation.
    previous_tag:
        The classification before the transformation (``None`` when the
        predicate was being introduced).
    eliminated_class:
        For class elimination, the dropped class.
    """

    kind: TransformationKind
    constraint_name: str = ""
    predicate: Optional[Predicate] = None
    new_tag: Optional[PredicateTag] = None
    previous_tag: Optional[PredicateTag] = None
    eliminated_class: Optional[str] = None

    def describe(self) -> str:
        """One-line human-readable description."""
        if self.kind is TransformationKind.CLASS_ELIMINATION:
            return f"class elimination: dropped {self.eliminated_class}"
        before = self.previous_tag.value if self.previous_tag else "absent"
        after = self.new_tag.value if self.new_tag else "?"
        return (
            f"{self.kind.value} via {self.constraint_name}: "
            f"{self.predicate} [{before} -> {after}]"
        )


@dataclass
class OptimizationTrace:
    """The ordered list of transformations applied during one optimization."""

    records: List[TransformationRecord] = field(default_factory=list)

    def add(self, record: TransformationRecord) -> None:
        """Append a record."""
        self.records.append(record)

    def of_kind(self, kind: TransformationKind) -> List[TransformationRecord]:
        """All records of one transformation kind."""
        return [record for record in self.records if record.kind is kind]

    def eliminations(self) -> List[TransformationRecord]:
        """Restriction eliminations performed."""
        return self.of_kind(TransformationKind.RESTRICTION_ELIMINATION)

    def introductions(self) -> List[TransformationRecord]:
        """Index and restriction introductions performed."""
        return self.of_kind(TransformationKind.INDEX_INTRODUCTION) + self.of_kind(
            TransformationKind.RESTRICTION_INTRODUCTION
        )

    def constraints_used(self) -> List[str]:
        """Names of constraints that fired, in firing order."""
        return [r.constraint_name for r in self.records if r.constraint_name]

    def describe(self) -> str:
        """Multi-line description of the whole trace."""
        if not self.records:
            return "(no transformations applied)"
        return "\n".join(
            f"#{index + 1} {record.describe()}"
            for index, record in enumerate(self.records)
        )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)
