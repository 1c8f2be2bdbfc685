"""The queue-driven transformation step (Sections 3.2 and 3.3).

The :class:`TransformationEngine` repeatedly

1. identifies the constraints that can be *fired* — all antecedents present
   and firing would still lower a tag or introduce a predicate — and places
   them on the transformation queue (Section 3.2, *Update Transformation
   Queue*), then
2. serves the queue: each served constraint changes the tag of its
   consequent predicate in the transformation table according to Tables 3.1
   and 3.2 and propagates the change down the predicate's column
   (Section 3.3, *Transformation*).

The query itself is never touched: every transformation is tentative and
recorded only in the table (plus the trace), so transformations can never
preclude one another and their order is immaterial.  The work performed is
bounded by the size of the table — ``O(m·n)`` for ``m`` distinct predicates
and ``n`` relevant constraints — because each cell can only be lowered a
constant number of times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..constraints.horn_clause import SemanticConstraint
from ..constraints.predicate import Predicate
from ..schema.schema import Schema
from .profitability import IndexProbe, is_indexed
from .queue import QueueEntry, TransformationQueue
from .rules import TransformationKind, classify_transformation, target_tag
from .table import TransformationTable
from .tags import CellTag, PredicateTag, can_lower
from .trace import OptimizationTrace, TransformationRecord


@dataclass
class TransformationStats:
    """Counters describing one transformation run."""

    fired: int = 0
    enqueued: int = 0
    skipped_already_lowered: int = 0
    budget_exhausted: bool = False


class TransformationEngine:
    """Runs the tentative-transformation loop over a transformation table."""

    def __init__(
        self,
        table: TransformationTable,
        schema: Schema,
        queue: Optional[TransformationQueue] = None,
        transformation_budget: Optional[int] = None,
        index_probe: Optional[IndexProbe] = None,
    ) -> None:
        self.table = table
        self.schema = schema
        #: The live index set the consequents are judged against (the
        #: schema's declared one without a probe; see :func:`is_indexed`).
        self.index_probe = index_probe
        self.queue = queue if queue is not None else TransformationQueue()
        self.transformation_budget = transformation_budget
        self.trace = OptimizationTrace()
        self.stats = TransformationStats()
        #: Per constraint name, ``(tag its firing assigns, consequent
        #: indexed)``: fixed for a rule within one run.
        self._targets: Dict[str, Tuple[PredicateTag, bool]] = {}

    # ------------------------------------------------------------------
    # Constraint assessment
    # ------------------------------------------------------------------
    def _consequent_indexed(self, constraint: SemanticConstraint) -> bool:
        """Whether the constraint's consequent is a predicate on an indexed attribute."""
        consequent = constraint.consequent
        if not consequent.is_selection:
            return False
        return is_indexed(
            self.schema,
            self.index_probe,
            consequent.left.class_name,
            consequent.left.attribute_name,
        )

    def _target(self, constraint: SemanticConstraint) -> Tuple[PredicateTag, bool]:
        """The tag firing ``constraint`` assigns and whether its consequent
        is indexed, derived once per run."""
        target = self._targets.get(constraint.name)
        if target is None:
            indexed = self._consequent_indexed(constraint)
            target = self._targets[constraint.name] = (
                target_tag(constraint.classification, indexed),
                indexed,
            )
        return target

    def _assess(
        self, constraint: SemanticConstraint
    ) -> Optional[Tuple[TransformationKind, PredicateTag, Optional[PredicateTag]]]:
        """Determine whether firing ``constraint`` would achieve anything.

        Returns ``(kind, new_tag, previous_tag)`` when the constraint is
        useful, ``None`` otherwise.  ``previous_tag`` is ``None`` when the
        consequent predicate would be introduced rather than re-classified.
        """
        cell = self.table.consequent_cell(constraint)
        new_tag, indexed = self._target(constraint)

        if cell is CellTag.ABSENT_CONSEQUENT:
            kind = classify_transformation(present_in_query=False, consequent_indexed=indexed)
            return kind, new_tag, None
        current = cell.as_predicate_tag()
        if current is None:
            # The consequent predicate is not present and not introducible
            # through this cell (should not happen after initialization).
            return None
        if not can_lower(current, new_tag):
            return None
        kind = classify_transformation(present_in_query=True, consequent_indexed=indexed)
        return kind, new_tag, current

    def _is_fireable(self, constraint: SemanticConstraint) -> bool:
        """Whether every antecedent of ``constraint`` is currently present."""
        return self.table.antecedents_all_present(constraint)

    # ------------------------------------------------------------------
    # Queue maintenance (Section 3.2)
    # ------------------------------------------------------------------
    def _consider(self, constraint: SemanticConstraint) -> None:
        """Enqueue ``constraint`` if it is fireable and still useful."""
        if self.queue.contains(constraint.name):
            return
        if not self._is_fireable(constraint):
            return
        assessment = self._assess(constraint)
        if assessment is None:
            return
        kind, _new_tag, _previous = assessment
        if self.queue.push(QueueEntry(constraint.name, kind)):
            self.stats.enqueued += 1

    def update_queue(self, constraints: Optional[Iterable[SemanticConstraint]] = None) -> None:
        """(Re-)populate the queue from the given constraints (default: all rows)."""
        targets = (
            list(constraints)
            if constraints is not None
            else self.table.constraints()
        )
        for constraint in targets:
            self._consider(constraint)

    def _constraints_referencing(self, predicate: Predicate) -> List[SemanticConstraint]:
        """Constraints whose row has a cell in the predicate's column."""
        column = self.table.column(predicate)
        return [self.table.constraint(name) for name in column]

    # ------------------------------------------------------------------
    # Firing (Section 3.3)
    # ------------------------------------------------------------------
    def _fire(self, entry: QueueEntry) -> bool:
        """Serve one queue entry.  Returns ``True`` if a tag actually changed."""
        constraint = self.table.constraint(entry.constraint_name)
        assessment = self._assess(constraint)
        if assessment is None:
            # Some constraint served earlier already lowered the tag — the
            # paper's "ignore c_i then" branch.
            self.stats.skipped_already_lowered += 1
            return False
        kind, new_tag, previous = assessment
        consequent = constraint.consequent
        new_cell = CellTag.from_predicate_tag(new_tag)
        self.table.set(constraint.name, consequent, new_cell)

        # Propagate down the column: other rows that classify this predicate
        # adopt the new classification; rows waiting for it as an absent
        # antecedent now see it present.
        affected = self._constraints_referencing(consequent)
        for other in affected:
            if other.name == constraint.name:
                continue
            cell = self.table.get(other.name, consequent)
            if cell is CellTag.ABSENT_ANTECEDENT:
                self.table.set(
                    other.name, consequent, CellTag.PRESENT_ANTECEDENT
                )
            elif cell.is_classification:
                current = cell.as_predicate_tag()
                if current is not None and new_tag.is_lower_than(current):
                    self.table.set(other.name, consequent, new_cell)

        self.trace.add(
            TransformationRecord(
                kind=kind,
                constraint_name=constraint.name,
                predicate=consequent,
                new_tag=new_tag,
                previous_tag=previous,
            )
        )
        self.stats.fired += 1

        # Newly enabled or newly useful constraints are exactly those whose
        # row mentions the consequent predicate.
        self.update_queue(affected)
        return True

    def run(self) -> OptimizationTrace:
        """Run the transformation loop to completion (or budget exhaustion)."""
        self.update_queue()
        while self.queue:
            if (
                self.transformation_budget is not None
                and self.stats.fired >= self.transformation_budget
            ):
                self.stats.budget_exhausted = True
                break
            entry = self.queue.pop()
            self._fire(entry)
        return self.trace

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def final_tags(self) -> Dict[Predicate, PredicateTag]:
        """Final classification of every candidate predicate."""
        return dict(self.table.final_predicates())
