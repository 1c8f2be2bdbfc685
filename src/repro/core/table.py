"""The transformation table ``T``.

``T`` has one row per relevant semantic constraint and one column per
distinct predicate appearing in the query or in any relevant constraint.
Each cell ``t(ci, pj)`` records the role predicate ``pj`` plays in constraint
``ci`` together with its current classification (see
:class:`repro.core.tags.CellTag`).  The whole transformation process only
ever mutates this table — the query itself is untouched until formulation —
which is the paper's central trick for making transformation order
immaterial.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..constraints.horn_clause import SemanticConstraint
from ..constraints.predicate import Predicate
from .tags import CellTag, PredicateTag


class TransformationTable:
    """The (constraint x predicate) tag table.

    Rows are keyed by constraint name, columns by the normalized predicate's
    identity key.  The table also remembers which predicates were part of the
    original query and the interned predicate objects themselves, since the
    formulation step needs to turn columns back into predicates.
    """

    def __init__(
        self,
        constraints: Sequence[SemanticConstraint],
        predicates: Sequence[Predicate],
        query_predicates: Iterable[Predicate],
    ) -> None:
        self._constraints: Dict[str, SemanticConstraint] = {
            c.name: c for c in constraints
        }
        self._constraint_order: List[str] = [c.name for c in constraints]
        self._constraint_index: Dict[str, int] = {
            name: index for index, name in enumerate(self._constraint_order)
        }
        #: Column key -> interned normalized predicate, in column order.
        self._predicates: Dict[Tuple, Predicate] = {}
        for predicate in predicates:
            key = predicate.key()
            if key not in self._predicates:
                self._predicates[key] = predicate.normalized()
        self._query_keys = {p.key() for p in query_predicates}
        #: The cells, column by column: ``{column key: {constraint: tag}}``,
        #: each column's rows in constraint order.
        self._columns: Dict[Tuple, Dict[str, CellTag]] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def constraint_names(self) -> List[str]:
        """Row keys in insertion order."""
        return list(self._constraint_order)

    def constraints(self) -> List[SemanticConstraint]:
        """The constraints forming the rows."""
        return [self._constraints[name] for name in self._constraint_order]

    def constraint(self, name: str) -> SemanticConstraint:
        """Row lookup by constraint name."""
        return self._constraints[name]

    def predicates(self) -> List[Predicate]:
        """The predicates forming the columns, in insertion order."""
        return list(self._predicates.values())

    def predicate_count(self) -> int:
        """Number of columns (``m`` in the complexity bound)."""
        return len(self._predicates)

    def constraint_count(self) -> int:
        """Number of rows (``n`` in the complexity bound)."""
        return len(self._constraint_order)

    def was_in_query(self, predicate: Predicate) -> bool:
        """Whether ``predicate`` appeared in the original query."""
        return predicate.key() in self._query_keys

    # ------------------------------------------------------------------
    # Cell access
    # ------------------------------------------------------------------
    def get(self, constraint_name: str, predicate: Predicate) -> CellTag:
        """The cell ``t(constraint, predicate)`` (``NOT_PRESENT`` by default)."""
        column = self._columns.get(predicate.key())
        if column is None:
            return CellTag.NOT_PRESENT
        return column.get(constraint_name, CellTag.NOT_PRESENT)

    def set(
        self, constraint_name: str, predicate: Predicate, tag: CellTag
    ) -> None:
        """Set the cell ``t(constraint, predicate)``."""
        if constraint_name not in self._constraints:
            raise KeyError(f"unknown constraint {constraint_name!r}")
        key = predicate.key()
        column = self._columns.get(key)
        if column is None:
            if key not in self._predicates:
                self._predicates[key] = predicate.normalized()
            self._columns[key] = {constraint_name: tag}
            return
        if constraint_name in column:
            column[constraint_name] = tag
            return
        index = self._constraint_index
        last = next(reversed(column))
        column[constraint_name] = tag
        if index[constraint_name] < index[last]:
            # Not the constraint-order append initialization makes: re-sort
            # the column so it reads in constraint order.
            self._columns[key] = {
                name: column[name]
                for name in sorted(column, key=index.__getitem__)
            }

    def column(self, predicate: Predicate) -> Dict[str, CellTag]:
        """All non-``NOT_PRESENT`` cells of the predicate's column, in
        constraint order."""
        return dict(self._columns.get(predicate.key(), ()))

    def row(self, constraint_name: str) -> Dict[Tuple, CellTag]:
        """All non-``NOT_PRESENT`` cells of a constraint's row."""
        return {
            key: column[constraint_name]
            for key, column in self._columns.items()
            if constraint_name in column
        }

    # ------------------------------------------------------------------
    # Derived views used by the algorithm
    # ------------------------------------------------------------------
    def consequent_cell(self, constraint: SemanticConstraint) -> CellTag:
        """The cell of the constraint's consequent predicate."""
        return self.get(constraint.name, constraint.consequent)

    def antecedents_all_present(self, constraint: SemanticConstraint) -> bool:
        """Whether every antecedent of ``constraint`` is PresentAntecedent.

        Constraints with an empty antecedent list (class-membership-only
        conditions such as c3 and c4 of the paper) are trivially fireable.
        """
        return all(
            self.get(constraint.name, antecedent) is CellTag.PRESENT_ANTECEDENT
            for antecedent in constraint.antecedents
        )

    def classification_of(self, predicate: Predicate) -> Optional[PredicateTag]:
        """The classification carried by the predicate's column, if any.

        Because the transformation step propagates every lowering to all
        classification cells of the column, any classified cell is
        representative; for robustness the lowest classification found is
        returned.
        """
        lowest: Optional[PredicateTag] = None
        for tag in self._columns.get(predicate.key(), {}).values():
            predicate_tag = tag.as_predicate_tag()
            if predicate_tag is None:
                continue
            if lowest is None or predicate_tag.rank < lowest.rank:
                lowest = predicate_tag
        return lowest

    def was_introduced(self, predicate: Predicate) -> bool:
        """Whether ``predicate`` was absent from the query but got classified.

        This happens exactly when an introduction transformation fired for
        it: some cell moved from ``AbsentConsequent`` to a classification.
        """
        if self.was_in_query(predicate):
            return False
        return self.classification_of(predicate) is not None

    def final_predicates(self) -> List[Tuple[Predicate, PredicateTag]]:
        """Predicates of the final candidate set with their final tags.

        The candidate set contains every original query predicate plus every
        introduced predicate.  Query predicates with no classification cell
        stay imperative (the paper's default: "unless proven otherwise, we
        have to assume that all the predicates contribute to the results").
        """
        result: List[Tuple[Predicate, PredicateTag]] = []
        for predicate in self._predicates.values():
            classification = self.classification_of(predicate)
            if self.was_in_query(predicate):
                result.append(
                    (predicate, classification or PredicateTag.IMPERATIVE)
                )
            elif classification is not None:
                result.append((predicate, classification))
        return result

    # ------------------------------------------------------------------
    # Rendering (used in examples and the worked-example test)
    # ------------------------------------------------------------------
    def render(self) -> str:
        """A compact textual rendering of the table, constraints as rows."""
        predicates = self.predicates()
        header = ["constraint"] + [str(p) for p in predicates]
        lines = ["  |  ".join(header)]
        for name in self._constraint_order:
            cells = [
                str(self.get(name, predicate)) for predicate in predicates
            ]
            lines.append("  |  ".join([name] + cells))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransformationTable(constraints={self.constraint_count()}, "
            f"predicates={self.predicate_count()})"
        )
