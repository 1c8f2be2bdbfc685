"""Initialization of the transformation data structures (Section 3.1).

Given a query and the relevant semantic constraints, initialization builds

* ``C`` — the relevant constraints (rows of the table),
* ``P`` — every distinct predicate appearing in the query or in a relevant
  constraint (columns of the table),
* ``T`` — the transformation table with each cell set according to the
  paper's initialization algorithm:

  ====================================  =====================
  predicate's role in the constraint     initial cell value
  ====================================  =====================
  consequent, appears in the query       ``Imperative``
  consequent, absent from the query      ``AbsentConsequent``
  antecedent, appears in the query       ``PresentAntecedent``
  antecedent, absent from the query      ``AbsentAntecedent``
  not in the constraint                  ``_`` (NOT_PRESENT)
  ====================================  =====================

"Appears in the query" is an exact (normalized) match for consequent
predicates — only a predicate literally present can be eliminated — while
for antecedents the optimizer may optionally accept a query predicate that
*implies* the antecedent (e.g. ``quantity = 500`` satisfies an antecedent
``quantity > 100``); this is a sound strengthening controlled by
``use_implication`` and enabled by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..constraints.horn_clause import SemanticConstraint
from ..constraints.implication import implies
from ..constraints.predicate import Predicate
from ..query.query import Query
from .table import TransformationTable
from .tags import CellTag


@dataclass
class InitializationResult:
    """The data structures produced by the initialization step."""

    table: TransformationTable
    constraints: Tuple[SemanticConstraint, ...]
    predicates: Tuple[Predicate, ...]
    query_predicates: Tuple[Predicate, ...]


def _by_attribute(
    query_predicates: Sequence[Predicate],
) -> Dict[Tuple[str, str], List[Predicate]]:
    """The normalized query predicates grouped by their left operand.

    A predicate can only equal, or imply, one with the same left operand, so
    each test below reads one group.  Within it, presence stays the
    predicates' ``==`` (under which the constants ``1``, ``1.0`` and
    ``True`` are equal), not equality of their ``key()``.
    """
    groups: Dict[Tuple[str, str], List[Predicate]] = {}
    for predicate in query_predicates:
        left = predicate.left
        groups.setdefault((left.class_name, left.attribute_name), []).append(
            predicate
        )
    return groups


def _same_left(
    groups: Dict[Tuple[str, str], List[Predicate]], predicate: Predicate
) -> Sequence[Predicate]:
    left = predicate.left
    return groups.get((left.class_name, left.attribute_name), ())


def collect_predicates(
    query: Query, constraints: Sequence[SemanticConstraint]
) -> List[Predicate]:
    """Build ``P``: distinct normalized predicates of the query and constraints."""
    predicates: List[Predicate] = []
    seen = set()

    def add(predicate: Predicate) -> None:
        normalized = predicate.normalized()
        key = normalized.key()
        if key not in seen:
            seen.add(key)
            predicates.append(normalized)

    for predicate in query.predicates():
        add(predicate)
    for constraint in constraints:
        for predicate in constraint.predicates():
            add(predicate)
    return predicates


def filter_relevant(
    constraints: Iterable[SemanticConstraint], query: Query
) -> List[SemanticConstraint]:
    """Keep only constraints relevant to ``query``.

    Relevance requires every class referenced by the constraint to appear in
    the query, and every relationship the constraint is anchored on to be
    traversed by the query.
    """
    classes = query.referenced_classes()
    return [
        c for c in constraints if c.is_relevant_to(classes, query.relationships)
    ]


def initialize(
    query: Query,
    constraints: Sequence[SemanticConstraint],
    use_implication: bool = True,
    assume_relevant: bool = False,
) -> InitializationResult:
    """Build the transformation table for ``query`` and ``constraints``.

    Parameters
    ----------
    query:
        The query being optimized.
    constraints:
        Candidate semantic constraints.  Unless ``assume_relevant`` is set,
        they are filtered down to the relevant ones first.
    use_implication:
        Treat an antecedent as present when some query predicate *implies*
        it (not only when it appears verbatim).
    assume_relevant:
        Skip the relevance filter (used when the caller already retrieved
        relevant constraints through the repository).
    """
    relevant = (
        list(constraints) if assume_relevant else filter_relevant(constraints, query)
    )
    query_predicates = tuple(p.normalized() for p in query.predicates())
    predicates = collect_predicates(query, relevant)
    table = TransformationTable(relevant, predicates, query_predicates)
    groups = _by_attribute(query_predicates)

    # Constraint by constraint, so every column fills in constraint order.
    for constraint in relevant:
        consequent = constraint.consequent.normalized()
        if consequent in _same_left(groups, consequent):
            table.set(constraint.name, consequent, CellTag.IMPERATIVE)
        else:
            table.set(constraint.name, consequent, CellTag.ABSENT_CONSEQUENT)
        for antecedent in constraint.antecedents:
            antecedent = antecedent.normalized()
            candidates = _same_left(groups, antecedent)
            present = antecedent in candidates or (
                use_implication and any(implies(p, antecedent) for p in candidates)
            )
            table.set(
                constraint.name,
                antecedent,
                CellTag.PRESENT_ANTECEDENT if present else CellTag.ABSENT_ANTECEDENT,
            )
    return InitializationResult(
        table=table,
        constraints=tuple(relevant),
        predicates=tuple(predicates),
        query_predicates=query_predicates,
    )
