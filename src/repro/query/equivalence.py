"""Semantic equivalence checking between queries.

Semantic query optimization must produce a query that *"produces the same
answer as the original query in any database state"* (or, for state-derived
rules, in the current database state).  This module provides two levels of
checking used pervasively in the test suite:

* :func:`structurally_equal` — a cheap syntactic comparison that ignores
  ordering of predicate/class/relationship lists.
* :func:`results_equal` / :func:`answers_match` — execute both queries
  against an actual database instance and compare the returned answer sets
  projected onto the *original* query's projection list.  This is the check
  that matters for the Table 4.2 reproduction: whatever the optimizer does,
  the answers must agree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, List, Sequence, Tuple

from .query import Query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.storage import ObjectStore
    from ..schema.schema import Schema


def _predicate_keys(query: Query) -> FrozenSet:
    return frozenset(p.key() for p in query.predicates())


def equivalence_key(query: Query) -> Tuple:
    """A hashable structural identity key for ``query``.

    Two queries compare :func:`structurally_equal` exactly when their keys
    are equal, which is what lets batch callers deduplicate structurally
    equivalent queries (and cache optimization results) with a dict instead
    of pairwise comparisons.
    """
    return (
        frozenset(query.projections),
        _predicate_keys(query),
        frozenset(query.relationships),
        frozenset(query.classes),
    )


def structurally_equal(left: Query, right: Query) -> bool:
    """Whether two queries are the same modulo list ordering."""
    return equivalence_key(left) == equivalence_key(right)


def _project_rows(
    rows: Sequence[dict], projections: Sequence[str]
) -> List[Tuple]:
    """Project result rows onto the given projection list as hashable tuples."""
    projected = []
    for row in rows:
        projected.append(tuple(row.get(attribute) for attribute in projections))
    return projected


def results_equal(
    original_rows: Sequence[dict],
    optimized_rows: Sequence[dict],
    projections: Sequence[str],
) -> bool:
    """Whether two result sets agree on ``projections``.

    The comparison is set-based (duplicates removed): the paper's queries
    return the distinct combinations of projected attribute values, so a
    transformation that eliminates a class may change how many *duplicate*
    rows a fan-out join produces without changing the answer.
    """
    left = set(_project_rows(original_rows, projections))
    right = set(_project_rows(optimized_rows, projections))
    return left == right


def answers_match(
    schema: "Schema",
    store: "ObjectStore",
    original: Query,
    optimized: Query,
    execution_mode=None,
) -> bool:
    """Execute both queries and compare their answers **as sets**.

    The comparison projects both answer sets onto the original query's
    projection list restricted to classes still present in the optimized
    query (class elimination may legitimately drop a class none of whose
    attributes were projected; projected classes are never eliminated),
    and drops duplicates (:func:`results_equal`).  Class elimination may
    return fewer duplicate rows: on the paper's query over the ``--execute``
    demo database the original returns 41 rows, each distinct row repeated
    once per matching supplier, and the query without ``supplier`` returns
    the same 24 distinct rows once each.  This function reports them equal.
    ``execution_mode`` selects the engine (an
    :class:`~repro.engine.modes.ExecutionMode` or its name); ``None`` uses
    ``vectorized``.
    """
    from ..engine.modes import create_executor

    executor = create_executor(schema, store, mode=execution_mode)
    original_result = executor.execute(original)
    optimized_result = executor.execute(optimized)

    optimized_classes = set(optimized.classes)
    shared_projections = [
        attribute
        for attribute in original.projections
        if attribute.split(".", 1)[0] in optimized_classes
    ]
    if not shared_projections:
        shared_projections = list(optimized.projections)
    return results_equal(
        original_result.rows, optimized_result.rows, shared_projections
    )
