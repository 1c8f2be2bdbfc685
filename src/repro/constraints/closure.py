"""Transitive-closure materialization of semantic constraints.

Section 3 of the paper: *"the transitive closures of the constraints are
materialized during precompilation.  This involves computing the closure of
existing predicates using domain knowledge, eg. if (A = a) --> (B > 20) and
(B > 10) --> (C = c) then deduce (A = a) --> (C = c)."*

Materializing the closure is what makes the simple relevance test ("all the
classes a constraint references appear in the query") correct: a chain of
constraints passing through a class *not* in the query is replaced by a
direct constraint that no longer mentions the intermediate class's
predicates... unless the antecedents themselves still mention it.  We follow
the paper's semi-naive fixpoint: repeatedly resolve a constraint whose
consequent implies an antecedent of another constraint, producing a new
constraint whose antecedents are the union of the first constraint's
antecedents and the remaining antecedents of the second.

A consequent can only imply an antecedent on the same attribute
(:func:`~repro.constraints.implication.implies`), so the fixpoint keeps the
admitted constraints' antecedents in an index by attribute and each
producer probes only its consequent's bucket, instead of trying every
consumer × antecedent pair.  The bucket lists the same pairs in the same
order as that full scan, less the ones that cannot chain, so the derived
constraints, their ``cc<N>`` names and lineage are those of the scan.

The companion :class:`PredicateStore` implements the storage optimisation
the paper describes — predicates are extracted into one shared structure and
constraints only hold references — which in Python terms means interning
normalized predicates so equal predicates are a single shared object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .horn_clause import (
    ConstraintOrigin,
    SemanticConstraint,
    fresh_name,
    unique_constraints,
)
from .implication import implies
from .predicate import AttributeOperand, Predicate


class PredicateStore:
    """Interning store for predicates shared across constraints.

    The paper avoids the storage blow-up of materialized closures by
    "extracting all the predicates into a separate structure, and modifying
    the constraints to contain only pointers to relevant predicates in the
    structure".  :meth:`intern` returns a canonical instance per distinct
    normalized predicate so that constraints built through the store share
    predicate objects.
    """

    def __init__(self) -> None:
        self._by_key: Dict[Tuple, Predicate] = {}

    def intern(self, predicate: Predicate) -> Predicate:
        """Return the canonical shared instance for ``predicate``."""
        normalized = predicate.normalized()
        key = normalized.key()
        return self._by_key.setdefault(key, normalized)

    def intern_all(self, predicates: Iterable[Predicate]) -> Tuple[Predicate, ...]:
        """Intern a collection of predicates preserving order."""
        return tuple(self.intern(p) for p in predicates)

    def __len__(self) -> int:
        return len(self._by_key)

    def predicates(self) -> List[Predicate]:
        """All distinct predicates currently interned."""
        return list(self._by_key.values())


@dataclass
class ClosureResult:
    """Outcome of closure computation.

    Attributes
    ----------
    constraints:
        The closed constraint set: the original constraints plus every
        derived constraint, duplicates removed.
    derived:
        Only the newly derived constraints.
    iterations:
        Number of fixpoint rounds performed.
    store:
        The predicate store used to intern all predicates.
    """

    constraints: Tuple[SemanticConstraint, ...]
    derived: Tuple[SemanticConstraint, ...]
    iterations: int
    store: PredicateStore = field(default_factory=PredicateStore)


def _resolve(
    producer: SemanticConstraint,
    consumer: SemanticConstraint,
    matched_antecedent: Predicate,
    name: str,
    store: PredicateStore,
) -> Optional[SemanticConstraint]:
    """Chain ``producer`` into ``consumer`` through ``matched_antecedent``.

    Produces ``producer.antecedents ∧ (consumer.antecedents \\ {matched})
    -> consumer.consequent``.  Returns ``None`` when the result would be
    trivial (its consequent already among its antecedents).
    """
    remaining = tuple(
        p for p in consumer.antecedents if p.normalized() != matched_antecedent.normalized()
    )
    antecedents = store.intern_all(producer.antecedents + remaining)
    # Drop duplicate antecedents while preserving order.
    deduped: List[Predicate] = []
    seen: Set[Tuple] = set()
    for predicate in antecedents:
        key = predicate.key()
        if key not in seen:
            seen.add(key)
            deduped.append(predicate)
    consequent = store.intern(consumer.consequent)
    if any(p.normalized() == consequent.normalized() for p in deduped):
        return None
    anchors = producer.anchor_classes | consumer.anchor_classes
    anchor_relationships = (
        producer.anchor_relationships | consumer.anchor_relationships
    )
    return SemanticConstraint.build(
        name=name,
        antecedents=deduped,
        consequent=consequent,
        anchor_classes=anchors,
        anchor_relationships=anchor_relationships,
        origin=ConstraintOrigin.CLOSURE,
        derived_from=(producer.name, consumer.name),
        description=(
            f"derived by chaining {producer.name} into {consumer.name}"
        ),
    )


def compute_closure(
    constraints: Sequence[SemanticConstraint],
    max_iterations: int = 16,
    max_derived: int = 10_000,
    store: Optional[PredicateStore] = None,
) -> ClosureResult:
    """Materialize the transitive closure of ``constraints``.

    Parameters
    ----------
    constraints:
        The user-declared constraint set.
    max_iterations:
        Safety bound on fixpoint rounds; the closure of realistic constraint
        sets converges in a handful of rounds, but degenerate inputs (long
        implication chains) are cut off rather than allowed to run away.
    max_derived:
        Safety bound on the number of derived constraints.
    store:
        Optional predicate store to intern into (a fresh one is created when
        omitted).

    Returns
    -------
    ClosureResult
        The closed constraint set together with bookkeeping information.
    """
    store = store or PredicateStore()
    current: List[SemanticConstraint] = []
    signatures: Set[Tuple] = set()
    names: Set[str] = set()
    # Every admitted (consumer, antecedent) pair, in admission order, under
    # the attribute the antecedent constrains.  Admitted predicates are
    # interned, hence normalized, so ``.left`` is the attribute implies()
    # compares.
    consumers: Dict[
        AttributeOperand, List[Tuple[SemanticConstraint, Predicate]]
    ] = {}

    def admit(constraint: SemanticConstraint) -> bool:
        sig = constraint.signature()
        if sig in signatures:
            return False
        signatures.add(sig)
        names.add(constraint.name)
        current.append(constraint)
        for antecedent in constraint.antecedents:
            consumers.setdefault(antecedent.left, []).append(
                (constraint, antecedent)
            )
        return True

    for constraint in unique_constraints(tuple(constraints)):
        interned = SemanticConstraint.build(
            name=constraint.name,
            antecedents=store.intern_all(constraint.antecedents),
            consequent=store.intern(constraint.consequent),
            anchor_classes=constraint.anchor_classes,
            anchor_relationships=constraint.anchor_relationships,
            origin=constraint.origin,
            derived_from=constraint.derived_from,
            description=constraint.description,
        )
        admit(interned)

    derived: List[SemanticConstraint] = []
    frontier = list(current)
    iterations = 0
    while frontier and iterations < max_iterations:
        iterations += 1
        new_constraints: List[SemanticConstraint] = []
        for producer in frontier:
            # A snapshot: consumers admitted while this producer runs wait
            # for the next round, as they did in the full scan.
            for consumer, antecedent in list(
                consumers.get(producer.consequent.left, ())
            ):
                if producer.name == consumer.name:
                    continue
                if not implies(producer.consequent, antecedent):
                    continue
                name = fresh_name("cc", names)
                candidate = _resolve(producer, consumer, antecedent, name, store)
                if candidate is None:
                    continue
                if admit(candidate):
                    new_constraints.append(candidate)
                    derived.append(candidate)
                    if len(derived) >= max_derived:
                        return ClosureResult(
                            constraints=tuple(current),
                            derived=tuple(derived),
                            iterations=iterations,
                            store=store,
                        )
        frontier = new_constraints

    return ClosureResult(
        constraints=tuple(current),
        derived=tuple(derived),
        iterations=iterations,
        store=store,
    )


def closure_reaches(
    result: ClosureResult, premise: Predicate, conclusion: Predicate
) -> bool:
    """Whether the closed constraint set contains a rule ``premise -> conclusion``.

    A convenience used by tests: checks for a constraint whose single
    antecedent is implied by ``premise`` and whose consequent implies
    ``conclusion``.
    """
    for constraint in result.constraints:
        if len(constraint.antecedents) != 1:
            continue
        if implies(premise, constraint.antecedents[0]) and implies(
            constraint.consequent, conclusion
        ):
            return True
    return False
