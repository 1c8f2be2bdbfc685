"""The constraint repository.

The repository is the precompilation-time home of all semantic constraints.
On :meth:`ConstraintRepository.precompile` it

1. validates constraints against the schema (every referenced
   ``class.attribute`` must exist),
2. materializes the transitive closure of the constraint set
   (:mod:`repro.constraints.closure`),
3. classifies each constraint intra-/inter-class (stored on the constraint),
4. groups the closed constraint set by object class
   (:mod:`repro.constraints.groups`).

At optimization time :meth:`retrieve_relevant` performs the paper's two-step
retrieval: fetch the groups attached to the classes in the query, then keep
only the constraints whose referenced classes all appear in the query.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..caching import LruCache
from ..schema.schema import Schema
from ..schema.statistics import AccessStatistics
from .closure import ClosureResult, PredicateStore, compute_closure
from .groups import ConstraintGrouping, GroupingPolicy, RetrievalStats
from .horn_clause import (
    ConstraintError,
    ConstraintOrigin,
    SemanticConstraint,
    unique_constraints,
)
from .predicate import AttributeOperand, Predicate


@dataclass
class RepositoryStats:
    """Summary statistics about a precompiled repository."""

    declared: int
    closed: int
    derived: int
    intra_class: int
    inter_class: int
    distinct_predicates: int
    closure_iterations: int


@dataclass(frozen=True)
class RepositoryCacheStats:
    """Hit/miss accounting for the repository's caches.

    ``retrieval_*`` counts lookups in the keyed constraint-retrieval cache
    (one entry per distinct query class/relationship set per repository
    generation); ``closure_*`` counts reuse of materialized closures across
    precompilations of an identical declared constraint set.

    Instances are immutable snapshots: each underlying cache's counters are
    read atomically (:meth:`repro.caching.LruCache.snapshot`), so a
    snapshot taken while other threads optimize concurrently is internally
    consistent rather than torn across in-flight counter updates.
    """

    retrieval_hits: int = 0
    retrieval_misses: int = 0
    retrieval_evictions: int = 0
    retrieval_entries: int = 0
    retrieval_maxsize: int = 0
    closure_hits: int = 0
    closure_misses: int = 0

    @property
    def retrieval_lookups(self) -> int:
        """Total retrieval-cache lookups."""
        return self.retrieval_hits + self.retrieval_misses

    @property
    def retrieval_hit_rate(self) -> float:
        """Fraction of retrieval lookups served from cache (0.0 if none)."""
        lookups = self.retrieval_lookups
        return self.retrieval_hits / lookups if lookups else 0.0


class _ContentEpoch:
    """One class's epoch: the identities of the declared constraints on it.

    Two epochs are equal exactly when their contents are, whenever each
    was built, so a rule set that returns to an earlier state matches that
    state's cache keys again.  The hash is taken once, when the epoch is
    built (once per rule swap), not on every cache lookup; equality still
    compares the contents — a matching hash never decides it alone.
    """

    __slots__ = ("content", "_hash")

    def __init__(self, content: Tuple[Tuple, ...]) -> None:
        self.content = content
        self._hash = hash(content)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, _ContentEpoch):
            return NotImplemented
        return self._hash == other._hash and self.content == other.content


_EMPTY_EPOCH = _ContentEpoch(())


class ConstraintRepository:
    """Stores, precompiles and retrieves semantic constraints.

    Parameters
    ----------
    schema:
        The database schema constraints are declared against.
    policy:
        The grouping policy used at precompilation.
    statistics:
        Access-frequency statistics driving the ``LEAST_FREQUENT`` policy;
        a fresh (empty) tracker is used when omitted.
    compute_transitive_closure:
        When ``True`` (the paper's design) the closure is materialized at
        precompilation; turning it off is only useful for ablation
        experiments that quantify what the closure buys.
    retrieval_cache_size:
        Maximum number of keyed retrieval results kept (LRU).  ``0``
        disables the retrieval cache entirely.
    closure_cache_size:
        Maximum number of materialized closures remembered across
        precompilations (LRU); lets an add/remove cycle that restores a
        previous declared set skip the fixpoint computation.
    """

    def __init__(
        self,
        schema: Schema,
        policy: GroupingPolicy = GroupingPolicy.LEAST_FREQUENT,
        statistics: Optional[AccessStatistics] = None,
        compute_transitive_closure: bool = True,
        retrieval_cache_size: int = 256,
        closure_cache_size: int = 4,
    ) -> None:
        self.schema = schema
        self.policy = policy
        self.statistics = statistics or AccessStatistics()
        self.compute_transitive_closure = compute_transitive_closure
        self._declared: List[SemanticConstraint] = []
        self._closed: Tuple[SemanticConstraint, ...] = ()
        self._closure: Optional[ClosureResult] = None
        self._grouping: Optional[ConstraintGrouping] = None
        self._store = PredicateStore()
        self._dirty = True
        self._generation = 0
        # Per-class content: the identity of every declared constraint
        # referencing the class, by name, in declaration order; and the
        # epoch built from it (:meth:`class_epochs`).  Caches keyed on the
        # epochs survive mutations that cannot have affected their queries,
        # and serve again when a class's rules return to an earlier state.
        self._class_content: Dict[str, Dict[str, Tuple]] = {}
        self._class_epochs: Dict[str, _ContentEpoch] = {}
        # Guards generation bumps, access statistics and (re)compilation;
        # each LruCache carries its own lock.
        self._lock = threading.RLock()
        self._retrieval_cache: LruCache = LruCache(retrieval_cache_size)
        self._closure_cache: LruCache = LruCache(closure_cache_size)

    # ------------------------------------------------------------------
    # Generation / cache management
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotonic counter bumped by every semantic mutation.

        Callers that cache anything derived from the whole repository (e.g.
        the gateway's in-flight keys) key their entries on the generation
        so a constraint add/remove transparently invalidates them; a cache
        derived from some classes' rules keys on :meth:`class_epochs`.
        """
        return self._generation

    def _move_content(
        self,
        outgoing: Iterable[SemanticConstraint],
        incoming: Iterable[Tuple[SemanticConstraint, Tuple]],
    ) -> Set[str]:
        """Take ``outgoing`` out of its classes' contents, put ``incoming`` in.

        ``incoming`` pairs each constraint with its :meth:`_identity`.
        Returns the classes whose content moved.  Lock held; their epochs
        follow in :meth:`_invalidate_caches`.
        """
        moved: Set[str] = set()
        for constraint in outgoing:
            classes = constraint.referenced_classes()
            moved |= classes
            for name in sorted(classes):
                del self._class_content[name][constraint.name]
        for constraint, identity in incoming:
            classes = constraint.referenced_classes()
            moved |= classes
            for name in sorted(classes):
                self._class_content.setdefault(name, {})[constraint.name] = identity
        return moved

    def _invalidate_caches(self, class_names: Iterable[str] = ()) -> None:
        """Bump the generation, re-epoch ``class_names``, drop retrievals.

        Each class's epoch is rebuilt from that class's own content alone,
        so the order the classes arrive in cannot reach any state.
        """
        with self._lock:
            self._generation += 1
            for name in class_names:
                self._class_epochs[name] = _ContentEpoch(
                    tuple(self._class_content.get(name, {}).values())
                )
            self._retrieval_cache.clear()

    def class_epochs(self, class_names: Iterable[str]) -> Tuple[_ContentEpoch, ...]:
        """The content epochs of ``class_names`` (sorted by class name).

        A class's epoch is the identity — name, signature, description,
        origin, lineage — of every declared constraint referencing the
        class, in declaration order.  A cache entry derived from a query
        and keyed on this tuple goes stale exactly when a constraint
        referencing one of the query's classes is added, removed or
        changed; constraint churn on unrelated classes leaves it servable,
        and a class whose rules return to an earlier state serves that
        state's entries again.  Every constraint's referenced classes are a
        subset of the classes of any query it is relevant to, so keying on
        the query's own classes can never miss a relevant change.
        """
        with self._lock:
            return tuple(
                self._class_epochs.get(name, _EMPTY_EPOCH)
                for name in sorted(set(class_names))
            )

    def clear_retrieval_cache(self) -> None:
        """Drop cached retrievals without changing the generation."""
        self._retrieval_cache.clear()

    def cache_stats(self) -> RepositoryCacheStats:
        """An immutable, internally consistent snapshot of cache counters.

        Each cache's counters are read under that cache's lock, so the
        snapshot never shows a torn view (e.g. a hit counted without its
        lookup) even while worker threads keep optimizing.
        """
        retrieval = self._retrieval_cache.snapshot()
        closure = self._closure_cache.snapshot()
        return RepositoryCacheStats(
            retrieval_hits=retrieval.hits,
            retrieval_misses=retrieval.misses,
            retrieval_evictions=retrieval.evictions,
            retrieval_entries=retrieval.entries,
            retrieval_maxsize=retrieval.maxsize,
            closure_hits=closure.hits,
            closure_misses=closure.misses,
        )

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def add(self, constraint: SemanticConstraint) -> None:
        """Declare a constraint (validated against the schema immediately)."""
        self._validate(constraint)
        if any(c.name == constraint.name for c in self._declared):
            raise ConstraintError(
                f"a constraint named {constraint.name!r} is already declared"
            )
        with self._lock:
            self._declared.append(constraint)
            self._dirty = True
            self._invalidate_caches(
                self._move_content((), [(constraint, self._identity(constraint))])
            )

    def add_all(self, constraints: Iterable[SemanticConstraint]) -> None:
        """Declare several constraints."""
        for constraint in constraints:
            self.add(constraint)

    def remove(self, name: str) -> None:
        """Remove a declared constraint by name.

        The paper notes constraint updates force closure recomputation; we
        simply mark the repository dirty so the next precompile rebuilds it.
        """
        removed = [c for c in self._declared if c.name == name]
        if not removed:
            raise ConstraintError(f"no constraint named {name!r} is declared")
        with self._lock:
            self._declared = [c for c in self._declared if c.name != name]
            self._dirty = True
            self._invalidate_caches(self._move_content(removed, ()))

    @staticmethod
    def _identity(constraint: SemanticConstraint) -> Tuple:
        """Full identity of one declared constraint (the closure-key parts)."""
        return (
            constraint.name,
            constraint.signature(),
            constraint.description,
            constraint.origin,
            constraint.derived_from,
        )

    def replace_derived(
        self,
        class_names: Iterable[str],
        rules: Iterable[SemanticConstraint],
    ) -> bool:
        """Atomically swap the derived rules touching ``class_names``.

        This is the invalidation hook of the live write path: when data of
        a class changes, the service re-derives that class's dynamic rules
        and swaps them in with one call.  Every declared constraint of
        :attr:`~.ConstraintOrigin.DERIVED` origin referencing one of the
        classes is removed and ``rules`` (validated, DERIVED-origin) are
        declared in their place, under **one** generation bump; only the
        touched classes' epochs move — so caches keyed on
        :meth:`class_epochs` survive for every untouched class, and serve
        again once the touched classes' rules return to an earlier state.

        Returns ``True`` when the declared set actually changed.  A swap
        that reproduces the outgoing rules exactly (the mutation did not
        move any observed bound) is a no-op: no generation bump, no cache
        invalidation — which is what lets a write-heavy workload keep its
        warm optimization caches whenever the data change is semantically
        silent.  The identities that no-op check computes are the ones the
        epochs are built from.  The closure cache needs no explicit
        eviction either way: its keys cover predicate *values*, so a
        changed bound can never collide with a stale entry, and an
        unchanged set may legitimately reuse its memoized closure.
        """
        targets = set(class_names)
        incoming = list(rules)
        for rule in incoming:
            if rule.origin is not ConstraintOrigin.DERIVED:
                raise ConstraintError(
                    f"replace_derived only accepts DERIVED rules, got "
                    f"{rule.name!r} ({rule.origin.value})"
                )
            self._validate(rule)
        with self._lock:
            # The targets' contents name every constraint referencing them.
            referencing = {
                name
                for target in targets
                for name in self._class_content.get(target, ())
            }
            kept: List[SemanticConstraint] = []
            outgoing: List[SemanticConstraint] = []
            for constraint in self._declared:
                if (
                    constraint.origin is ConstraintOrigin.DERIVED
                    and constraint.name in referencing
                ):
                    outgoing.append(constraint)
                else:
                    kept.append(constraint)
            taken = {c.name for c in kept}
            for rule in incoming:
                if rule.name in taken:
                    raise ConstraintError(
                        f"a constraint named {rule.name!r} is already declared"
                    )
                taken.add(rule.name)
            identities = [self._identity(c) for c in incoming]
            if [self._identity(c) for c in outgoing] == identities:
                return False
            self._declared = kept + incoming
            self._dirty = True
            touched = set(targets)
            touched |= self._move_content(outgoing, zip(incoming, identities))
            self._invalidate_caches(touched)
            return True

    def declared(self) -> List[SemanticConstraint]:
        """The declared (pre-closure) constraints."""
        return list(self._declared)

    def _validate(self, constraint: SemanticConstraint) -> None:
        """Check every attribute reference in ``constraint`` against the schema."""
        for predicate in constraint.predicates():
            for operand in predicate.referenced_attributes():
                self._resolve_operand(operand)
        for class_name in constraint.anchor_classes:
            if not self.schema.has_class(class_name):
                raise ConstraintError(
                    f"constraint {constraint.name!r} anchors unknown class "
                    f"{class_name!r}"
                )

    def _resolve_operand(self, operand: AttributeOperand) -> None:
        if not self.schema.has_class(operand.class_name):
            raise ConstraintError(
                f"predicate references unknown class {operand.class_name!r}"
            )
        cls = self.schema.object_class(operand.class_name)
        if not cls.has_attribute(operand.attribute_name):
            raise ConstraintError(
                f"predicate references unknown attribute "
                f"{operand.qualified_name}"
            )

    # ------------------------------------------------------------------
    # Precompilation
    # ------------------------------------------------------------------
    def precompile(self) -> RepositoryStats:
        """Materialize the closure and (re)build the constraint grouping.

        Compilation runs under the repository lock, and the grouping is
        fully populated before being published, so readers on other threads
        either see the previous compiled state or the complete new one —
        never a half-built grouping.
        """
        with self._lock:
            declared = unique_constraints(tuple(self._declared))
            if self.compute_transitive_closure:
                self._closure = self._materialize_closure(declared)
                self._closed = self._closure.constraints
                self._store = self._closure.store
            else:
                self._closure = None
                self._store = PredicateStore()
                interned = []
                for constraint in declared:
                    interned.append(
                        SemanticConstraint.build(
                            name=constraint.name,
                            antecedents=self._store.intern_all(constraint.antecedents),
                            consequent=self._store.intern(constraint.consequent),
                            anchor_classes=constraint.anchor_classes,
                            origin=constraint.origin,
                            derived_from=constraint.derived_from,
                            description=constraint.description,
                        )
                    )
                self._closed = tuple(interned)

            grouping = ConstraintGrouping(
                self.schema.class_names(),
                policy=self.policy,
                statistics=self.statistics,
            )
            grouping.assign_all(self._closed)
            self._grouping = grouping
            # Cached RetrievalStats describe the grouping they were fetched
            # from; a rebuilt grouping makes them stale (same reason
            # regroup() invalidates).
            self._retrieval_cache.clear()
            self._dirty = False
            return self.stats()

    def _materialize_closure(self, declared: Tuple[SemanticConstraint, ...]) -> ClosureResult:
        """Compute (or reuse) the closure of ``declared``.

        Closures only depend on the declared constraint set, so an LRU keyed
        on the constraint signatures lets a mutation cycle that restores a
        previously-seen set skip the fixpoint recomputation entirely.
        """
        # signature() deliberately covers only predicates and anchors, but
        # the cached ClosureResult carries full constraint identity, so
        # name, description, origin and lineage must all be part of the key
        # or a logically-identical re-declaration would resurrect the
        # removed constraint's stale identity/provenance.
        key = tuple(
            self._identity(c) for c in sorted(declared, key=lambda c: c.name)
        )
        cached = self._closure_cache.get(key)
        if cached is not None:
            return cached
        closure = compute_closure(declared, store=PredicateStore())
        self._closure_cache.put(key, closure)
        return closure

    def _ensure_compiled(self) -> None:
        if self._dirty or self._grouping is None:
            with self._lock:
                # Double-checked under the lock: another thread may have
                # finished compiling while this one waited.
                if self._dirty or self._grouping is None:
                    self.precompile()

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def constraints(self) -> Tuple[SemanticConstraint, ...]:
        """The closed constraint set (precompiles on demand)."""
        self._ensure_compiled()
        return self._closed

    def grouping(self) -> ConstraintGrouping:
        """The current constraint grouping (precompiles on demand)."""
        self._ensure_compiled()
        assert self._grouping is not None
        return self._grouping

    def intern(self, predicate: Predicate) -> Predicate:
        """Intern a predicate into the shared store."""
        self._ensure_compiled()
        return self._store.intern(predicate)

    def retrieve_relevant(
        self,
        query_classes: Iterable[str],
        query_relationships: Optional[Iterable[str]] = None,
        record_access: bool = True,
    ) -> Tuple[List[SemanticConstraint], RetrievalStats]:
        """Retrieve the constraints relevant to a query over ``query_classes``.

        Parameters
        ----------
        query_classes:
            Object classes referenced by the query.
        query_relationships:
            Relationships traversed by the query; inter-class constraints
            anchored on other relationships are filtered out.
        record_access:
            When ``True`` the access-frequency statistics are updated, which
            is what gradually steers the ``LEAST_FREQUENT`` grouping policy.

        Retrievals are served from a keyed LRU cache when possible: the key
        is the frozenset of query classes (plus the relationship set, which
        the relevance filter also depends on) under the current repository
        generation.  Any constraint add/remove bumps the generation and
        drops the cache, so a hit can never return stale constraints.
        """
        # Snapshot the generation before compiling: if a mutation races this
        # retrieval, the result lands under the dead pre-mutation key (never
        # served to post-mutation lookups) instead of poisoning the new one.
        generation = self._generation
        self._ensure_compiled()
        classes = list(query_classes)
        if record_access:
            self.record_access(classes)
        assert self._grouping is not None

        relationships = (
            frozenset(query_relationships)
            if query_relationships is not None
            else None
        )
        key = (frozenset(classes), relationships, generation)
        cached = self._retrieval_cache.get(key)
        if cached is not None:
            constraints, stats = cached
            return list(constraints), replace(stats, cache_hit=True)
        relevant, stats = self._grouping.retrieve_relevant(classes, relationships)
        self._retrieval_cache.put(key, (tuple(relevant), replace(stats)))
        return relevant, stats

    def record_access(self, query_classes: Iterable[str]) -> None:
        """Record one query's class accesses in the frequency statistics.

        Callers that answer a query without retrieving (the service layer's
        result-cache hits) use this so the ``LEAST_FREQUENT`` policy keeps
        seeing true access frequencies.  The counters are plain dict
        increments; the lock keeps threaded batches from losing updates.
        """
        with self._lock:
            self.statistics.record_query(list(query_classes))

    def regroup(self, policy: Optional[GroupingPolicy] = None) -> None:
        """Rebuild the grouping (optionally switching policy).

        Called when access patterns have drifted enough that the
        least-frequently-accessed assignment is stale.  The relevant set
        does not depend on the grouping, so no class epoch moves and no
        result cached on them is evicted.
        """
        self._ensure_compiled()
        with self._lock:
            if policy is not None:
                self.policy = policy
            grouping = ConstraintGrouping(
                self.schema.class_names(),
                policy=self.policy,
                statistics=self.statistics,
            )
            grouping.assign_all(self._closed)
            self._grouping = grouping
        # The per-retrieval stats (groups touched, fetched) are not
        # grouping-independent, so cached retrievals are stale for
        # reporting purposes.
        self._invalidate_caches()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> RepositoryStats:
        """Summary statistics (precompiles on demand)."""
        self._ensure_compiled()
        intra = sum(1 for c in self._closed if c.is_intra_class)
        return RepositoryStats(
            declared=len(self._declared),
            closed=len(self._closed),
            derived=len(self._closure.derived) if self._closure else 0,
            intra_class=intra,
            inter_class=len(self._closed) - intra,
            distinct_predicates=len(self._store),
            closure_iterations=self._closure.iterations if self._closure else 0,
        )

    def group_sizes(self) -> Dict[str, int]:
        """Constraint count per object-class group."""
        return self.grouping().group_sizes()

    def __len__(self) -> int:
        return len(self.constraints())
