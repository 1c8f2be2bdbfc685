"""Synthetic database generation for the Table 4.1 database instances.

Table 4.1 of the paper describes four database instances of growing size::

                              DB1   DB2   DB3   DB4
    # object classes            5     5     5     5
    avg. class cardinality     52   104   208   208
    # relationships             6     6     6     6
    avg. relationship card.    77   154   308   616

:class:`DatabaseGenerator` builds object stores with those shapes over the
evaluation schema (:func:`repro.data.evaluation.build_evaluation_schema`).
Because the semantic optimizer's correctness argument assumes the semantic
constraints actually hold in the database, generation ends with an
*enforcement pass* that repairs any binding violating a constraint (setting
equality consequents, clamping range consequents); the resulting store is
validated in the test suite with
:func:`repro.constraints.validation.validate_database`.

The generator also produces a *value catalog* — qualified attribute name to
the list of values present in the data — which the query workload generator
uses so that the selective predicates of the 40 test queries refer to values
that exist.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..constraints.horn_clause import SemanticConstraint
from ..constraints.predicate import ComparisonOperator, Predicate
from ..constraints.validation import BindingPlan, connectivity_order
from ..engine.instance import ObjectInstance
from ..engine.storage import ObjectStore
from ..schema.attribute import DomainType
from ..schema.schema import Schema
from . import evaluation
from .distributions import identifier, sample_names, skewed_choice, uniform_int


@dataclass(frozen=True)
class DatabaseSpec:
    """Shape parameters of one synthetic database instance."""

    name: str
    class_cardinality: int
    relationship_cardinality: int

    def __post_init__(self) -> None:
        if self.class_cardinality < 1:
            raise ValueError("class_cardinality must be >= 1")
        if self.relationship_cardinality < 0:
            raise ValueError("relationship_cardinality must be >= 0")


#: The four database instances of Table 4.1.
TABLE_4_1_SPECS: Dict[str, DatabaseSpec] = {
    "DB1": DatabaseSpec("DB1", class_cardinality=52, relationship_cardinality=77),
    "DB2": DatabaseSpec("DB2", class_cardinality=104, relationship_cardinality=154),
    "DB3": DatabaseSpec("DB3", class_cardinality=208, relationship_cardinality=308),
    "DB4": DatabaseSpec("DB4", class_cardinality=208, relationship_cardinality=616),
}


@dataclass
class GeneratedDatabase:
    """A generated database instance plus its value catalog."""

    spec: DatabaseSpec
    schema: Schema
    store: ObjectStore
    value_catalog: Dict[str, List[Any]] = field(default_factory=dict)
    enforcement_passes: int = 0
    repaired_bindings: int = 0

    def summary(self) -> Dict[str, Any]:
        """Shape summary in the same terms as Table 4.1."""
        counts = self.store.counts()
        class_count = len(counts)
        avg_class_cardinality = (
            sum(counts.values()) / class_count if class_count else 0.0
        )
        link_counts = _relationship_cardinalities(self.schema, self.store)
        relationship_count = len(link_counts)
        avg_relationship_cardinality = (
            sum(link_counts.values()) / relationship_count
            if relationship_count
            else 0.0
        )
        return {
            "database": self.spec.name,
            "object_classes": class_count,
            "avg_class_cardinality": avg_class_cardinality,
            "relationships": relationship_count,
            "avg_relationship_cardinality": avg_relationship_cardinality,
        }


def clear_generation_cache() -> None:
    """Does nothing: generation keeps no cache.

    Kept only because the spine benchmark (``benchmarks/spine/``) still
    calls it before each cold set-up; it goes when that benchmark drops
    the call.
    """


def _relationship_cardinalities(schema: Schema, store: ObjectStore) -> Dict[str, int]:
    """Number of link instances per relationship (counted on the source side)."""
    result: Dict[str, int] = {}
    for relationship in schema.relationships():
        attribute = relationship.source_attribute
        count = 0
        for instance in store.instances(relationship.source):
            count += len(instance.pointer_oids(attribute))
        result[relationship.name] = count
    return result


class DatabaseGenerator:
    """Generates constraint-consistent synthetic databases."""

    def __init__(
        self,
        schema: Optional[Schema] = None,
        constraints: Optional[Sequence[SemanticConstraint]] = None,
        seed: int = 0,
        max_enforcement_passes: int = 6,
    ) -> None:
        self.schema = schema or evaluation.build_evaluation_schema()
        self.constraints = (
            list(constraints)
            if constraints is not None
            else evaluation.build_evaluation_constraints()
        )
        self.seed = seed
        self.max_enforcement_passes = max_enforcement_passes

    # ------------------------------------------------------------------
    # Value synthesis
    # ------------------------------------------------------------------
    def _values_for(self, class_name: str, index: int, rng: random.Random) -> Dict[str, Any]:
        """Synthesize the value attributes of one instance."""
        cls = self.schema.object_class(class_name)
        values: Dict[str, Any] = {}
        for attribute in cls.value_attributes:
            values[attribute.name] = self._value_for_attribute(
                class_name, attribute.name, attribute.domain, index, rng
            )
        return values

    def _value_for_attribute(
        self,
        class_name: str,
        attribute_name: str,
        domain: DomainType,
        index: int,
        rng: random.Random,
    ) -> Any:
        """Domain-aware value synthesis with evaluation-schema specialisations."""
        key = (class_name, attribute_name)
        if key == ("supplier", "name"):
            return sample_names(rng, evaluation.SUPPLIER_NAMES, 1)[0] if index else "SFI"
        if key == ("supplier", "region"):
            return skewed_choice(rng, evaluation.SUPPLIER_REGIONS, skew=0.7)
        if key == ("supplier", "rating"):
            return uniform_int(rng, 1, 5)
        if key == ("cargo", "desc"):
            return skewed_choice(rng, evaluation.CARGO_DESCS, skew=0.7)
        if key == ("cargo", "category"):
            return skewed_choice(rng, evaluation.CARGO_CATEGORIES, skew=0.7)
        if key == ("cargo", "quantity"):
            return uniform_int(rng, 10, 500)
        if key == ("vehicle", "desc"):
            return skewed_choice(rng, evaluation.VEHICLE_DESCS, skew=0.7)
        if key == ("vehicle", "class"):
            return uniform_int(rng, 1, 5)
        if key == ("vehicle", "capacity"):
            return uniform_int(rng, 1000, 9000)
        if key == ("engine", "fuel"):
            return skewed_choice(rng, evaluation.ENGINE_FUELS, skew=0.7)
        if key == ("engine", "capacity"):
            return uniform_int(rng, 1000, 5000)
        if key == ("driver", "rank"):
            return skewed_choice(rng, evaluation.DRIVER_RANKS, skew=0.5)
        if key == ("driver", "clearance"):
            return skewed_choice(rng, evaluation.DRIVER_CLEARANCES, skew=0.5)
        if key == ("driver", "licenseClass"):
            return uniform_int(rng, 1, 5)
        # Generic fallbacks keyed by domain type.
        if domain is DomainType.INTEGER:
            return uniform_int(rng, 1, 1000)
        if domain is DomainType.FLOAT:
            return round(rng.uniform(0.0, 1000.0), 2)
        prefix = f"{class_name[:2].upper()}"
        return identifier(rng, prefix)

    # ------------------------------------------------------------------
    # Link synthesis
    # ------------------------------------------------------------------
    def _create_links(
        self, store: ObjectStore, spec: DatabaseSpec, rng: random.Random
    ) -> None:
        """Create ``relationship_cardinality`` links per relationship.

        Every link is recorded on *both* sides (the paper's schema stores
        the relationship pointer on both classes); multi-valued pointers are
        lists of OIDs.
        """
        for relationship in self.schema.relationships():
            sources = store.instances(relationship.source)
            targets = store.instances(relationship.target)
            if not sources or not targets:
                continue
            links = set()
            wanted = spec.relationship_cardinality
            max_links = len(sources) * len(targets)
            wanted = min(wanted, max_links)
            # First give every instance on both sides at least one link
            # (total participation) — class elimination is only
            # answer-preserving when the dangling class joins totally, which
            # the paper's rule implicitly assumes — then add random extra
            # links until the requested relationship cardinality is reached.
            shuffled_targets = list(targets)
            rng.shuffle(shuffled_targets)
            for index, source in enumerate(sources):
                target = shuffled_targets[index % len(shuffled_targets)]
                links.add((source.oid, target.oid))
            linked_targets = {target_oid for _source_oid, target_oid in links}
            shuffled_sources = list(sources)
            rng.shuffle(shuffled_sources)
            for index, target in enumerate(targets):
                if target.oid not in linked_targets:
                    source = shuffled_sources[index % len(shuffled_sources)]
                    links.add((source.oid, target.oid))
            attempts = 0
            while len(links) < wanted and attempts < wanted * 20:
                attempts += 1
                source = rng.choice(sources)
                target = rng.choice(targets)
                links.add((source.oid, target.oid))
            # Linking edits values in place, so the OID maps stay current.
            source_index = store.oid_index(relationship.source)
            target_index = store.oid_index(relationship.target)
            for source_oid, target_oid in sorted(links):
                self._append_link(
                    source_index[source_oid],
                    relationship.source_attribute,
                    target_oid,
                )
                self._append_link(
                    target_index[target_oid],
                    relationship.target_attribute,
                    source_oid,
                )

    @staticmethod
    def _append_link(instance: ObjectInstance, attribute: str, oid: int) -> None:
        current = instance.values.get(attribute)
        if current is None:
            instance.values[attribute] = [oid]
        elif isinstance(current, list):
            if oid not in current:
                current.append(oid)
        else:
            if current != oid:
                instance.values[attribute] = [current, oid]

    # ------------------------------------------------------------------
    # Constraint enforcement
    # ------------------------------------------------------------------
    def _enforce_constraints(self, store: ObjectStore) -> Tuple[int, int]:
        """Repair constraint violations until a fixpoint.

        Returns ``(passes, repaired_bindings)``.  Raises ``ValueError`` when
        ``max_enforcement_passes`` passes do not reach one (contradictory
        constraints repair each other's repairs for ever): such a store
        violates the constraints the optimizer rewrites by, so it is never
        handed out.

        Each constraint's :class:`~repro.constraints.validation.BindingPlan`
        is built once for every pass, with one ``referrer_map`` per
        relationship side: repairs write value attributes only, so pointers
        and extents hold still for the whole fixpoint.
        """
        referrer_maps: Dict[Tuple[str, str], Dict[int, List]] = {}
        plans = [
            self._plan(store, constraint, referrer_maps)
            for constraint in self.constraints
        ]
        repaired_total = 0
        for pass_number in range(1, self.max_enforcement_passes + 1):
            repaired = [
                self._enforce_one(plan, at_leaf, constraint.consequent)
                for constraint, (plan, at_leaf) in zip(self.constraints, plans)
            ]
            repaired_total += sum(repaired)
            if not any(repaired):
                return pass_number, repaired_total
        unsettled = [
            constraint.name
            for constraint, count in zip(self.constraints, repaired)
            if count
        ]
        raise ValueError(
            f"constraint enforcement did not converge in "
            f"{self.max_enforcement_passes} passes; still repairing in the "
            f"last pass: {', '.join(unsettled)}"
        )

    def _plan(
        self,
        store: ObjectStore,
        constraint: SemanticConstraint,
        referrer_maps: Dict[Tuple[str, str], Dict[int, List]],
    ) -> Tuple[BindingPlan, Tuple[Predicate, ...]]:
        """The constraint's binding plan and the antecedents left to its leaves.

        An antecedent prunes the enumeration at the first level where its
        classes are bound, unless it reads the attribute the consequent's
        repair writes: a repair inside the pruned subtree could change it,
        so it is evaluated per binding.  Every other antecedent reads values
        no repair of this constraint touches, so the bindings repaired (and
        their order) are those of evaluating everything per binding.
        """
        written = constraint.consequent.left
        prune: List[Predicate] = []
        at_leaf: List[Predicate] = []
        for predicate in constraint.antecedents:
            reads = predicate.referenced_attributes()
            (at_leaf if written in reads else prune).append(predicate)
        plan = BindingPlan(
            self.schema,
            store,
            connectivity_order(self.schema, sorted(constraint.referenced_classes())),
            referrer_maps,
            prune=prune,
        )
        return plan, tuple(at_leaf)

    def _enforce_one(
        self,
        plan: BindingPlan,
        at_leaf: Sequence[Predicate],
        consequent: Predicate,
    ) -> int:
        repaired = 0
        for binding, values in plan.bindings():
            if at_leaf and not all(p.evaluate(values) for p in at_leaf):
                continue
            if consequent.evaluate(values):
                continue
            self._repair(binding, consequent)
            repaired += 1
        return repaired

    @staticmethod
    def _repair(binding: Mapping[str, ObjectInstance], consequent: Predicate) -> None:
        """Force ``consequent`` to hold for ``binding`` by adjusting the left side."""
        target = binding[consequent.left.class_name]
        attribute = consequent.left.attribute_name
        operator = consequent.operator
        if consequent.is_selection:
            value = consequent.constant
        else:
            other = binding[consequent.right.class_name]
            value = other.values.get(consequent.right.attribute_name)
        if value is None:
            return
        if operator is ComparisonOperator.EQ:
            target.values[attribute] = value
        elif operator in (ComparisonOperator.GE, ComparisonOperator.GT):
            bump = value if operator is ComparisonOperator.GE else value + 1
            current = target.values.get(attribute)
            if not isinstance(current, (int, float)) or current < bump:
                target.values[attribute] = bump
        elif operator in (ComparisonOperator.LE, ComparisonOperator.LT):
            cap = value if operator is ComparisonOperator.LE else value - 1
            current = target.values.get(attribute)
            if not isinstance(current, (int, float)) or current > cap:
                target.values[attribute] = cap
        else:  # NE: nudge the value away from the forbidden constant.
            current = target.values.get(attribute)
            if current == value:
                if isinstance(value, (int, float)):
                    target.values[attribute] = value + 1
                else:
                    target.values[attribute] = f"{value}-alt"

    # ------------------------------------------------------------------
    # Value catalog
    # ------------------------------------------------------------------
    def _build_catalog(
        self, store: ObjectStore, per_attribute: int = 12
    ) -> Dict[str, List[Any]]:
        catalog: Dict[str, List[Any]] = {}
        for cls in self.schema.classes():
            for attribute in cls.value_attributes:
                seen: List[Any] = []
                for instance in store.instances(cls.name):
                    value = instance.values.get(attribute.name)
                    if value is None or value in seen:
                        continue
                    seen.append(value)
                    if len(seen) >= per_attribute:
                        break
                if seen:
                    catalog[f"{cls.name}.{attribute.name}"] = seen
        return catalog

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def generate(
        self, spec: DatabaseSpec, shard_count: int = 1
    ) -> GeneratedDatabase:
        """Generate one database instance for ``spec``.

        ``shard_count`` selects the hash partitioning of the produced store
        (``1`` keeps the historical single-shard layout).  The generated
        *data* is independent of the sharding: OIDs come from one global
        sequence, so every shard count yields the same instances.

        Generation is deterministic in ``(schema, constraints, seed, spec)``
        and linear in the data: about 60 ms for DB4, 0.13 s at twice its
        size and 1.5 s at sixteen times (2-core host), about a third of it
        the constraint-enforcement fixpoint.  Every call builds a fresh
        store, so mutating a generated database never leaks into a later
        one.

        Raises ``ValueError`` when the constraints cannot all be made to
        hold (see :meth:`_enforce_constraints`).
        """
        # Seeding with a string is deterministic (unlike hashing a tuple,
        # which varies with interpreter hash randomization).
        rng = random.Random(f"{self.seed}-{spec.name}")
        store = ObjectStore(self.schema, shard_count=shard_count)
        for class_name in self.schema.class_names():
            for index in range(spec.class_cardinality):
                store.insert(class_name, self._values_for(class_name, index, rng))
        self._create_links(store, spec, rng)
        passes, repaired = self._enforce_constraints(store)
        # Repairs bypass ObjectStore.update(), so rebuild index contents by
        # re-inserting the values through the index manager.
        store.rebuild_indexes()
        return GeneratedDatabase(
            spec=spec,
            schema=self.schema,
            store=store,
            value_catalog=self._build_catalog(store),
            enforcement_passes=passes,
            repaired_bindings=repaired,
        )

    def generate_all(
        self, specs: Optional[Mapping[str, DatabaseSpec]] = None
    ) -> Dict[str, GeneratedDatabase]:
        """Generate every Table 4.1 instance (or the given specs)."""
        specs = specs or TABLE_4_1_SPECS
        return {name: self.generate(spec) for name, spec in specs.items()}
