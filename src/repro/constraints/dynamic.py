"""State-derived ("dynamic") semantic rules.

Siegel [Sie88] and Yu & Sun [YuS89] extend semantic optimization with rules
that are not declared integrity constraints but are *deduced from the current
database state* — e.g. "every cargo currently in the database has quantity
<= 500" — and therefore only guarantee equivalence in the current state.
Section 2 of the paper notes that such rules "can easily be accommodated" by
the same transformation algorithm; this module provides a small rule-derivation
pass so that the accommodation can actually be exercised in tests, examples
and the extension experiments.

Two families of rules are derived:

* **Range rules** — for each numeric attribute of each class, unconditional
  bounds ``attr >= observed_min`` and ``attr <= observed_max``.
* **Functional rules** — for a pair of attributes (A, B) of the same class,
  if every instance with ``A = a`` also has ``B = b`` for a single ``b``
  (and ``a`` occurs at least ``min_support`` times), derive
  ``A = a -> B = b``.

Derived rules carry ``ConstraintOrigin.DERIVED`` so the repository, traces
and experiments can tell them apart from declared integrity constraints.

Both families are read off the value summaries the store keeps
(:meth:`~repro.engine.storage.ShardedObjectStore.value_summary`): the
bounds of each numeric column, each value's multiplicity and first
occurrence, and witness counts for the attribute pairs a functional rule
may join.  A write moves the summary of the class it touched by the one
row it changed, so re-deriving that class's rules on the write path costs
what the summary holds for the class's low-cardinality attributes, not a
read of its extent.  :func:`derive_by_scan` derives the same rules by
reading every instance; it is the definition the summary-backed
derivation is tested against — same rules, same order, same names.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..engine.storage import ObjectStore
from ..schema.attribute import Attribute, DomainType
from ..schema.object_class import ObjectClass
from ..schema.schema import Schema
from .horn_clause import ConstraintOrigin, SemanticConstraint, fresh_name
from .predicate import ComparisonOperator, Predicate


@dataclass
class DerivationConfig:
    """Tuning knobs for dynamic rule derivation.

    Parameters
    ----------
    derive_ranges:
        Derive min/max range rules for numeric attributes.
    derive_functional:
        Derive ``A = a -> B = b`` rules for co-varying attribute pairs.
    min_support:
        Minimum number of instances a value must appear in before a
        functional rule conditioned on it is derived (guards against rules
        that reflect a single row rather than a pattern).
    max_distinct:
        Functional rules are only derived when the conditioning attribute has
        at most this many distinct values — high-cardinality attributes (keys,
        free text) would generate a flood of single-row rules.
    """

    derive_ranges: bool = True
    derive_functional: bool = True
    min_support: int = 2
    max_distinct: int = 16


#: ``(attribute, least, greatest)``: one range fact of a class.
RangeFact = Tuple[str, Any, Any]
#: ``(source, source value, target, target value)``: one functional fact.
DependencyFact = Tuple[str, Any, str, Any]


class DynamicRuleDeriver:
    """Derives state-dependent semantic rules from an object store."""

    def __init__(
        self,
        schema: Schema,
        config: Optional[DerivationConfig] = None,
    ) -> None:
        self.schema = schema
        self.config = config or DerivationConfig()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def derive(
        self,
        store: ObjectStore,
        class_names: Optional[Iterable[str]] = None,
        existing_names: Iterable[str] = (),
    ) -> List[SemanticConstraint]:
        """Derive rules from the current contents of ``store``.

        Reads the store's value summaries; equal to :func:`derive_by_scan`.

        Parameters
        ----------
        store:
            The database instance to learn from.
        class_names:
            Restrict derivation to these classes (default: all classes with
            a non-empty extent).
        existing_names:
            Constraint names already taken, so freshly derived rules never
            collide with declared constraints.
        """
        return self._derive(
            store, class_names, existing_names, _summary_ranges, _summary_dependencies
        )

    def _derive(
        self,
        store: ObjectStore,
        class_names: Optional[Iterable[str]],
        existing_names: Iterable[str],
        ranges: Callable[..., Iterator[RangeFact]],
        dependencies: Callable[..., Iterator[DependencyFact]],
    ) -> List[SemanticConstraint]:
        """Name the rules that ``ranges`` and ``dependencies`` find per class."""
        taken: Set[str] = set(existing_names)
        targets = list(class_names) if class_names is not None else [
            name for name in self.schema.class_names() if store.count(name) > 0
        ]
        rules: List[SemanticConstraint] = []
        for class_name in targets:
            if not store.has_class(class_name) or store.count(class_name) == 0:
                continue
            cls = self.schema.object_class(class_name)
            if self.config.derive_ranges:
                for attribute, low, high in ranges(store, cls):
                    qualified = f"{class_name}.{attribute}"
                    for operator, bound in (
                        (ComparisonOperator.GE, low),
                        (ComparisonOperator.LE, high),
                    ):
                        rules.append(
                            _rule(
                                taken,
                                class_name,
                                [],
                                Predicate.selection(qualified, operator, bound),
                                f"observed range bound on {qualified} in the "
                                "current database state",
                            )
                        )
            if self.config.derive_functional:
                for source, source_value, target, target_value in dependencies(
                    store, cls, self.config
                ):
                    rules.append(
                        _rule(
                            taken,
                            class_name,
                            [Predicate.equals(f"{class_name}.{source}", source_value)],
                            Predicate.equals(f"{class_name}.{target}", target_value),
                            f"functional dependency observed in the current "
                            f"state: {source}={source_value!r} always "
                            f"implies {target}={target_value!r}",
                        )
                    )
        return rules


def _rule(
    taken: Set[str],
    class_name: str,
    antecedents: List[Predicate],
    consequent: Predicate,
    description: str,
) -> SemanticConstraint:
    """One derived rule under the next fresh ``d<N>`` name."""
    name = fresh_name("d", taken)
    taken.add(name)
    return SemanticConstraint.build(
        name=name,
        antecedents=antecedents,
        consequent=consequent,
        anchor_classes={class_name},
        origin=ConstraintOrigin.DERIVED,
        description=description,
    )


def _candidates(cls: ObjectClass) -> List[Attribute]:
    """The attributes a functional rule may condition on or conclude."""
    return [
        a
        for a in cls.value_attributes
        if a.domain in (DomainType.STRING, DomainType.INTEGER)
    ]


# ----------------------------------------------------------------------
# Facts from the value summaries (the serving path)
# ----------------------------------------------------------------------
def _summary_ranges(store: ObjectStore, cls: ObjectClass) -> Iterator[RangeFact]:
    """Bounds of every numeric attribute whose every row holds a number."""
    summary = store.value_summary(cls.name)
    for attribute in cls.value_attributes:
        if attribute.domain.is_numeric and summary.only_numbers(attribute.name):
            low, high = summary.bounds(attribute.name)
            yield attribute.name, low, high


def _summary_dependencies(
    store: ObjectStore, cls: ObjectClass, config: DerivationConfig
) -> Iterator[DependencyFact]:
    """``A = a -> B = b`` wherever the witnesses of ``a`` hold one ``b``."""
    summary = store.value_summary(cls.name)
    candidates = _candidates(cls)
    for source in candidates:
        if summary.distinct(source.name) > config.max_distinct:
            continue
        # First-occurrence order: the order a scan meets the values in.
        values = sorted(
            (value for value in summary.holders[source.name] if value is not None),
            key=lambda value: summary.first_holder(source.name, value).oid,
        )
        for target in candidates:
            if target.name == source.name:
                continue
            witnesses = summary.witnesses(source.name, target.name)
            for value in values:
                if (
                    summary.multiplicity(source.name, value) < config.min_support
                    or len(witnesses[value]) != 1
                ):
                    continue
                first = summary.first_holder(source.name, value).values
                target_value = first.get(target.name)
                if target_value is not None:
                    yield source.name, first.get(source.name), target.name, target_value


# ----------------------------------------------------------------------
# Facts from the extent (the definition)
# ----------------------------------------------------------------------
def _scan_ranges(store: ObjectStore, cls: ObjectClass) -> Iterator[RangeFact]:
    for attribute in cls.value_attributes:
        if not attribute.domain.is_numeric:
            continue
        values = [
            instance.values.get(attribute.name)
            for instance in store.instances(cls.name)
        ]
        numeric = [v for v in values if isinstance(v, (int, float))]
        if not numeric or len(numeric) != len(values):
            continue
        yield attribute.name, min(numeric), max(numeric)


def _scan_dependencies(
    store: ObjectStore, cls: ObjectClass, config: DerivationConfig
) -> Iterator[DependencyFact]:
    candidates = _candidates(cls)
    instances = store.instances(cls.name)
    for source in candidates:
        # value of source attribute -> set of values seen for each other
        # attribute, plus a support count.
        support: Dict[object, int] = defaultdict(int)
        observed: Dict[Tuple[str, object], Set[object]] = defaultdict(set)
        for instance in instances:
            source_value = instance.values.get(source.name)
            if source_value is None:
                continue
            support[source_value] += 1
            for target in candidates:
                if target.name == source.name:
                    continue
                observed[(target.name, source_value)].add(
                    instance.values.get(target.name)
                )
        if len(support) > config.max_distinct:
            continue
        for target in candidates:
            if target.name == source.name:
                continue
            for source_value, count in support.items():
                if count < config.min_support:
                    continue
                values = observed[(target.name, source_value)]
                if len(values) != 1:
                    continue
                (target_value,) = values
                if target_value is None:
                    continue
                yield source.name, source_value, target.name, target_value


def derive_by_scan(
    schema: Schema,
    store: ObjectStore,
    class_names: Optional[Iterable[str]] = None,
    existing_names: Iterable[str] = (),
    config: Optional[DerivationConfig] = None,
) -> List[SemanticConstraint]:
    """The rules :meth:`DynamicRuleDeriver.derive` returns, by definition.

    Reads every instance of every class it derives for; the tests compare
    the summary-backed derivation against it.
    """
    return DynamicRuleDeriver(schema, config)._derive(
        store, class_names, existing_names, _scan_ranges, _scan_dependencies
    )


def derive_rules(
    schema: Schema,
    store: ObjectStore,
    config: Optional[DerivationConfig] = None,
    existing_names: Iterable[str] = (),
) -> List[SemanticConstraint]:
    """Convenience wrapper around :class:`DynamicRuleDeriver`."""
    return DynamicRuleDeriver(schema, config).derive(
        store, existing_names=existing_names
    )
