"""Repository invalidation under the live write path.

Covers the two invalidation mechanisms the mutation path leans on:

* **closure freshness** — a dynamic rule re-derived from a *mutated*
  extent can never be served a stale memoized closure: the closure-cache
  key covers predicate values (``Predicate.key()`` includes the constant),
  so a moved bound is a different key by construction, while restoring a
  previously-seen rule set may legitimately reuse its memoized closure;
* **class-granular epochs** — add/remove moves only the touched classes'
  content epochs, which is what lets the service keep serving cached
  optimizations for queries whose classes were untouched.
"""

import pytest

from repro.constraints import ConstraintRepository
from repro.constraints.dynamic import DerivationConfig, derive_rules
from repro.constraints.horn_clause import (
    ConstraintError,
    ConstraintOrigin,
    SemanticConstraint,
)
from repro.engine import ObjectStore
from repro.query import parse_predicate


def _seed(schema, quantities):
    store = ObjectStore(schema)
    for index, quantity in enumerate(quantities):
        store.insert(
            "cargo",
            {"code": f"C{index}", "desc": "frozen food", "quantity": quantity,
             "category": "general"},
        )
    return store


def _range_bounds(repository):
    """The (operator, constant) pairs of the closed cargo.quantity rules."""
    return {
        (c.consequent.operator.value, c.consequent.constant)
        for c in repository.constraints()
        if c.origin is ConstraintOrigin.DERIVED
        and "cargo.quantity" in str(c.consequent)
    }


def _derive_for(schema, store, repository):
    taken = {
        c.name
        for c in repository.declared()
        if c.origin is not ConstraintOrigin.DERIVED
    }
    return derive_rules(
        schema,
        store,
        config=DerivationConfig(derive_functional=False),
        existing_names=taken,
    )


def test_rederived_rule_never_serves_a_stale_closure(evaluation_schema):
    """The regression the write path depends on: mutate → re-derive → the
    closure must reflect the new extent even though the re-derived rules
    reuse the *names* of the rules they replace."""
    schema = evaluation_schema
    store = _seed(schema, [100, 200, 300])
    repository = ConstraintRepository(schema)
    repository.replace_derived(["cargo"], _derive_for(schema, store, repository))
    repository.precompile()
    assert _range_bounds(repository) == {(">=", 100), ("<=", 300)}

    # Mutate the extent and re-derive: same rule names ("d1", "d2"), new
    # bound values.  A closure cache keyed without predicate values would
    # serve the stale {100, 300} closure here.
    store.insert("cargo", {"code": "BIG", "desc": "frozen food",
                           "quantity": 9000, "category": "general"})
    changed = repository.replace_derived(
        ["cargo"], _derive_for(schema, store, repository)
    )
    assert changed
    repository.precompile()
    assert _range_bounds(repository) == {(">=", 100), ("<=", 9000)}

    # Restoring a previously-seen state MAY reuse the memoized closure —
    # that is the cache's purpose — but only with the matching bounds.
    store.delete("cargo", 4)
    hits_before = repository.cache_stats().closure_hits
    assert repository.replace_derived(
        ["cargo"], _derive_for(schema, store, repository)
    )
    repository.precompile()
    assert _range_bounds(repository) == {(">=", 100), ("<=", 300)}
    assert repository.cache_stats().closure_hits > hits_before


def test_replace_derived_is_a_noop_for_silent_writes(evaluation_schema):
    schema = evaluation_schema
    store = _seed(schema, [100, 150, 300])
    repository = ConstraintRepository(schema)
    repository.replace_derived(["cargo"], _derive_for(schema, store, repository))
    generation = repository.generation

    # A write strictly inside the observed bounds re-derives identical
    # rules: no epoch bump, no cache invalidation.
    store.update("cargo", 2, {"quantity": 200})
    assert not repository.replace_derived(
        ["cargo"], _derive_for(schema, store, repository)
    )
    assert repository.generation == generation


def test_replace_derived_rejects_non_derived_and_name_collisions(
    evaluation_schema,
):
    repository = ConstraintRepository(evaluation_schema)
    static = SemanticConstraint.build(
        name="s1",
        antecedents=[],
        consequent=parse_predicate("cargo.quantity >= 0"),
        anchor_classes={"cargo"},
    )
    repository.add(static)
    with pytest.raises(ConstraintError, match="DERIVED"):
        repository.replace_derived(["cargo"], [static])
    clash = SemanticConstraint.build(
        name="s1",
        antecedents=[],
        consequent=parse_predicate("cargo.quantity >= 1"),
        anchor_classes={"cargo"},
        origin=ConstraintOrigin.DERIVED,
    )
    with pytest.raises(ConstraintError, match="already declared"):
        repository.replace_derived(["cargo"], [clash])


def test_class_epochs_move_only_for_touched_classes(evaluation_schema):
    repository = ConstraintRepository(evaluation_schema)
    before_cargo = repository.class_epochs(["cargo"])
    before_vehicle = repository.class_epochs(["vehicle"])
    rule = SemanticConstraint.build(
        name="d1",
        antecedents=[],
        consequent=parse_predicate("cargo.quantity <= 500"),
        anchor_classes={"cargo"},
        origin=ConstraintOrigin.DERIVED,
    )
    repository.add(rule)
    assert repository.class_epochs(["cargo"]) != before_cargo
    assert repository.class_epochs(["vehicle"]) == before_vehicle
    repository.remove("d1")
    assert repository.class_epochs(["vehicle"]) == before_vehicle
    # An epoch is the content of the class's rules, not a counter: the
    # remove restores the earlier cargo epoch.
    assert repository.class_epochs(["cargo"]) == before_cargo
    # An inter-class constraint moves every class it references.
    inter = SemanticConstraint.build(
        name="i1",
        antecedents=[parse_predicate('vehicle.desc = "refrigerated truck"')],
        consequent=parse_predicate('cargo.desc = "frozen food"'),
        anchor_classes={"cargo", "vehicle"},
        anchor_relationships={"collects"},
    )
    repository.add(inter)
    assert repository.class_epochs(["vehicle"]) != before_vehicle
    assert repository.class_epochs(["cargo"]) != before_cargo
    # The tuple is ordered by class name: stable regardless of input order.
    assert repository.class_epochs(["vehicle", "cargo"]) == (
        repository.class_epochs(["cargo", "vehicle"])
    )


def test_service_cache_survives_unrelated_class_mutations(evaluation_schema):
    """The class-granular epoch keying observed from the service layer."""
    from repro.query import Query
    from repro.service import OptimizationService, ResultSource

    store = ObjectStore(evaluation_schema, shard_count=2)
    for i in range(4):
        store.insert("cargo", {"code": f"C{i}", "desc": "frozen food",
                               "quantity": 100 + i, "category": "general"})
        store.insert("vehicle", {"vehicle_no": f"V{i}", "desc": "van",
                                 "class": 2, "capacity": 1000})
    repository = ConstraintRepository(evaluation_schema)
    service = OptimizationService(
        evaluation_schema, repository=repository, store=store
    )
    service.enable_dynamic_rules(
        config=DerivationConfig(derive_functional=False)
    )
    cargo_query = Query(projections=("cargo.code",), selective_predicates=(),
                        classes=("cargo",), name="cargo-probe")
    vehicle_query = Query(projections=("vehicle.desc",), selective_predicates=(),
                          classes=("vehicle",), name="vehicle-probe")
    service.optimize(cargo_query)
    service.optimize(vehicle_query)

    # A cargo write that moves a bound: cargo recomputes, vehicle stays hot.
    result = service.mutate("insert", "cargo",
                            values={"code": "BIG", "desc": "frozen food",
                                    "quantity": 9999, "category": "general"})
    assert result.rules_changed
    assert service.optimize(cargo_query).source is ResultSource.COMPUTED
    assert service.optimize(vehicle_query).source is ResultSource.RESULT_CACHE
    service.close()
