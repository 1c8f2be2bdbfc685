"""Unit tests for integrity validation against semantic constraints."""

import pytest

from repro.constraints import (
    Predicate,
    SemanticConstraint,
    assert_valid,
    validate_database,
)
from repro.constraints.validation import connectivity_order, enumerate_bindings
from repro.data import build_evaluation_schema
from repro.engine import ObjectStore


@pytest.fixture()
def small_store():
    schema = build_evaluation_schema()
    store = ObjectStore(schema)
    supplier = store.insert("supplier", {"name": "SFI", "region": "west", "rating": 4})
    cargo = store.insert(
        "cargo",
        {"desc": "frozen food", "category": "perishable", "quantity": 100,
         "supplies": supplier.oid},
    )
    store.update("supplier", supplier.oid, {"supplies": cargo.oid})
    return schema, store


def test_validation_passes_on_consistent_data(small_store):
    schema, store = small_store
    constraint = SemanticConstraint.build(
        "ok",
        [Predicate.equals("cargo.desc", "frozen food")],
        Predicate.equals("supplier.name", "SFI"),
        anchor_classes={"supplier", "cargo"},
        anchor_relationships={"supplies"},
    )
    report = validate_database(schema, store, [constraint])
    assert report.is_valid
    assert report.bindings_checked >= 1
    assert "VALID" in report.summary()
    assert_valid(schema, store, [constraint])


def test_validation_detects_violation(small_store):
    schema, store = small_store
    constraint = SemanticConstraint.build(
        "broken",
        [Predicate.equals("cargo.desc", "frozen food")],
        Predicate.equals("supplier.name", "Acme"),
        anchor_classes={"supplier", "cargo"},
        anchor_relationships={"supplies"},
    )
    report = validate_database(schema, store, [constraint])
    assert not report.is_valid
    assert report.violations[0].constraint == "broken"
    with pytest.raises(AssertionError):
        assert_valid(schema, store, [constraint])


def test_intra_class_validation(small_store):
    schema, store = small_store
    constraint = SemanticConstraint.build(
        "intra",
        [Predicate.equals("cargo.category", "perishable")],
        Predicate.equals("cargo.desc", "frozen food"),
        anchor_classes={"cargo"},
    )
    assert validate_database(schema, store, [constraint]).is_valid


def test_enumerate_bindings_follows_relationships(small_store):
    schema, store = small_store
    bindings = list(enumerate_bindings(schema, store, ["supplier", "cargo"]))
    assert len(bindings) == 1
    binding = bindings[0]
    assert binding["supplier"].values["name"] == "SFI"
    assert binding["cargo"].values["desc"] == "frozen food"


def _linked_store(shard_count):
    """Links held on both sides, forward-only and reverse-only; scalar and list."""
    schema = build_evaluation_schema()
    store = ObjectStore(schema, shard_count=shard_count)
    counts = {"supplier": 3, "cargo": 5, "vehicle": 3, "engine": 3}
    oids = {
        class_name: [store.insert(class_name, {}).oid for _ in range(count)]
        for class_name, count in counts.items()
    }
    supplier, cargo, vehicle, engine = oids.values()
    links = {
        "cargo": {
            # Both sides, in an order that is not extent order.
            0: {"collects": [vehicle[1], vehicle[0]], "supplies": [supplier[0]]},
            # Forward-only scalar, and a pointer to nothing.
            1: {"collects": vehicle[2], "supplies": [supplier[0], 99]},
            # cargo[2] is linked from the vehicle side only.
            # Forward to the last vehicle, reverse-only from the first:
            # forward comes first although extent order says otherwise.
            3: {"collects": [vehicle[2]]},
            # cargo[4]: two reverse-only referrers, one scalar.
        },
        "vehicle": {
            0: {"collects": [cargo[0], cargo[3], cargo[4]], "engComp": engine[1],
                "orders": [supplier[1]]},
            1: {"collects": [cargo[2], cargo[0], cargo[2]], "engComp": [engine[2]]},
            2: {"collects": cargo[4], "orders": [supplier[0], supplier[1]]},
        },
        "engine": {0: {"engComp": [vehicle[2], vehicle[0]]}},
        "supplier": {
            1: {"supplies": [cargo[1], cargo[2]], "orders": vehicle[1]},
            2: {"supplies": cargo[0]},
        },
    }
    for class_name, by_position in links.items():
        for position, values in by_position.items():
            store.update(class_name, oids[class_name][position], values)
    return schema, store


def _extent_scan_bindings(schema, store, class_names, limit_per_class):
    """The enumerator as it was before ``referrer_map``: one scan per binding."""

    def extend(index, binding):
        if index >= len(class_names):
            yield dict(binding)
            return
        next_class = class_names[index]
        candidates = None
        for bound_class, bound_instance in binding.items():
            rel = schema.relationship_between(bound_class, next_class)
            if rel is None:
                continue
            forward = [
                store.get(next_class, oid)
                for oid in bound_instance.pointer_oids(rel.attribute_for(bound_class))
            ]
            candidates = [instance for instance in forward if instance is not None]
            seen = {instance.oid for instance in candidates}
            for candidate in store.instances(next_class):
                if candidate.oid not in seen and bound_instance.oid in (
                    candidate.pointer_oids(rel.attribute_for(next_class))
                ):
                    candidates.append(candidate)
            break
        if candidates is None:
            candidates = store.instances(next_class)[:limit_per_class]
        for candidate in candidates:
            binding[next_class] = candidate
            yield from extend(index + 1, binding)
            del binding[next_class]

    for instance in store.instances(class_names[0])[:limit_per_class]:
        yield from extend(1, {class_names[0]: instance})


@pytest.mark.parametrize("shard_count", [1, 2])
@pytest.mark.parametrize(
    "class_names, limit_per_class",
    [
        (["cargo", "vehicle"], None),
        (["vehicle", "cargo"], None),
        # A chain: engine joins through vehicle, not through cargo.
        (["cargo", "vehicle", "engine"], None),
        # vehicle joins through the first bound class related to it.
        (["supplier", "cargo", "vehicle"], None),
        # engine is related to neither: a capped cross product.
        (["supplier", "cargo", "engine"], 2),
        (["cargo", "vehicle"], 3),
    ],
)
def test_enumeration_order_matches_the_extent_scan(
    shard_count, class_names, limit_per_class
):
    """Order is data: the generator repairs values while it enumerates."""
    schema, store = _linked_store(shard_count)
    assert connectivity_order(schema, class_names) == class_names
    expected = [
        list(binding.items())
        for binding in _extent_scan_bindings(
            schema, store, class_names, limit_per_class
        )
    ]
    actual = [
        list(binding.items())
        for binding in enumerate_bindings(
            schema, store, class_names, limit_per_class
        )
    ]
    assert actual == expected
    assert len(actual) > len(store.instances(class_names[0])[:limit_per_class])


def test_enumeration_order_is_forward_then_reverse_only():
    schema, store = _linked_store(1)
    cargo = [instance.oid for instance in store.instances("cargo")]
    vehicle = [instance.oid for instance in store.instances("vehicle")]
    collected = {}
    for binding in enumerate_bindings(schema, store, ["cargo", "vehicle"]):
        collected.setdefault(binding["cargo"].oid, []).append(binding["vehicle"].oid)
    assert collected == {
        cargo[0]: [vehicle[1], vehicle[0]],
        cargo[1]: [vehicle[2]],
        cargo[2]: [vehicle[1]],
        cargo[3]: [vehicle[2], vehicle[0]],
        cargo[4]: [vehicle[0], vehicle[2]],
    }


def test_connectivity_order_prefers_connected_sequences():
    schema = build_evaluation_schema()
    ordered = connectivity_order(schema, ["driver", "supplier", "cargo"])
    assert ordered[0] == "driver"
    # supplier connects to neither driver nor... actually supplier-cargo via
    # supplies; cargo connects to neither driver directly, but the order must
    # keep connected classes adjacent to an earlier one when possible.
    assert set(ordered) == {"driver", "supplier", "cargo"}


def test_limit_per_class_caps_work(small_setup):
    report = validate_database(
        small_setup.schema,
        small_setup.store,
        small_setup.constraints,
        limit_per_class=5,
    )
    assert report.constraints_checked == len(small_setup.constraints)


def test_generated_database_is_consistent(small_setup):
    """The constraint-enforcement pass must leave no violations behind."""
    report = validate_database(
        small_setup.schema, small_setup.store, small_setup.constraints
    )
    assert report.is_valid, report.summary()
