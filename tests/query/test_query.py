"""Unit tests for the five-part query representation."""

import pytest

from repro.constraints import Predicate
from repro.query import Query, QueryError


def make_query():
    return Query(
        projections=("vehicle.vehicle_no", "cargo.desc"),
        join_predicates=(),
        selective_predicates=(
            Predicate.equals("vehicle.desc", "refrigerated truck"),
            Predicate.equals("supplier.name", "SFI"),
        ),
        relationships=("collects", "supplies"),
        classes=("supplier", "cargo", "vehicle"),
        name="sample",
    )


def test_basic_accessors():
    query = make_query()
    assert query.class_count == 3
    assert query.referenced_classes() == frozenset({"supplier", "cargo", "vehicle"})
    assert query.projection_classes() == frozenset({"vehicle", "cargo"})
    assert query.predicate_classes() == frozenset({"vehicle", "supplier"})
    assert len(query.predicates()) == 2


def test_requires_at_least_one_class():
    with pytest.raises(QueryError):
        Query(classes=())


def test_duplicate_classes_rejected():
    with pytest.raises(QueryError):
        Query(classes=("cargo", "cargo"))


def test_has_predicate_is_normalization_aware():
    query = make_query()
    assert query.has_predicate(Predicate.equals("supplier.name", "SFI"))
    assert not query.has_predicate(Predicate.equals("supplier.name", "Acme"))


def test_add_selective_predicates_deduplicates():
    query = make_query()
    extended = query.add_selective_predicates(
        [
            Predicate.equals("supplier.name", "SFI"),
            Predicate.equals("cargo.desc", "frozen food"),
        ]
    )
    assert len(extended.selective_predicates) == 3
    # Original untouched (immutability).
    assert len(query.selective_predicates) == 2


def test_without_classes_drops_predicates_and_projections():
    query = make_query()
    reduced = query.without_classes(["supplier"])
    assert "supplier" not in reduced.classes
    assert all(
        not p.references_class("supplier") for p in reduced.predicates()
    )
    with pytest.raises(QueryError):
        query.without_classes(["supplier", "cargo", "vehicle"])


def test_without_classes_keeps_relationships_and_without_class_drops_them(
    evaluation_schema,
):
    query = make_query()
    # A query holds no schema, so it cannot tell which relationships a
    # dropped class was on.
    assert query.without_classes(["supplier"]).relationships == (
        "collects",
        "supplies",
    )
    reduced = query.without_class("supplier", evaluation_schema)
    assert reduced == query.without_classes(["supplier"]).keep_relationships(
        ["collects"]
    )
    assert reduced.classes == ("cargo", "vehicle")


def test_keep_relationships():
    query = make_query()
    kept = query.keep_relationships(["collects"])
    assert kept.relationships == ("collects",)


def test_predicates_on():
    query = make_query()
    assert len(query.predicates_on("vehicle")) == 1
    assert query.predicates_on("cargo") == []


def test_validate_against_schema(example_schema):
    query = make_query()
    query.validate(example_schema)


def test_validate_rejects_unknown_class(example_schema):
    query = Query(classes=("warehouse",), projections=())
    with pytest.raises(QueryError):
        query.validate(example_schema)


def test_validate_rejects_predicate_outside_class_list(example_schema):
    query = Query(
        classes=("cargo",),
        selective_predicates=(Predicate.equals("vehicle.desc", "van"),),
    )
    with pytest.raises(QueryError):
        query.validate(example_schema)


def test_validate_rejects_relationship_outside_class_list(example_schema):
    query = Query(classes=("cargo", "vehicle"), relationships=("supplies",))
    with pytest.raises(QueryError):
        query.validate(example_schema)


def test_validate_rejects_unknown_attribute(example_schema):
    query = Query(
        classes=("cargo",),
        selective_predicates=(Predicate.equals("cargo.colour", "red"),),
    )
    with pytest.raises(QueryError):
        query.validate(example_schema)


def test_connected_components(example_schema):
    query = make_query()
    components = query.connected_components(example_schema)
    assert len(components) == 1
    disconnected = Query(classes=("cargo", "driver"), relationships=())
    assert len(disconnected.connected_components(example_schema)) == 2
