"""Unit tests for the synthetic database generator."""

import hashlib
import json

import pytest

from repro.constraints import Predicate, SemanticConstraint, validate_database
from repro.data import (
    TABLE_4_1_SPECS,
    DatabaseGenerator,
    DatabaseSpec,
    build_evaluation_constraints,
    build_evaluation_schema,
)


@pytest.fixture(scope="module")
def generated_db1():
    return DatabaseGenerator(seed=3).generate(TABLE_4_1_SPECS["DB1"])


def test_table_4_1_specs_match_paper():
    assert TABLE_4_1_SPECS["DB1"].class_cardinality == 52
    assert TABLE_4_1_SPECS["DB2"].class_cardinality == 104
    assert TABLE_4_1_SPECS["DB3"].relationship_cardinality == 308
    assert TABLE_4_1_SPECS["DB4"].relationship_cardinality == 616


def test_spec_validation():
    with pytest.raises(ValueError):
        DatabaseSpec("bad", class_cardinality=0, relationship_cardinality=1)
    with pytest.raises(ValueError):
        DatabaseSpec("bad", class_cardinality=1, relationship_cardinality=-1)


def test_generated_shape_matches_spec(generated_db1):
    summary = generated_db1.summary()
    assert summary["object_classes"] == 5
    assert summary["avg_class_cardinality"] == pytest.approx(52)
    assert summary["relationships"] == 6
    assert summary["avg_relationship_cardinality"] == pytest.approx(77)


def test_generated_data_respects_constraints(generated_db1):
    report = validate_database(
        generated_db1.schema,
        generated_db1.store,
        build_evaluation_constraints(),
    )
    assert report.is_valid, report.summary()


def test_total_participation_in_relationships(generated_db1):
    """Every instance takes part in every relationship it can (class elimination safety)."""
    schema = generated_db1.schema
    store = generated_db1.store
    for relationship in schema.relationships():
        for class_name in (relationship.source, relationship.target):
            attribute = relationship.attribute_for(class_name)
            for instance in store.instances(class_name):
                assert instance.pointer_oids(attribute), (
                    f"{class_name}#{instance.oid} has no {relationship.name} link"
                )


def test_value_catalog_contains_real_values(generated_db1):
    catalog = generated_db1.value_catalog
    assert "cargo.desc" in catalog and "vehicle.class" in catalog
    descs = {
        instance.values["desc"]
        for instance in generated_db1.store.instances("cargo")
    }
    assert set(catalog["cargo.desc"]) <= descs


def test_generation_is_deterministic():
    first = DatabaseGenerator(seed=5).generate(TABLE_4_1_SPECS["DB1"])
    second = DatabaseGenerator(seed=5).generate(TABLE_4_1_SPECS["DB1"])
    assert first.store.counts() == second.store.counts()
    first_values = [i.values for i in first.store.instances("cargo")]
    second_values = [i.values for i in second.store.instances("cargo")]
    assert first_values == second_values


def test_different_seeds_differ():
    first = DatabaseGenerator(seed=1).generate(TABLE_4_1_SPECS["DB1"])
    second = DatabaseGenerator(seed=2).generate(TABLE_4_1_SPECS["DB1"])
    first_values = [i.values for i in first.store.instances("cargo")]
    second_values = [i.values for i in second.store.instances("cargo")]
    assert first_values != second_values


def test_indexes_are_consistent_after_enforcement(generated_db1):
    """Repairs rebuild the indexes, so index lookups agree with scans."""
    store = generated_db1.store
    predicate = Predicate.equals("cargo.desc", "frozen food")
    indexed = set(store.indexes.lookup(predicate) or [])
    scanned = {
        instance.oid
        for instance in store.instances("cargo")
        if instance.values.get("desc") == "frozen food"
    }
    assert indexed == scanned


def test_generate_all_produces_every_spec():
    generator = DatabaseGenerator(seed=3)
    small_specs = {
        "tiny": DatabaseSpec("tiny", class_cardinality=8, relationship_cardinality=10),
        "small": DatabaseSpec("small", class_cardinality=12, relationship_cardinality=16),
    }
    databases = generator.generate_all(small_specs)
    assert set(databases) == {"tiny", "small"}
    assert databases["tiny"].store.count("cargo") == 8


def test_contradictory_constraints_are_refused_not_served():
    """An enforcement that never settles raises; it is not handed out.

    Regression test: the fixpoint loop fell out after its last pass and
    returned normally, so this pair produced a "consistent" DB1 with 20
    violations — a database on which the optimizer's rewrites change answers.
    """
    perishable = [Predicate.equals("cargo.category", "perishable")]
    contradictory = [
        SemanticConstraint.build(
            name, perishable, Predicate.equals("cargo.desc", desc),
            anchor_classes={"cargo"},
        )
        for name, desc in (("descA", "A"), ("descB", "B"))
    ]
    generator = DatabaseGenerator(build_evaluation_schema(), contradictory, seed=7)
    with pytest.raises(ValueError, match="did not converge.*descA, descB"):
        generator.generate(TABLE_4_1_SPECS["DB1"])


#: The spine's ``execute_scan`` database (``benchmarks/spine/inputs.py``).
DB4X2 = DatabaseSpec("DB4x2", class_cardinality=416, relationship_cardinality=1232)

#: sha256 over ``snapshot_rows()`` (one sorted-key JSON line per row) plus
#: ``enforcement_passes|repaired_bindings`` of ``DatabaseGenerator(seed=7)``'s
#: databases, recorded from a ``git archive`` of the commit before reverse
#: traversal became ``referrer_map`` (139c019).  Enforcement repairs values
#: while it enumerates bindings, so the enumeration's order is in here.
GENERATION_DIGESTS = {
    "DB1": "177e11a4eba21b2af9d8624b9a759c7608107839c042f8f1c044d7601b3a3223",
    "DB2": "dd2ff3a08c2488712d914cbc3f977fdbbec669027a5e886b04b0ed7d4f9bfc48",
    "DB3": "c5c847376868ca57f09891bb74b0e2742624575341d7dca126d59f811c1240c0",
    "DB4": "b1113fff9ed561d5c34f7e7b0f7a4cd874be38e9334f483886bb8509dfdb44de",
    "DB4x2": "ddac15ca09047e188c305380e1bab9dc293489c2f2ce51f3757b796ef99d7985",
}


@pytest.mark.parametrize("shard_count", [1, 2])
@pytest.mark.parametrize("name", sorted(GENERATION_DIGESTS))
def test_generated_databases_match_the_recorded_digests(name, shard_count):
    generated = DatabaseGenerator(seed=7).generate(
        dict(TABLE_4_1_SPECS, DB4x2=DB4X2)[name], shard_count=shard_count
    )
    digest = hashlib.sha256()
    for row in generated.store.snapshot_rows():
        digest.update(json.dumps(row, sort_keys=True).encode() + b"\0")
    digest.update(
        b"%d|%d" % (generated.enforcement_passes, generated.repaired_bindings)
    )
    assert digest.hexdigest() == GENERATION_DIGESTS[name]


@pytest.mark.parametrize("spec", [TABLE_4_1_SPECS["DB4"], DB4X2], ids=lambda s: s.name)
def test_spine_databases_respect_every_constraint_in_full(spec):
    """Every binding of all 15 constraints, on the databases the spine runs on."""
    generated = DatabaseGenerator(seed=7).generate(spec, shard_count=2)
    constraints = build_evaluation_constraints()
    assert len(constraints) == 15
    report = validate_database(
        generated.schema, generated.store, constraints, limit_per_class=None
    )
    assert report.is_valid, report.summary()
    assert report.bindings_checked > spec.relationship_cardinality * 10
