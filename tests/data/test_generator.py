"""Unit tests for the synthetic database generator."""

import pytest

from repro.constraints import validate_database
from repro.data import (
    TABLE_4_1_SPECS,
    DatabaseGenerator,
    DatabaseSpec,
    build_evaluation_constraints,
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


def test_replay_cache_hit_equals_miss_in_observable_state(monkeypatch):
    """A store is the same object whether the generation cache hit or missed.

    Regression test: the replay path re-inserted the cached rows but skipped
    the index rebuild generation ends with, so a hit returned a store two
    versions behind a miss, with a populated journal and a zero floor —
    and tests passed or failed depending on which earlier test had primed
    the cache.
    """
    from repro.data import build_evaluation_setup
    from repro.data.generator import clear_generation_cache

    monkeypatch.delenv("REPRO_DB_CACHE", raising=False)
    clear_generation_cache()
    miss, hit = (
        build_evaluation_setup(
            TABLE_4_1_SPECS["DB1"], query_count=6, seed=3, shard_count=2
        ).store
        for _ in range(2)
    )

    def observable(store):
        return (
            store.version,
            store.shard_versions(),
            store.journal_floor,
            store.journal_since(store.version - 1),
            list(store.snapshot_rows()),
        )

    assert observable(hit) == observable(miss)


def test_different_seeds_differ():
    first = DatabaseGenerator(seed=1).generate(TABLE_4_1_SPECS["DB1"])
    second = DatabaseGenerator(seed=2).generate(TABLE_4_1_SPECS["DB1"])
    first_values = [i.values for i in first.store.instances("cargo")]
    second_values = [i.values for i in second.store.instances("cargo")]
    assert first_values != second_values


def test_indexes_are_consistent_after_enforcement(generated_db1):
    """Repairs rebuild the indexes, so index lookups agree with scans."""
    from repro.constraints import Predicate

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
