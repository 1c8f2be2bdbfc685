"""Regression tests: statistics consumers read the store's own, fresh statistics.

Two staleness bugs are pinned here:

* the batch path used to call ``DatabaseStatistics.collect`` — a full
  walk of every extent — once **per batch**, even when the store had not
  changed between batches.  Every consumer now reads
  ``store.statistics()``, one snapshot per store version read off the
  value summaries the writes maintain, so the serving path never walks an
  extent for statistics at all — and still sees a write at once;
* the optimizer's cost model used to hold the snapshot collected at
  setup time forever, so selectivity estimates never noticed bulk data
  changes.  The fix binds the cost model to the store as a *provider*,
  so every estimate prices against statistics current for the store's
  present version.

Both tests fail on the pre-fix tree.  A third runs optimizers beside a
writer: a statistics snapshot is built from summaries the writes change,
so building one must never meet a write half-way.
"""

import threading

import pytest

from repro.constraints import ConstraintRepository, DynamicRuleDeriver
from repro.constraints.dynamic import derive_by_scan
from repro.core import OptimizerConfig
from repro.data import TABLE_4_1_SPECS, build_evaluation_setup
from repro.engine.statistics import DatabaseStatistics
from repro.service import OptimizationService


@pytest.fixture()
def service_setup():
    setup = build_evaluation_setup(
        TABLE_4_1_SPECS["DB1"], query_count=8, seed=41, shard_count=2
    )
    repository = ConstraintRepository(setup.schema)
    repository.add_all(setup.constraints)
    service = OptimizationService(
        setup.schema,
        repository=repository,
        cost_model=setup.cost_model,
        config=OptimizerConfig(record_access_statistics=False),
        store=setup.store,
    )
    yield setup, service
    service.close()


def test_serving_path_never_collects_and_reads_fresh_statistics(
    service_setup, monkeypatch
):
    """Batches around a write: no statistics walk, no stale numbers."""
    setup, service = service_setup
    store = service.store
    service.execute_many(setup.queries)
    before = store.statistics()
    collects = []
    real_collect = DatabaseStatistics.collect
    monkeypatch.setattr(
        DatabaseStatistics,
        "collect",
        staticmethod(lambda *args: collects.append(args) or real_collect(*args)),
    )

    for _ in range(3):
        batch = service.execute_many(setup.queries)
        assert len(batch) == len(setup.queries)
    # An unchanged store serves one snapshot to every consumer.
    assert store.statistics() is before
    service.mutate(
        "insert",
        "cargo",
        values={
            "code": "STALE-0",
            "desc": "staleness probe",
            "quantity": 7,
            "category": "general",
        },
    )
    service.execute_many(setup.queries)
    assert collects == [], "the serving path walked an extent for statistics"

    after = store.statistics()
    assert after is service.optimizer.cost_model.statistics
    assert after.cardinality("cargo") == before.cardinality("cargo") + 1
    assert after == real_collect(setup.schema, store)


def test_selectivity_flips_after_bulk_delete(service_setup):
    """The cost model's estimates track bulk deletes, not setup-time stats."""
    _setup, service = service_setup
    store = service.store
    cost_model = service.optimizer.cost_model

    result = service.mutate(
        "insert_many",
        "cargo",
        rows=[
            {
                "code": f"BULK-{i}",
                "desc": "bulk cohort",
                "quantity": 1_000_000 + i,
                "category": "bulk",
            }
            for i in range(200)
        ],
    )
    assert result.applied == 200

    before = cost_model.statistics
    assert before.cardinality("cargo") == store.count("cargo")
    distinct_before = before.distinct("cargo", "quantity")

    deletes = [
        {"op": "delete", "class_name": "cargo", "oid": oid}
        for oid in result.oids
    ]
    service.mutate_many(deletes, op_label="bulk_delete")

    after = cost_model.statistics
    # Pre-fix: ``after`` was the setup-time snapshot — cardinality stuck
    # at the post-insert count and the quantity domain still stretched to
    # the bulk cohort's million-range values.
    assert after.cardinality("cargo") == store.count("cargo")
    assert after.cardinality("cargo") == before.cardinality("cargo") - 200
    assert after.distinct("cargo", "quantity") < distinct_before
    quantity = after.attribute_statistics("cargo", "quantity")
    assert quantity.maximum < 1_000_000

    # The flip is visible where it matters: the estimated match count of
    # an equality on the deleted cohort's attribute shrinks with the data.
    assert (
        after.cardinality("cargo") / after.distinct("cargo", "quantity")
        < before.cardinality("cargo") / distinct_before
    ) or after.distinct("cargo", "quantity") < distinct_before


def test_optimizers_beside_a_writer_read_whole_snapshots():
    """Four threads optimize while one writes; nothing raises, nothing drifts."""
    setup = build_evaluation_setup(TABLE_4_1_SPECS["DB1"], query_count=8, seed=41)
    store = setup.store
    service = OptimizationService(
        setup.schema,
        repository=setup.repository,
        cost_model=setup.cost_model,
        store=store,
    )
    service.enable_dynamic_rules()
    row = dict(store.instances("cargo")[0].values)
    ceiling = max(instance.values["quantity"] for instance in store.instances("cargo"))
    errors = []
    done = threading.Event()

    def optimize():
        try:
            while not done.is_set():
                for query in setup.queries:
                    service.optimize(query, use_cache=False)
        except Exception as exc:  # pragma: no cover - the failure under test
            errors.append(exc)

    def write():
        try:
            for cycle in range(200):
                values = dict(row, code=f"race-{cycle}")
                (oid,) = service.mutate("insert", "cargo", values=values).oids
                service.mutate("update", "cargo", oid, {"quantity": ceiling + 1 + cycle})
                service.mutate("delete", "cargo", oid)
        except Exception as exc:  # pragma: no cover - the failure under test
            errors.append(exc)
        finally:
            done.set()

    threads = [threading.Thread(target=optimize) for _ in range(4)]
    threads.append(threading.Thread(target=write))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert store.statistics() == DatabaseStatistics.collect(setup.schema, store)
    assert DynamicRuleDeriver(setup.schema).derive(store) == derive_by_scan(
        setup.schema, store
    )
