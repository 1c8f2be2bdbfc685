"""Benchmark: self-tuning recovery after a workload shift.

The auto-indexer's performance contract: when the workload shifts onto an
attribute with no index, the advisor must notice (heat counters), create
the index through the journaled write path, and pull warm throughput back
to at least **0.8x of the pre-shift baseline** — scans of the hot extent
must not remain the steady state.

Three measured phases:

1. **pre-shift** — point lookups on an indexed attribute (``cargo.code``),
   warm;
2. **shift** — the same service hammered with equality predicates on the
   unindexed ``cargo.quantity``; the first passes pay full scans while
   the advisor's heat builds;
3. **recovered** — warm passes after the advisor created the index.

Numbers land in ``BENCH_autotune.json``.  The 0.8x gate is enforced only
on non-smoke hosts with at least 4 cores (as every timing gate here,
skipped under ``REPRO_BENCH_SMOKE=1``).
"""

import os
import time

from _artifacts import record_bench

from repro.constraints import ConstraintRepository
from repro.core import OptimizerConfig
from repro.data import TABLE_4_1_SPECS, build_evaluation_setup
from repro.query import parse_query
from repro.service import OptimizationService
from repro.tuning import TuningConfig

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
GATE = not SMOKE and (os.cpu_count() or 1) >= 4

#: Extra cargo rows grown into the store so a full scan visibly costs.
EXTENT_ROWS = 200 if SMOKE else 4000
REQUIRED_RATIO = 0.8


def _timed_pass(service, workload):
    start = time.perf_counter()
    for query in workload:
        service.execute(query, optimize=False, execution_mode="vectorized")
    elapsed = time.perf_counter() - start
    return len(workload) / elapsed if elapsed > 0 else 0.0


def test_autotune_throughput_recovers_after_shift():
    setup = build_evaluation_setup(
        TABLE_4_1_SPECS["DB2"], query_count=4, seed=53, shard_count=2
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
    try:
        service.mutate(
            "insert_many",
            "cargo",
            rows=[
                {
                    "code": f"AUTO-{i}",
                    "desc": "autotune extent",
                    "quantity": 10_000 + (i % 500),
                    "category": "general",
                }
                for i in range(EXTENT_ROWS)
            ],
        )
        manager = service.enable_self_tuning(
            TuningConfig(
                learn_rules=False,
                advice_interval=16,
                create_threshold=24.0,
                decay_interval=65536,
                min_cardinality=64,
            )
        )

        # Phase 1: indexed point lookups (cargo.code is schema-indexed).
        pre_shift = [
            parse_query(
                f'(SELECT {{cargo.desc}} {{ }} {{cargo.code = "AUTO-{i * 7}"}}'
                " { } {cargo})",
                name=f"pre-{i}",
            )
            for i in range(32)
        ]
        _timed_pass(service, pre_shift)  # warm every per-request cache
        pre_qps = _timed_pass(service, pre_shift)

        # Phase 2: the shift — equality on the unindexed quantity column.
        shifted = [
            parse_query(
                "(SELECT {cargo.code} { } "
                f"{{cargo.quantity = {10_000 + (i * 11) % 500}}} {{ }} {{cargo}})",
                name=f"shift-{i}",
            )
            for i in range(32)
        ]
        reference_rows = [
            service.execute(q, optimize=False, execution_mode="vectorized").rows
            for q in shifted
        ]
        shift_cold_qps = _timed_pass(service, shifted)
        passes_to_index = 1
        while (
            not setup.store.indexes.is_indexed("cargo", "quantity")
            and passes_to_index < 8
        ):
            _timed_pass(service, shifted)
            passes_to_index += 1
        index_created = setup.store.indexes.is_indexed("cargo", "quantity")
        assert index_created, manager.snapshot()["advisor"]
        assert manager.advisor.creates == 1

        # Phase 3: warm recovered throughput — and unchanged answers.
        recovered = [
            service.execute(q, optimize=False, execution_mode="vectorized").rows
            for q in shifted
        ]
        assert recovered == reference_rows
        recovered_qps = _timed_pass(service, shifted)
        ratio = recovered_qps / pre_qps if pre_qps > 0 else 0.0

        print(
            f"\npre-shift {pre_qps:.0f} q/s, shift cold "
            f"{shift_cold_qps:.0f} q/s, recovered {recovered_qps:.0f} q/s "
            f"({ratio:.2f}x of pre-shift; index after "
            f"{passes_to_index} passes)"
        )
        record_bench(
            "BENCH_autotune.json",
            "workload_shift_recovery",
            {
                "workload": (
                    f"DB2 + {EXTENT_ROWS} grown cargo rows, 2 shards, "
                    "32 point lookups per pass"
                ),
                "pre_shift_qps": round(pre_qps, 1),
                "shift_cold_qps": round(shift_cold_qps, 1),
                "recovered_qps": round(recovered_qps, 1),
                "recovery_ratio": round(ratio, 3),
                "passes_until_index": passes_to_index,
                "advisor": manager.snapshot()["advisor"],
                "tuning_generation": manager.generation,
                "required_ratio": REQUIRED_RATIO,
                "enforced": GATE,
            },
        )
        if GATE:
            assert ratio >= REQUIRED_RATIO, (
                f"post-shift warm throughput at {ratio:.2f}x of the "
                f"pre-shift baseline ({recovered_qps:.0f} vs "
                f"{pre_qps:.0f} q/s)"
            )
    finally:
        service.close()
