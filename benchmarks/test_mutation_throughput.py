"""Benchmark: warm-cache read throughput across a live write.

The write path's performance contract is *recovery*: a mutation may evict
exactly the state it invalidates (the touched shards' executor caches, the
touched classes' optimization results, the touched classes' dynamic
rules), after which **one** pass over the workload must restore the warm
steady state.  This benchmark measures three passes of the same read
workload around a rule-moving write:

1. the **warm baseline** (all result-cache hits),
2. the **recovery pass** right after the write (queries over the mutated
   class recompute; everything else must still hit),
3. the **post-recovery pass**, which must be all-hits again and is gated
   at ≥ 50 % of the baseline throughput (skipped under
   ``REPRO_BENCH_SMOKE=1``, like every timing gate).

Numbers land in ``BENCH_mutation.json``.
"""

import os
import time
from dataclasses import replace

from _artifacts import record_bench

from repro.constraints import ConstraintRepository
from repro.constraints.dynamic import DerivationConfig
from repro.core import OptimizerConfig
from repro.data import TABLE_4_1_SPECS, build_evaluation_setup
from repro.service import OptimizationService, ResultSource

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _timed_pass(service, workload):
    start = time.perf_counter()
    envelopes = [service.execute(query) for query in workload]
    return time.perf_counter() - start, envelopes


def _sources(envelopes):
    counts = {}
    for envelope in envelopes:
        source = envelope.optimization.source.value
        counts[source] = counts.get(source, 0) + 1
    return counts


def test_warm_read_throughput_recovers_within_one_pass():
    setup = build_evaluation_setup(
        TABLE_4_1_SPECS["DB1"], query_count=16, seed=23, shard_count=2
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
        service.enable_dynamic_rules(
            config=DerivationConfig(derive_functional=False)
        )
        # The cargo queries project cargo.code, so the write below is
        # observable in their answers.
        workload = [
            replace(
                query,
                projections=tuple(
                    dict.fromkeys(query.projections + ("cargo.code",))
                ),
            )
            if "cargo" in query.classes
            else query
            for query in setup.queries
        ]

        _timed_pass(service, workload)  # cold pass fills every cache
        warm_time, warm = _timed_pass(service, workload)
        assert all(
            e.optimization.source is not ResultSource.COMPUTED for e in warm
        ), _sources(warm)

        # The write: far outside every observed bound, so the cargo rules
        # must genuinely change (worst case for the caches).
        mutation = service.mutate(
            "insert",
            "cargo",
            values={"code": "BENCH", "desc": "late arrival",
                    "quantity": 10_000_000, "category": "general"},
        )
        assert mutation.rules_changed and mutation.rules_refreshed == 1

        recovery_time, recovery = _timed_pass(service, workload)
        recovery_sources = _sources(recovery)
        # Class-granular invalidation: only queries touching the mutated
        # class recompute; the rest still hit the result cache.
        cargo_queries = sum(1 for q in workload if "cargo" in q.classes)
        assert recovery_sources.get("computed", 0) <= cargo_queries
        if cargo_queries < len(workload):
            assert recovery_sources.get("result_cache", 0) > 0

        post_time, post = _timed_pass(service, workload)
        assert all(
            e.optimization.source is not ResultSource.COMPUTED for e in post
        ), _sources(post)
        # Rows reflect the write on every later pass.
        assert any(
            any(row.get("cargo.code") == "BENCH" for row in envelope.rows)
            for envelope in post
            if "cargo" in envelope.query.classes
        )

        warm_qps = len(workload) / warm_time if warm_time > 0 else 0.0
        post_qps = len(workload) / post_time if post_time > 0 else 0.0
        ratio = post_qps / warm_qps if warm_qps > 0 else 0.0
        print(
            f"\nwarm {warm_qps:.0f} q/s, recovery "
            f"{len(workload) / recovery_time:.0f} q/s, post-write "
            f"{post_qps:.0f} q/s ({ratio:.2f}x of baseline); "
            f"mutation {mutation.mutate_time * 1000:.2f} ms"
        )
        record_bench(
            "BENCH_mutation.json",
            "write_recovery",
            {
                "workload": "DB1 x16, 2 shards, dynamic rules",
                "warm_pass_qps": round(warm_qps, 1),
                "recovery_pass_qps": round(
                    len(workload) / recovery_time, 1
                )
                if recovery_time > 0
                else None,
                "post_write_pass_qps": round(post_qps, 1),
                "post_to_warm_ratio": round(ratio, 3),
                "mutation_latency_ms": round(mutation.mutate_time * 1000, 3),
                "rules_refreshed": mutation.rules_refreshed,
                "rules_changed": mutation.rules_changed,
                "recovery_sources": recovery_sources,
                "required_ratio": 0.5,
                "enforced": not SMOKE,
            },
        )
        # The gate: one pass after a write, throughput is back.
        if not SMOKE:
            assert ratio >= 0.5, (
                f"post-write warm pass at {ratio:.2f}x of the pre-write "
                f"baseline ({post_qps:.0f} vs {warm_qps:.0f} q/s)"
            )
    finally:
        service.close()


def test_mutation_latency_recorded():
    """Raw service-level write latency (insert/update/delete), recorded."""
    setup = build_evaluation_setup(
        TABLE_4_1_SPECS["DB1"], query_count=4, seed=29, shard_count=2
    )
    repository = ConstraintRepository(setup.schema)
    repository.add_all(setup.constraints)
    service = OptimizationService(
        setup.schema,
        repository=repository,
        config=OptimizerConfig(record_access_statistics=False),
        store=setup.store,
    )
    try:
        timings = {}
        inserted = []
        start = time.perf_counter()
        for i in range(100):
            result = service.mutate(
                "insert",
                "cargo",
                values={"code": f"L{i}", "desc": "bench", "quantity": i,
                        "category": "general"},
            )
            inserted.append(result.oids[0])
        timings["insert_us"] = (time.perf_counter() - start) * 1e4  # per op
        start = time.perf_counter()
        for oid in inserted:
            service.mutate("update", "cargo", oid=oid, values={"quantity": 1})
        timings["update_us"] = (time.perf_counter() - start) * 1e4
        start = time.perf_counter()
        for oid in inserted:
            service.mutate("delete", "cargo", oid=oid)
        timings["delete_us"] = (time.perf_counter() - start) * 1e4
        batch_start = time.perf_counter()
        batch = service.mutate(
            "insert_many",
            "cargo",
            rows=[
                {"code": f"B{i}", "desc": "bench", "quantity": i,
                 "category": "general"}
                for i in range(100)
            ],
        )
        timings["insert_many_us_per_row"] = (
            (time.perf_counter() - batch_start) * 1e4
        )
        assert batch.applied == 100
        print(
            "\n"
            + ", ".join(f"{name}: {value:.1f}" for name, value in timings.items())
        )
        record_bench(
            "BENCH_mutation.json",
            "write_latency",
            {name: round(value, 2) for name, value in timings.items()},
        )
    finally:
        service.close()
