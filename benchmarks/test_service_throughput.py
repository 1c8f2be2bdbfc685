"""Microbenchmark: OptimizationService repeated-workload throughput.

A server optimizing production traffic sees the same (or structurally
equal) queries over and over.  This benchmark optimizes one workload twice
through the same :class:`~repro.service.OptimizationService`: the cold pass
runs the full pipeline for every unique query, the warm pass must be served
from the result cache — skipping constraint retrieval, closure work and all
four optimizer phases — and is therefore required to be at least 2x faster
per query on average.
"""

import os
import time

from _artifacts import record_bench

from repro.core import OptimizerConfig
from repro.query import structurally_equal
from repro.service import OptimizationService, ResultSource

#: REPRO_BENCH_SMOKE=1 (the CI smoke step) runs everything but skips the
#: timing threshold, which is too noisy to gate on for shared runners.
SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _timed_batch(service, queries, **kwargs):
    start = time.perf_counter()
    batch = service.optimize_many(queries, **kwargs)
    return time.perf_counter() - start, batch


def test_repeated_workload_throughput(bench_setup):
    # Duplicate the workload inside the batch too, so batch-level
    # deduplication is exercised alongside the cross-batch result cache.
    workload = list(bench_setup.queries) + [
        q.renamed(f"{q.name}_dup") for q in bench_setup.queries
    ]
    service = OptimizationService(
        bench_setup.schema,
        repository=bench_setup.repository,
        cost_model=bench_setup.cost_model,
        config=OptimizerConfig(record_access_statistics=False),
    )

    cold_time, cold = _timed_batch(service, workload)
    warm_time, warm = _timed_batch(service, workload)
    # Re-time the warm pass twice more and keep the fastest run: the real
    # margin is >10x, so this only guards the assertion against a GC pause
    # or scheduler hiccup on a loaded CI runner.
    for _ in range(2):
        retime, _unused = _timed_batch(service, workload)
        warm_time = min(warm_time, retime)

    cold_mean = cold_time / len(workload)
    warm_mean = warm_time / len(workload)
    speedup = cold_mean / warm_mean if warm_mean > 0 else float("inf")
    print()
    print(
        f"cold: {cold_time * 1000:.2f} ms, warm: {warm_time * 1000:.2f} ms, "
        f"speedup {speedup:.1f}x over {len(workload)} queries"
    )
    print(f"cold batch: {cold.summary()}")
    print(f"warm batch: {warm.summary()}")

    # The cold pass computed every unique query exactly once; the in-batch
    # duplicates were answered by deduplication.
    assert cold.stats.unique == len(bench_setup.queries)
    assert cold.stats.computed == cold.stats.unique
    assert cold.stats.duplicates == len(bench_setup.queries)

    # The warm pass hit the result cache for every unique query.
    assert warm.stats.result_cache_hits == warm.stats.unique
    assert warm.stats.computed == 0
    assert warm.cache.result_hits > 0

    # Even when the result cache is bypassed (a pipeline re-run), the
    # repository serves constraint retrieval from its keyed cache.
    rerun = service.optimize(workload[0], use_cache=False)
    assert rerun.result.retrieval_stats is not None
    assert rerun.result.retrieval_stats.cache_hit
    assert service.cache_stats().retrieval_hits > 0

    # Cached results are the same results.
    for cold_envelope, warm_envelope in zip(cold.results, warm.results):
        assert warm_envelope.source in (
            ResultSource.RESULT_CACHE,
            ResultSource.BATCH_DEDUP,
        )
        assert structurally_equal(cold_envelope.optimized, warm_envelope.optimized)

    record_bench(
        "BENCH_service.json",
        "repeated_workload",
        {
            "workload": "DB2 x20 duplicated (40 queries)",
            "mode": "optimize_many",
            "cold_ms": round(cold_time * 1000, 3),
            "warm_ms": round(warm_time * 1000, 3),
            "speedup": round(speedup, 2),
            "queries_per_s_warm": (
                round(len(workload) / warm_time) if warm_time > 0 else None
            ),
            "required_speedup": 2.0,
            "enforced": not SMOKE,
        },
    )
    # The acceptance bar: serving from cache beats recomputation >= 2x.
    if not SMOKE:
        assert warm_mean * 2.0 <= cold_mean, (
            f"warm pass only {speedup:.2f}x faster "
            f"(cold {cold_mean * 1e6:.0f} us/q, warm {warm_mean * 1e6:.0f} us/q)"
        )


def test_execute_many_throughput_recorded(bench_setup):
    """End-to-end execution throughput per engine, recorded (no threshold).

    ``execute_many`` optimizes the workload once (batch dedup + result
    cache) and executes it on each engine against the same store; every
    engine must return the same rows, and the per-engine wall times land in
    the service artifact.  No speedup gate: the point of the record is the
    trajectory on real hardware.
    """
    workload = list(bench_setup.queries)
    service = OptimizationService(
        bench_setup.schema,
        repository=bench_setup.repository,
        cost_model=bench_setup.cost_model,
        config=OptimizerConfig(record_access_statistics=False),
        store=bench_setup.store,
    )
    try:
        reference = None
        throughput = {}
        for mode in ("rowwise", "vectorized"):
            best = None
            for _ in range(2):
                batch = service.execute_many(workload, execution_mode=mode)
                if best is None or batch.stats.execute_time < best.stats.execute_time:
                    best = batch
            rows = [envelope.rows for envelope in best]
            if reference is None:
                reference = rows
            else:
                assert rows == reference, f"{mode} rows diverge"
            throughput[mode] = {
                "execute_ms": round(best.stats.execute_time * 1000, 3),
                "queries_per_s": round(
                    len(workload) / best.stats.execute_time
                )
                if best.stats.execute_time > 0
                else None,
                "rows_per_s": round(
                    best.total_rows() / best.stats.execute_time
                )
                if best.stats.execute_time > 0
                else None,
            }
            print(f"\nexecute_many[{mode}]: {best.summary()}")
        record_bench(
            "BENCH_service.json",
            "execute_many",
            {"workload": "DB2 x20", "modes": throughput},
        )
    finally:
        service.close()
