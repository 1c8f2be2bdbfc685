"""Benchmark: the O(m·n) transformation-complexity claim (Section 4).

Beside it, the same kind of claim about the data the claim is measured on:
generating a constraint-consistent database is linear in its size.
"""

import pytest

from repro.core import TransformationEngine, initialize
from repro.data import DatabaseGenerator, DatabaseSpec
from repro.engine import ObjectInstance
from repro.experiments import (
    build_chain_constraints,
    build_chain_query,
    build_chain_schema,
    run_complexity,
)


@pytest.mark.parametrize("constraint_count", [16, 64, 256])
def test_transformation_scaling(benchmark, constraint_count):
    schema = build_chain_schema(constraint_count + 2)
    constraints = build_chain_constraints(constraint_count)
    query = build_chain_query(1)

    def transform():
        init = initialize(query, constraints)
        engine = TransformationEngine(init.table, schema)
        engine.run()
        return engine.stats.fired

    fired = benchmark(transform)
    # Every constraint in the chain fires exactly once.
    assert fired == constraint_count


def test_complexity_report(benchmark):
    result = benchmark.pedantic(
        run_complexity,
        kwargs={"constraint_counts": (8, 16, 32, 64), "repeats": 1},
        rounds=1,
        iterations=1,
    )
    print()
    print(result.as_table())
    per_cell = result.time_per_cell()
    # O(m*n): per-cell time must stay bounded as the table grows.
    assert max(per_cell) <= 20 * min(per_cell)


def test_generation_work_is_linear_in_the_data(monkeypatch):
    """Cold generation reads each pointer a bounded number of times.

    Counted, not timed, so it is enforced on every host: 4x the instances
    with 4x the links must cost about 4x the ``pointer_oids`` calls.  When
    binding enumeration rescanned an extent per bound instance the ratio
    was ~16.
    """
    calls = 0
    pointer_oids = ObjectInstance.pointer_oids

    def counted(self, attribute_name):
        nonlocal calls
        calls += 1
        return pointer_oids(self, attribute_name)

    monkeypatch.setattr(ObjectInstance, "pointer_oids", counted)
    monkeypatch.setenv("REPRO_DB_CACHE", "0")
    counts = []
    for class_cardinality in (104, 416):
        calls = 0
        spec = DatabaseSpec("linear", class_cardinality, class_cardinality * 3)
        DatabaseGenerator(seed=7).generate(spec)
        counts.append(calls)
    assert counts[0] > 0
    assert counts[1] <= 6 * counts[0], counts
