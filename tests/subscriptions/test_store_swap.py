"""A replica's standing views survive a full snapshot resync.

``adopt_replica_store`` swaps the whole store under the views.  The new
store's version may coincide with the version a view last saw (a primary
that restarted after losing an un-fsynced tail lands exactly there), so a
version comparison cannot tell the view that its rows are stale: the swap
itself has to flag every view and pump them.
"""

import json

from repro.constraints import ConstraintRepository
from repro.data import build_evaluation_constraints
from repro.engine import ObjectStore
from repro.query import parse_query
from repro.service import OptimizationService

QUERY = '(SELECT {cargo.code, cargo.quantity} { } {cargo.quantity >= 30} { } {cargo})'


def _store(schema, quantities):
    store = ObjectStore(schema, shard_count=2)
    for index, quantity in enumerate(quantities):
        store.insert(
            "cargo",
            {"code": f"C{index}", "desc": "frozen food", "quantity": quantity,
             "category": "general"},
        )
    return store


def test_store_swap_at_the_same_version_resyncs_the_view(evaluation_schema):
    repository = ConstraintRepository(evaluation_schema)
    repository.add_all(build_evaluation_constraints())
    service = OptimizationService(
        evaluation_schema,
        repository=repository,
        store=_store(evaluation_schema, [20, 30, 40, 50]),
    )
    try:
        registry = service.subscription_registry()
        frames = []
        snapshot = registry.subscribe(parse_query(QUERY), emit=frames.append)
        resynced = _store(evaluation_schema, [25, 35, 10, 99])
        assert resynced.version == snapshot["version"]  # the coincidence

        service.adopt_replica_store(resynced)

        fresh = service.execute(parse_query(QUERY)).rows
        assert fresh != snapshot["rows"]
        assert [frame["push"] for frame in frames] == ["resync"]
        assert json.dumps(frames[0]["rows"]) == json.dumps(fresh)
        (view,) = registry.stats()["views"]
        assert view["resyncs"] == 1
        # Nothing is left over for a later pump to discover.
        assert registry.pump() == {"views": 1, "diffs": 0, "resyncs": 0, "skipped": 1}
    finally:
        service.close()
