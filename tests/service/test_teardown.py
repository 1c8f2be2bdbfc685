"""A closed service is freed by reference counting, not by the collector.

Nothing a service hands its optimizer and cost model may refer back to the
service, and nothing the store holds may refer back to the store: each such
hook closes a cycle, and a torn-down service and its store then stay alive
as garbage until a full collection runs.  With the collector off, dropping
the last references must free both at once.
"""

import gc
import weakref

from repro.data import DatabaseSpec, build_evaluation_setup
from repro.service import OptimizationService


def test_closed_service_and_store_free_without_the_collector():
    gc.collect()
    gc.disable()
    try:
        setup = build_evaluation_setup(
            DatabaseSpec("DB1x2", 52, 154), query_count=2, shard_count=2
        )
        service = OptimizationService(
            setup.schema,
            repository=setup.repository,
            cost_model=setup.cost_model,
            store=setup.store,
        )
        service.enable_dynamic_rules()
        service.execute(setup.queries[0], execution_mode="vectorized")
        service.close()
        service_ref = weakref.ref(service)
        store_ref = weakref.ref(setup.store)
        del service, setup
        assert service_ref() is None
        assert store_ref() is None
    finally:
        gc.enable()
