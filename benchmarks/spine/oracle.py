"""The spine's independent checker: answers oracle and durability check.

Nothing here goes through the path under test.  Expected answers come
from the **original, unoptimized** query run by a ``rowwise``
:class:`~repro.engine.QueryExecutor` on a store this module generates for
itself; expected durable state comes from the bench's own ledger of the
writes the server acknowledged.
"""

import json
import time
from dataclasses import dataclass

from repro.data import build_evaluation_setup
from repro.durability import recover
from repro.engine import QueryExecutor


def primitive_ops(metrics):
    """Table 4.2's cost measure: the engine's primitive operations, summed."""
    return (
        metrics.instances_retrieved
        + metrics.predicate_evaluations
        + metrics.pointer_traversals
        + metrics.index_lookups
    )


def canonical_rows(rows, projections):
    """The answer as sorted JSON: distinct projected tuples, order-free.

    The system's answers are sets of projected tuples (class elimination
    may change how many duplicates a fan-out join yields), so rows are
    projected, de-duplicated and sorted before they are compared.
    """
    return sorted(
        {json.dumps([row.get(name) for name in projections]) for row in rows}
    )


@dataclass
class Expected:
    """What the oracle knows about one query at the initial store state."""

    answer: list
    cost: int
    row_count: int


@dataclass
class Observed:
    """One rowwise execution on the oracle's store."""

    rows: list
    cost: int

    def answer(self, projections):
        return canonical_rows(self.rows, projections)


class AnswerOracle:
    """Rowwise answers of original queries on an independent store."""

    def __init__(self, spec):
        # Single shard, rowwise: the configuration with no cache to go stale.
        self.setup = build_evaluation_setup(spec, query_count=1)
        self.schema = self.setup.schema
        self.store = self.setup.store
        self._executor = QueryExecutor(self.schema, self.store)
        self._expected = {}

    def expected(self, text, query):
        """Answer, cost and size of the original ``query`` (memoized by text)."""
        known = self._expected.get(text)
        if known is None:
            result = self._executor.execute(query)
            known = Expected(
                answer=canonical_rows(result.rows, query.projections),
                cost=primitive_ops(result.metrics),
                row_count=result.row_count,
            )
            self._expected[text] = known
        return known

    def run(self, query):
        """Rows and primitive ops of any query (e.g. an optimized one), rowwise."""
        result = self._executor.execute(query)
        return Observed(rows=result.rows, cost=primitive_ops(result.metrics))

    def verify(self, text, query, rows):
        """Whether ``rows`` (from the path under test) are the expected answer."""
        return canonical_rows(rows, query.projections) == self.expected(text, query).answer


def rows_of(store, class_name):
    """``{oid: values}`` (copies) of one class of ``store``."""
    return {
        instance.oid: dict(instance.values) for instance in store.instances(class_name)
    }


class WriteLedger:
    """What the acknowledged writes imply for one class and the store version."""

    def __init__(self, class_name, initial_rows, initial_version):
        self.class_name = class_name
        self.rows = {oid: dict(values) for oid, values in initial_rows.items()}
        self.version = initial_version
        self.acked = 0

    def ack(self, op, oid, values=None):
        """Record one write the server acknowledged."""
        if op == "insert":
            self.rows[oid] = dict(values)
        elif op == "update":
            self.rows[oid].update(values)
        elif op == "delete":
            del self.rows[oid]
        else:
            raise ValueError(f"unknown write op {op!r}")
        self.version += 1
        self.acked += 1


@dataclass
class DurabilityVerdict:
    """Outcome of recovering a data directory against a ledger."""

    lost: int
    recovered_version: int
    replayed_frames: int
    recovery_s: float
    clean: bool


def check_durability(data_dir, schema, ledger):
    """Recover ``data_dir`` and count acked writes the recovered store lacks.

    Each row that differs from the ledger is one lost write; a version
    that disagrees while every row matches counts by its distance (writes
    that cancelled out in the rows but never reached the log).
    """
    start = time.perf_counter()
    store, report = recover(data_dir, schema)
    elapsed = time.perf_counter() - start
    recovered = {
        instance.oid: instance.values
        for instance in store.instances(ledger.class_name)
    }
    lost = 0
    for oid in set(recovered) | set(ledger.rows):
        have = json.dumps(recovered.get(oid), sort_keys=True)
        want = json.dumps(ledger.rows.get(oid), sort_keys=True)
        if have != want:
            lost += 1
    if lost == 0:
        lost = abs(store.version - ledger.version)
    return DurabilityVerdict(
        lost=lost,
        recovered_version=store.version,
        replayed_frames=report.replayed_frames,
        recovery_s=elapsed,
        clean=report.clean,
    )
