"""Inputs of the spine workloads.

The database is the one ``repro serve`` generates (it takes no seed, so
the TCP workloads can only ever see that one), and the in-process
workloads build their service exactly the way ``repro serve`` does, so
all four see the same optimizer state for the same database.  The query
sets are fixed too (:data:`QUERY_SEED`): ``cost_ratio`` is an exact count
over them, bounded at 0, so it has to be the same number on every run.
``--seed`` drives what the program *receives* run by run: the order in
which each cycle visits the queries and the rows the write mix inserts.
"""

import random
from dataclasses import dataclass

from repro.data import TABLE_4_1_SPECS, DatabaseSpec, build_workload
from repro.query import equivalence_key, format_query

#: ``execute_scan``'s store: DB4 doubled.  Capped here because generation is
#: super-linear (0.5 s @208, 1.9 s @416, 7.6 s @832, 132 s @3328).
DB4X2 = DatabaseSpec("DB4x2", class_cardinality=416, relationship_cardinality=1232)

SPECS = dict(TABLE_4_1_SPECS, DB4x2=DB4X2)

#: Seed of the query generator: the repo's default, i.e. the first queries
#: are the 40 the paper's evaluation (``build_evaluation_setup``) runs.
QUERY_SEED = 7

#: The class the write mix mutates, its unique-key attribute and the numeric
#: attribute whose observed range the dynamic rules track.
WRITE_CLASS = "cargo"
KEY_ATTRIBUTE = "code"
BOUND_ATTRIBUTE = "quantity"


@dataclass(frozen=True)
class Scale:
    """Sizes of one run; ``FULL`` is the benchmark, ``TOY`` the smoke test."""

    optimize_db: str
    execute_db: str
    gateway_db: str
    #: Queries generated for ``optimize_cold`` / for the other three.
    optimize_queries: int
    queries: int
    #: Ops per round, per workload (per client on the TCP workloads; a
    #: multiple of 12 there, so a round ends on a whole write cycle).
    optimize_ops: int
    execute_ops: int
    gateway_ops: int
    #: A round's length at seed speed; ``--seconds`` buys this many rounds.
    round_seconds: float
    min_rounds: int
    setup_reps: int
    #: Ops of the workload's round the traced run replays layer by layer.
    replay_ops: int
    #: Repetitions of each per-layer probe in the traced run.
    probe_reps: int

    def rounds(self, seconds):
        """Timed rounds in a run of ``seconds``: a count, fixed before the run."""
        return max(self.min_rounds, round(seconds / self.round_seconds))


FULL = Scale(
    optimize_db="DB4",
    execute_db="DB4x2",
    gateway_db="DB4",
    optimize_queries=400,
    queries=40,
    optimize_ops=3200,
    execute_ops=3000,
    gateway_ops=504,
    round_seconds=4.0,
    min_rounds=3,
    setup_reps=4,
    replay_ops=120,
    probe_reps=5,
)

TOY = Scale(
    optimize_db="DB1",
    execute_db="DB1",
    gateway_db="DB1",
    optimize_queries=24,
    queries=8,
    optimize_ops=48,
    execute_ops=48,
    gateway_ops=24,
    round_seconds=4.0,
    min_rounds=1,
    setup_reps=1,
    replay_ops=24,
    probe_reps=1,
)


def workload_queries(setup, count):
    """The first ``count`` generated queries as distinct ``(text, query)`` pairs.

    Distinct means structurally distinct — the identity the result cache
    and the gateway's single-flight map use — so no two entries can ever
    share a cache slot or coalesce in flight.
    """
    queries = build_workload(
        setup.schema,
        setup.database.value_catalog,
        count=count,
        seed=QUERY_SEED,
        constraints=setup.constraints,
    )
    seen = {}
    for query in queries:
        seen.setdefault(equivalence_key(query), (format_query(query), query))
    return list(seen.values())


class WriteStream:
    """One client's seeded write cycles: insert -> update -> delete of one row.

    The live row count stays level (an insert-only mix drifts throughput
    down ~2x over 2500 ops).  The inserted row copies a seeded existing
    row's values under a fresh key, so it satisfies every declared
    integrity constraint the optimizer trusts; the update then pushes
    ``quantity`` past the observed maximum, which moves a derived range
    rule, and the delete moves it back — two of three writes invalidate.
    """

    def __init__(self, seed, client, schema, initial_rows):
        self._rng = random.Random(f"{seed}-writes-{client}")
        self._client = client
        names = [
            attribute.name
            for attribute in schema.object_class(WRITE_CLASS).value_attributes
        ]
        self._templates = [
            {name: values.get(name) for name in names}
            for _, values in sorted(initial_rows.items())
        ]
        self._ceiling = max(row[BOUND_ATTRIBUTE] for row in self._templates)
        self._cycles = 0

    def next_cycle(self):
        """``(insert values, update values)`` of the next cycle."""
        row = dict(self._rng.choice(self._templates))
        row[KEY_ATTRIBUTE] = f"spine-{self._client}-{self._cycles}"
        self._cycles += 1
        bump = {BOUND_ATTRIBUTE: self._ceiling + 1 + self._rng.randrange(1000)}
        return row, bump
