"""Seeded diff-stream equivalence oracle for live subscriptions.

This harness drives seeded random schedules of ``{insert, update,
delete, batch, unsubscribe}`` through a persistent
:class:`~repro.service.OptimizationService` with 4-6 live subscriptions
registered up front, pumps the
:class:`~repro.subscriptions.SubscriptionRegistry` after each step,
folds the emitted ``diff``/``resync`` frames client-side with
:func:`~repro.subscriptions.apply_changes`, and asserts the
subscription contract at every single step:

* **byte-exact server tracking, always** — the folded rows equal the
  standing view's retained rows on the serialized byte form (no key
  sorting: row order *and* attribute order are part of the stream);
* **logical equivalence with fresh execution, always** — the folded
  rows equal ``service.execute(query)`` run fresh, as a multiset of
  rows (a delta proven irrelevant is skipped without re-executing, so
  the view legitimately keeps its last plan's row/attribute ordering
  while a fresh execution may re-plan under the drifted statistics);
* **byte-exact fresh execution on every frame step** — whenever a
  ``diff`` or ``resync`` frame arrived, the view just re-executed, so
  the folded rows must equal the fresh execution byte for byte;
* frame versions are monotone per subscription.

A fraction of schedules enable dynamic rules, so mutation-driven rule
churn exercises the re-optimize + ``resync`` path alongside the
incremental diff path.

Determinism and reproduction follow the mutation oracle:

* the base seed comes from ``REPRO_ORACLE_SEED`` (defaults pinned);
* ``REPRO_ORACLE_SCHEDULES`` overrides the per-engine schedule count
  (defaults: 80 row-wise, 80 vectorized — 160 total);
* on failure the mutation schedule is **shrunk** greedily to a minimal
  failing op list and printed together with the seed.

Ops are abstract (targets picked by index into the live OID set at
apply time), so any subsequence of a schedule is itself a valid
schedule — the property that makes shrinking sound.
"""

import json
import os
import random

import pytest

from repro.constraints import ConstraintRepository
from repro.data import build_evaluation_constraints
from repro.engine import ObjectStore
from repro.query import parse_query
from repro.service import OptimizationService

SEED = int(os.environ.get("REPRO_ORACLE_SEED", "19910408"))

#: Schedules per engine; REPRO_ORACLE_SCHEDULES overrides the base.
SCHEDULES = {
    "rowwise": int(os.environ.get("REPRO_ORACLE_SCHEDULES", "80")),
    "vectorized": int(os.environ.get("REPRO_ORACLE_SCHEDULES", "80")),
}

QUERY_TEXTS = [
    '(SELECT {cargo.code, cargo.quantity} { } {cargo.quantity >= 30} { } {cargo})',
    '(SELECT {cargo.code} { } {cargo.desc = "frozen food"} { } {cargo})',
    '(SELECT {vehicle.vehicle_no} { } {vehicle.class >= 2} { } {vehicle})',
    '(SELECT {cargo.code, vehicle.desc} { } '
    '{vehicle.desc = "refrigerated truck"} {collects} {cargo, vehicle})',
    '(SELECT {supplier.name, cargo.code} { } {cargo.quantity >= 10} '
    '{supplies} {supplier, cargo})',
    '(SELECT {supplier.name, cargo.code, vehicle.vehicle_no} { } '
    '{supplier.rating >= 2} {supplies, collects} {supplier, cargo, vehicle})',
]

DESCS = ["frozen food", "textiles", "machinery"]
VEHICLE_DESCS = ["refrigerated truck", "van", "tanker"]


def _dump(rows):
    """Byte form of a row list — no key sorting, attribute order counts."""
    return json.dumps(rows, separators=(",", ":"), default=repr)


def _canon(rows):
    """Order-insensitive form: the multiset of canonicalized rows."""
    return sorted(
        json.dumps(row, separators=(",", ":"), sort_keys=True, default=repr)
        for row in rows
    )


def _base_rows(rng):
    """The deterministic seed data of one schedule (inserted pre-subscribe)."""
    rows = []
    supplier_count = rng.randint(2, 4)
    vehicle_count = rng.randint(2, 5)
    cargo_count = rng.randint(6, 14)
    for i in range(supplier_count):
        rows.append(
            ("supplier", {"name": f"S{i}", "region": "west", "rating": 1 + i % 4})
        )
    for i in range(vehicle_count):
        rows.append(
            (
                "vehicle",
                {
                    "vehicle_no": f"V{i}",
                    "desc": VEHICLE_DESCS[i % len(VEHICLE_DESCS)],
                    "class": 1 + i % 4,
                    "capacity": 1000 * (1 + i % 3),
                },
            )
        )
    for i in range(cargo_count):
        values = {
            "code": f"C{i}",
            "desc": DESCS[i % len(DESCS)],
            "quantity": rng.randint(5, 90),
            "category": "general",
        }
        if supplier_count:
            values["supplies"] = 1 + i % supplier_count
        if vehicle_count:
            values["collects"] = 1 + i % vehicle_count
        rows.append(("cargo", values))
    return rows


def _write_op(rng):
    kind = rng.choices(["insert", "update", "delete", "tweak"], weights=[30, 30, 15, 10])[0]
    if kind == "insert":
        return (
            "insert",
            "cargo",
            {
                "code": f"N{rng.randint(0, 999)}",
                "desc": rng.choice(DESCS),
                "quantity": rng.randint(5, 120),
                "category": "general",
            },
        )
    if kind == "update":
        return ("update", "cargo", rng.randrange(64), {"quantity": rng.randint(5, 120)})
    if kind == "delete":
        return ("delete", "cargo", rng.randrange(64))
    # "tweak": a write on a non-cargo class, so multi-class views see
    # deltas on their other scan classes too.
    if rng.random() < 0.5:
        return ("update", "supplier", rng.randrange(64), {"rating": rng.randint(1, 4)})
    return ("update", "vehicle", rng.randrange(64), {"class": rng.randint(1, 4)})


def _build_schedule(rng, subscription_count):
    """Abstract post-subscribe ops; valid in full or any subsequence.

    Each top-level op triggers exactly one pump + fold + compare, so a
    ``batch`` op (2-4 writes, one pump) exercises multi-record journal
    batches and the candidate-set bookkeeping across them.
    """
    ops = []
    for _ in range(rng.randint(6, 12)):
        kind = rng.choices(["write", "batch", "unsubscribe"], weights=[70, 22, 8])[0]
        if kind == "write":
            ops.append(("write", _write_op(rng)))
        elif kind == "batch":
            ops.append(("batch", [_write_op(rng) for _ in range(rng.randint(2, 4))]))
        else:
            ops.append(("unsubscribe", rng.randrange(subscription_count)))
    # End on a write so the tail of the stream is always observed.
    ops.append(("write", _write_op(rng)))
    return ops


class _Mismatch(AssertionError):
    """A folded diff stream diverged from fresh execution."""


_REPOSITORY_CACHE = {}


def _repository(schema):
    """One precompiled static repository shared per schema (read-only)."""
    key = id(schema)
    repository = _REPOSITORY_CACHE.get(key)
    if repository is None:
        repository = ConstraintRepository(schema)
        repository.add_all(build_evaluation_constraints())
        repository.precompile()
        _REPOSITORY_CACHE[key] = repository
    return repository


class _Consumer:
    """Client-side fold state of one subscription's push stream."""

    def __init__(self, query, options, snapshot):
        self.query = query
        self.options = options
        self.rows = [dict(row) for row in snapshot["rows"]]
        self.version = snapshot["version"]
        self.subscription = snapshot["subscription"]
        self.frames = 0

    def fold(self, frame):
        from repro.subscriptions import apply_changes

        self.frames += 1
        if frame["push"] == "diff":
            if frame["version"] <= self.version:
                raise _Mismatch(
                    f"{self.subscription}: diff frame version {frame['version']} "
                    f"not past folded version {self.version}"
                )
            self.rows = apply_changes(self.rows, frame["changes"])
        elif frame["push"] == "resync":
            if frame["version"] < self.version:
                raise _Mismatch(
                    f"{self.subscription}: resync frame went backwards "
                    f"({frame['version']} < {self.version})"
                )
            self.rows = [dict(row) for row in frame["rows"]]
        else:  # pragma: no cover - the registry only builds these two
            raise _Mismatch(f"unknown push kind {frame['push']!r}")
        self.version = frame["version"]


def _run_schedule(schema, queries, engine, rng_seed, ops):
    """Apply ``ops``; raise :class:`_Mismatch` on the first divergence."""
    rng = random.Random(rng_seed)
    shard_count = rng.choice([1, 2, 3]) if engine != "rowwise" else rng.choice([1, 3])
    dynamic = rng.random() < 0.3
    store = ObjectStore(schema, shard_count=shard_count)
    if dynamic:
        # Dynamic rules mutate the repository (replace_derived), so these
        # schedules get a private one — the shared cache stays read-only.
        repository = ConstraintRepository(schema)
        repository.add_all(build_evaluation_constraints())
        repository.precompile()
    else:
        repository = _repository(schema)
    service = OptimizationService(
        schema,
        repository=repository,
        store=store,
        execution_mode=engine,
    )
    try:
        for class_name, values in _base_rows(rng):
            service.mutate("insert", class_name, values=values)
        if dynamic:
            # Mutation-driven rule churn → the resync path gets exercised.
            service.enable_dynamic_rules(class_names=["cargo"])
        registry = service.subscription_registry()
        frames = []
        consumers = []
        chosen = rng.sample(range(len(QUERY_TEXTS)), rng.randint(4, 6))
        for query_index in chosen:
            query = queries[query_index]
            options = {"optimize": rng.random() >= 0.2}
            snapshot = registry.subscribe(
                query, options=dict(options), emit=frames.append
            )
            consumers.append(_Consumer(query, options, snapshot))

        def apply_write(op):
            if op[0] == "insert":
                service.mutate("insert", op[1], values=op[2])
                return
            live = [instance.oid for instance in store.instances(op[1])]
            if not live:
                return  # nothing to target; degrades to a no-op
            oid = live[op[2] % len(live)]
            if op[0] == "update":
                service.mutate("update", op[1], oid=oid, values=op[3])
            else:
                service.mutate("delete", op[1], oid=oid)

        live = {consumer.subscription: consumer for consumer in consumers}

        def check(step):
            # Route this pump's frames to their consumers, in emit order.
            framed = set()
            while frames:
                frame = frames.pop(0)
                consumer = live.get(frame["subscription"])
                if consumer is not None:
                    consumer.fold(frame)
                    framed.add(frame["subscription"])
            for sid, consumer in live.items():
                view = registry._views.get(sid)
                if view is not None and _dump(consumer.rows) != _dump(view.rows):
                    raise _Mismatch(
                        f"step {step}: {sid} ({consumer.query.name}) folded "
                        f"rows drifted from the standing view's rows after "
                        f"{consumer.frames} frames"
                    )
                fresh = service.execute(
                    consumer.query, optimize=consumer.options["optimize"]
                ).execution.rows
                if _canon(consumer.rows) != _canon(fresh):
                    raise _Mismatch(
                        f"step {step}: {sid} ({consumer.query.name}) folded "
                        f"rows diverged from fresh execution: "
                        f"{len(consumer.rows)} folded vs {len(fresh)} fresh "
                        f"after {consumer.frames} frames"
                    )
                if sid in framed and _dump(consumer.rows) != _dump(fresh):
                    raise _Mismatch(
                        f"step {step}: {sid} ({consumer.query.name}) frame "
                        f"step not byte-identical to fresh execution "
                        f"({consumer.frames} frames folded)"
                    )

        for step, op in enumerate(ops):
            if op[0] == "write":
                apply_write(op[1])
            elif op[0] == "batch":
                for write in op[1]:
                    apply_write(write)
            else:  # unsubscribe
                target = consumers[op[1] % len(consumers)]
                if target.subscription in live:
                    registry.unsubscribe(target.subscription)
                    del live[target.subscription]
            registry.pump()
            check(step)
    finally:
        service.close()


def _shrink(schema, queries, engine, rng_seed, ops):
    """Greedily drop ops while the schedule still fails (minimal repro)."""

    def fails(candidate):
        try:
            _run_schedule(schema, queries, engine, rng_seed, candidate)
        except _Mismatch:
            return True
        return False

    current = list(ops)
    changed = True
    while changed:
        changed = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1 :]
            if candidate and fails(candidate):
                current = candidate
                changed = True
                break
    return current


#: Stable per-engine seed offsets (tuple hashes are not stable across
#: interpreter runs, so the seed is derived arithmetically).
_ENGINE_OFFSET = {"rowwise": 0, "vectorized": 1}


def _seed_for(engine, index):
    return SEED + 7919 * index + 104729 * _ENGINE_OFFSET[engine]


@pytest.mark.parametrize("engine", ["rowwise", "vectorized"])
def test_diff_streams_fold_to_fresh_execution(evaluation_schema, engine):
    schema = evaluation_schema
    queries = [
        parse_query(text, name=f"sub-oracle-{index}")
        for index, text in enumerate(QUERY_TEXTS)
    ]
    for query in queries:
        query.validate(schema)
    failures = []
    for index in range(SCHEDULES[engine]):
        seed = _seed_for(engine, index)
        rng = random.Random(seed)
        # 6 is only the upper bound for unsubscribe indexes; the runner
        # mods them by the actual consumer count.
        schedule = _build_schedule(rng, subscription_count=6)
        try:
            _run_schedule(schema, queries, engine, seed, schedule)
        except _Mismatch as exc:
            minimal = _shrink(schema, queries, engine, seed, schedule)
            failures.append(
                f"schedule #{index} (REPRO_ORACLE_SEED={SEED}, engine={engine}): "
                f"{exc}\n  minimal repro ({len(minimal)} ops): {minimal}"
            )
            break  # one shrunk repro is worth more than a failure flood
    assert not failures, "\n".join(failures)
