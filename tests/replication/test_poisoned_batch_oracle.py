"""Poisoned-batch oracle: a refused batch is a batch that was never sent.

Two identical worlds — a durable primary (fsync ``always``), one follower
over a real socket, one standing view, dynamic rules on — receive the same
seeded good batches.  World A additionally receives poisoned batches: 1–8
ops with one op that cannot apply (malformed pointer, wrong-typed indexed
value, unknown OID, delete-then-update, double delete) at every position,
through ``service.mutate_many`` and over the wire as ``insert_many``.
Every one must be refused, and after every one A must be indistinguishable
from the twin that never received it: snapshot bytes, versions, journal,
WAL directory bytes, what the feed queued for the follower, the view's
frames, the rule set and its generation, the durability counters; the
followers' stores at every point both have caught up; and, at the end,
what a recovery of each data directory rebuilds.
"""

import asyncio
import json
import os
import random

import pytest

from repro.durability import recover
from repro.engine.storage import StorageError
from repro.query import parse_query
from repro.server import QueryGateway

SEED = 240917
VIEW = '(SELECT {cargo.code, cargo.quantity} { } {cargo.quantity >= 120} { } {cargo})'
MAX_OPS = 8


def _row(rng, tag):
    return {"code": tag, "desc": "frozen food", "quantity": rng.randint(60, 400),
            "category": "general", "collects": 1}


class _World:
    """One primary + follower + view; ``state()`` is everything compared."""

    def __init__(self, harness, data_dir):
        self.harness = harness
        self.data_dir = str(data_dir)
        self.frames = []
        self.view = parse_query(VIEW)

    async def start(self):
        harness = self.harness
        await harness.start()
        self.follower, _, _ = await harness.add_replica()
        harness.service.enable_dynamic_rules(class_names=["cargo"])
        harness.service.subscription_registry().subscribe(
            self.view, emit=self.frames.append
        )

    def wal_bytes(self):
        wal_dir = os.path.join(self.data_dir, "wal")
        files = {}
        for name in sorted(os.listdir(wal_dir)):
            with open(os.path.join(wal_dir, name), "rb") as handle:
                files[name] = handle.read()
        return files

    def state(self):
        service, store = self.harness.service, self.harness.store
        repository = service.repository
        durability = service.stats().durability
        return {
            "snapshot": json.dumps(
                [store.snapshot_header(), list(store.snapshot_rows())]
            ),
            "version": store.version,
            "shard_versions": store.shard_versions(),
            "journal": [
                record.as_dict()
                for record in store.journal_since(store.journal_floor)
            ],
            "wal": self.wal_bytes(),
            "wal_counters": (durability["wal_frames"], durability["wal_commits"]),
            "feed_queued": self.harness.feed.status()["frames_streamed"],
            "view_frames": json.dumps(self.frames),
            "generation": repository.generation,
            "rules": sorted(c.name for c in repository.declared()),
            "cache_epoch": service._cache_epoch(self.view),
            "mutations_applied": service.stats().mutations_applied,
        }


def _good_ops(rng, store, count, tag, spare=()):
    """``count`` ops that apply cleanly, in any order, leaving ``spare`` alone."""
    live = [i.oid for i in store.instances("cargo") if i.oid not in spare]
    targets = rng.sample(live, min(len(live), count))
    ops = []
    for index in range(count):
        if targets and rng.random() < 0.4:
            ops.append({"op": "update", "class_name": "cargo", "oid": targets.pop(),
                        "values": {"quantity": rng.randint(60, 400)}})
        else:
            ops.append({"op": "insert", "class_name": "cargo",
                        "values": _row(rng, f"{tag}-{index}")})
    return ops


#: kind -> (the op that cannot apply, whether an earlier delete sets it up)
_POISONS = {
    "malformed_pointer": lambda victim: (
        {"op": "insert", "class_name": "cargo", "values": {"collects": "not an oid"}},
        False,
    ),
    "wrong_typed_indexed_value": lambda victim: (
        {"op": "update", "class_name": "cargo", "oid": victim, "values": {"code": 7}},
        False,
    ),
    "unknown_oid": lambda victim: (
        {"op": "delete", "class_name": "cargo", "oid": 10_000 + victim},
        False,
    ),
    "delete_then_update": lambda victim: (
        {"op": "update", "class_name": "cargo", "oid": victim,
         "values": {"quantity": 1}},
        True,
    ),
    "double_delete": lambda victim: (
        {"op": "delete", "class_name": "cargo", "oid": victim},
        True,
    ),
}


def _poisoned_batch(rng, store, size, position, kind, tag):
    victim = rng.choice([i.oid for i in store.instances("cargo")])
    poison, needs_delete = _POISONS[kind](victim)
    ops = _good_ops(rng, store, size, tag, spare={victim})
    ops[position] = poison
    if needs_delete:
        # A perfectly good delete somewhere before the op it poisons.
        ops[rng.randrange(position)] = {
            "op": "delete", "class_name": "cargo", "oid": victim,
        }
    return ops


def _trials():
    """Every (size, position) once, the kinds rotating over them."""
    anywhere = ["malformed_pointer", "wrong_typed_indexed_value", "unknown_oid"]
    after_first = anywhere + ["delete_then_update", "double_delete"]
    turn = 0
    for size in range(1, MAX_OPS + 1):
        for position in range(size):
            kinds = after_first if position else anywhere
            yield size, position, kinds[turn % len(kinds)]
            turn += 1


def _assert_twins(a, b, context):
    state_a, state_b = a.state(), b.state()
    for key in state_a:
        assert state_a[key] == state_b[key], f"{context}: {key} differs from the twin"


async def _lockstep(worlds, state_fingerprint, context):
    """Both followers caught up; then the worlds (followers included) agree."""
    for world in worlds:
        await world.harness.wait_applied()
    a, b = worlds
    _assert_twins(a, b, context)
    assert state_fingerprint(a.follower._store) == state_fingerprint(
        b.follower._store
    ), f"{context}: follower store differs from the twin's"


def test_refused_batches_leave_no_trace(make_harness, state_fingerprint, tmp_path):
    async def scenario():
        worlds = [
            _World(make_harness(shard_count=2, data_dir=tmp_path / name),
                   tmp_path / name)
            for name in ("poisoned", "twin")
        ]
        a, b = worlds
        gateway = None
        try:
            for world in worlds:
                await world.start()
            gateway = QueryGateway(a.harness.service)
            rng = random.Random(SEED)
            kinds_seen = set()
            for trial, (size, position, kind) in enumerate(_trials()):
                if trial % 4 == 0:
                    # The same good batch to both, so the state under test
                    # keeps moving (rows, rule bounds, view frames, WAL).
                    seed = rng.random()
                    for world in worlds:
                        world.harness.service.mutate_many(
                            _good_ops(random.Random(seed), world.harness.store,
                                      3, f"g{trial}")
                        )
                    await _lockstep(worlds, state_fingerprint, f"good batch {trial}")
                context = f"trial {trial}: {kind} at {position} of {size}"
                batch = _poisoned_batch(
                    rng, a.harness.store, size, position, kind, f"p{trial}"
                )
                with pytest.raises(StorageError):
                    a.harness.service.mutate_many(batch)
                _assert_twins(a, b, context)
                kinds_seen.add(kind)

                # The same position over the wire, as insert_many.
                rows = [_row(rng, f"w{trial}-{i}") for i in range(size)]
                rows[position] = (
                    {"collects": "not an oid"} if trial % 2 else {"code": 7}
                )
                response = await gateway.dispatch(
                    {"id": trial, "op": "insert_many", "class": "cargo", "rows": rows}
                )
                assert response["ok"] is False, context
                assert response["error"]["code"] == "mutation_error", context
                _assert_twins(a, b, context + " (wire)")
            assert kinds_seen == set(_POISONS)
            await _lockstep(worlds, state_fingerprint, "end of schedule")
            assert a.frames, "the schedule never moved the standing view"

            # Kill-and-recover: what is on disk rebuilds the twin, too.
            recovered = []
            for world in worlds:
                store, report = recover(world.data_dir, world.harness.schema)
                assert report.clean, report.as_dict()
                recovered.append(state_fingerprint(store))
            assert recovered[0] == recovered[1]
            assert recovered[0] == state_fingerprint(b.harness.store)
        finally:
            if gateway is not None:
                await gateway.stop()
            for world in worlds:
                await world.harness.stop()

    asyncio.run(scenario())
