"""Feed ↔ follower sync: bootstrap, live tail, acks, and resync paths.

Pins the replication wire contract end to end over real sockets:

* a bootstrap snapshot rebuilds the primary store **byte-identically**
  (rows with attribute order, per-shard version counters, OID
  allocators);
* live mutation records apply through ``apply_journal`` and are acked,
  so the primary reports zero lag once a replica catches up;
* a dropped connection resyncs with a ``tail`` when the primary's
  journal still bridges the gap, and falls back to a full ``snapshot``
  resync when it does not (journal overflow) or when the feed epoch
  changed (restarted primary) — never a silent gap.
"""

import asyncio

from repro.replication import ReplicationFeed


def test_bootstrap_snapshot_is_byte_identical(make_harness, state_fingerprint):
    async def scenario():
        harness = make_harness()
        await harness.start()
        follower, _, replica_store = await harness.add_replica()
        try:
            assert follower.last_sync_mode == "snapshot"
            return state_fingerprint(harness.store), state_fingerprint(replica_store)
        finally:
            await harness.stop()

    primary, replica = asyncio.run(scenario())
    assert primary == replica


def test_live_tail_applies_and_acks(make_harness, state_fingerprint):
    async def scenario():
        harness = make_harness()
        await harness.start()
        follower, _, replica_store = await harness.add_replica()
        try:
            harness.service.mutate(
                "insert", "cargo",
                values={"code": "T1", "desc": "frozen food", "quantity": 7,
                        "category": "general", "collects": 1},
            )
            harness.service.mutate(
                "update", "cargo", oid=1, values={"quantity": 555}
            )
            harness.service.mutate("delete", "cargo", oid=2)
            await harness.wait_applied()
            await harness.wait_acked()
            status = harness.feed.status()
            assert status["replicas"][0]["lag"] == 0
            assert follower.records_applied == 3
            assert follower.status()["connected"]
            return state_fingerprint(harness.store), state_fingerprint(replica_store)
        finally:
            await harness.stop()

    primary, replica = asyncio.run(scenario())
    assert primary == replica


def test_reconnect_bridges_with_a_tail_sync(make_harness, state_fingerprint):
    async def scenario():
        harness = make_harness()
        await harness.start()
        follower, _, _ = await harness.add_replica()
        try:
            harness.service.mutate(
                "insert", "cargo", values={"desc": "before drop"}
            )
            await harness.wait_applied()
            # Sever the feed connection under the follower; the writes
            # issued while it is down are exactly the journal tail the
            # reconnect handshake must bridge.
            follower._writer.close()
            for i in range(5):
                harness.service.mutate(
                    "insert", "cargo", values={"desc": f"during drop {i}"}
                )
            await harness.wait_applied()
            assert follower.last_sync_mode == "tail"
            assert follower.resyncs == 0  # no snapshot was shipped
            # The follower kept its original store object across the drop.
            return (
                state_fingerprint(harness.store),
                state_fingerprint(follower._store),
            )
        finally:
            await harness.stop()

    primary, replica = asyncio.run(scenario())
    assert primary == replica


def test_journal_gap_forces_snapshot_resync(make_harness, state_fingerprint):
    # A tiny primary journal and a tiny feed queue: a burst of writes in
    # one event-loop turn overflows the subscriber (which must be
    # disconnected, never skipped ahead) and outruns the journal, so the
    # reconnect can only be satisfied by a full snapshot.
    async def scenario():
        harness = make_harness(journal_limit=4, queue_limit=3)
        await harness.start()
        follower, _, _ = await harness.add_replica()
        try:
            # Synchronous burst: the loop never yields, so the feed's
            # pump cannot drain between frames — deterministic overflow.
            for i in range(12):
                harness.service.mutate(
                    "insert", "cargo", values={"desc": f"burst {i}"}
                )
            await harness.wait_applied()
            assert follower.resyncs >= 1
            assert follower.last_sync_mode == "snapshot"
            assert harness.feed.status()["disconnects"] >= 1
            return (
                state_fingerprint(harness.store),
                state_fingerprint(follower._store),
            )
        finally:
            await harness.stop()

    primary, replica = asyncio.run(scenario())
    assert primary == replica


def test_queue_overflow_during_inflight_snapshot_sync(
    make_harness, state_fingerprint
):
    # The subscriber is registered *inside* the capture, before the
    # snapshot payload ships — so a write burst landing while the
    # snapshot is still in flight queues against a subscriber whose
    # pump has not started yet.  With a tiny queue the burst overflows
    # mid-handshake: the feed must still ship the complete snapshot,
    # then disconnect (never skip), and the follower must resync to
    # byte-identical state.
    async def scenario():
        # Thousands of snapshot rows keep the handshake in flight long
        # enough to observe; journal_limit=4 forces the post-overflow
        # reconnect onto the snapshot path.
        harness = make_harness(journal_limit=4, queue_limit=3, cargo_rows=4000)
        await harness.start()
        task = asyncio.ensure_future(harness.add_replica())
        try:
            # Registration happens inside the capture's read span, so a
            # non-empty replica list means the sync is under way.
            while not harness.feed.status()["replicas"]:
                await asyncio.sleep(0.001)
            # Synchronous burst on the loop thread: neither the
            # handshake coroutine nor a pump can drain between frames —
            # deterministic overflow, whatever phase the sync is in.
            for i in range(12):
                harness.service.mutate(
                    "insert", "cargo", values={"desc": f"mid-sync {i}"}
                )
            follower, _, _ = await task
            await harness.wait_applied()
            assert harness.feed.status()["disconnects"] >= 1
            assert follower.resyncs >= 1
            assert follower.last_sync_mode == "snapshot"
            return (
                state_fingerprint(harness.store),
                state_fingerprint(follower._store),
            )
        finally:
            await harness.stop()

    primary, replica = asyncio.run(scenario())
    assert primary == replica


def test_epoch_change_forces_snapshot_resync(make_harness, state_fingerprint):
    # A restarted primary process has a fresh feed epoch; a follower
    # carrying the old epoch must full-resync even if its version looks
    # bridgeable, because journal sequence numbers restarted with it.
    async def scenario():
        harness = make_harness()
        await harness.start()
        follower, _, _ = await harness.add_replica()
        try:
            old_port = harness.feed.port
            await harness.feed.stop()
            replacement = ReplicationFeed(harness.service, port=old_port)
            await replacement.start()
            harness.feed = replacement
            harness.service.mutate(
                "insert", "cargo", values={"desc": "new epoch"}
            )
            await harness.wait_applied()
            assert follower.resyncs >= 1
            assert follower.last_sync_mode == "snapshot"
            assert follower.epoch == replacement.epoch
            return (
                state_fingerprint(harness.store),
                state_fingerprint(follower._store),
            )
        finally:
            await harness.stop()

    primary, replica = asyncio.run(scenario())
    assert primary == replica
