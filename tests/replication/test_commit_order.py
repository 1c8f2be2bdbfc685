"""The commit path's order, pinned: local disk before any replica.

Under ``--wal-fsync always`` a write is flushed and fsynced inside the
durability manager's ``commit()``.  Until that call has returned, no
replica may have been handed a frame of the write — otherwise a replica
could apply and serve a row the primary loses in a crash.  The test wraps
``os.fsync`` and ``commit`` to read, at those exact moments, how many
frames the feed has queued for its replicas.
"""

import asyncio
import os

import pytest


def _row(index):
    return {"code": f"ORD{index}", "desc": "frozen food", "quantity": 10 + index,
            "category": "general", "collects": 1}


@pytest.mark.parametrize("shard_count", [1, 2])
@pytest.mark.parametrize("rows", [1, 3], ids=["insert", "insert_many"])
def test_no_replica_is_handed_a_frame_before_its_commit_returned(
    make_harness, tmp_path, monkeypatch, shard_count, rows
):
    async def scenario():
        harness = make_harness(shard_count=shard_count, data_dir=tmp_path)
        await harness.start()
        await harness.add_replica()

        def queued():
            return harness.feed.status()["frames_streamed"]

        moments = []
        real_fsync, real_commit = os.fsync, harness.manager.commit

        def fsync(fd):
            moments.append(("fsync", queued()))
            return real_fsync(fd)

        def commit():
            result = real_commit()
            moments.append(("commit returned", queued()))
            return result

        try:
            before = queued()
            monkeypatch.setattr(os, "fsync", fsync)
            monkeypatch.setattr(harness.manager, "commit", commit)
            if rows == 1:
                result = harness.service.mutate("insert", "cargo", values=_row(0))
            else:
                result = harness.service.mutate(
                    "insert_many", "cargo", rows=[_row(i) for i in range(rows)]
                )
            recorded, after = list(moments), queued()
            await harness.wait_applied()
            return before, recorded, after, result
        finally:
            await harness.stop()

    before, moments, after, result = asyncio.run(scenario())
    assert result.durability["fsynced"] is True
    kinds = [kind for kind, _ in moments]
    assert "fsync" in kinds and kinds[-1] == "commit returned"
    # Up to and including the moment commit() returned: nothing queued.
    assert [count for _, count in moments] == [before] * len(moments)
    # ...and by the time the write returned, every frame was (one replica).
    assert after == before + rows
