"""Durability: write-ahead logging, snapshots, and crash recovery.

Everything the live mutation path writes survives the process here.
:class:`DurabilityManager` is the only class most callers need — it owns
a data directory, appends every store mutation to per-shard WAL segments
(:mod:`.wal`), periodically compacts them into atomic snapshots
(:mod:`.snapshot`), and rebuilds the exact pre-crash store on startup
(:mod:`.recovery`).  The on-disk unit throughout is a checksummed NDJSON
frame (:mod:`.frames`), the same line-oriented encoding the TCP gateway
speaks.
"""

from .frames import FrameError, checksum, decode_frame, encode_frame
from .manager import DurabilityManager
from .recovery import RecoveryReport, recover
from .snapshot import (
    SnapshotError,
    list_snapshots,
    load_snapshot,
    prune_snapshots,
    write_snapshot,
)
from .wal import FSYNC_POLICIES, FrameIssue, WriteAheadLog, read_segment

__all__ = [
    "FSYNC_POLICIES",
    "DurabilityManager",
    "FrameError",
    "FrameIssue",
    "RecoveryReport",
    "SnapshotError",
    "WriteAheadLog",
    "checksum",
    "decode_frame",
    "encode_frame",
    "list_snapshots",
    "load_snapshot",
    "prune_snapshots",
    "read_segment",
    "recover",
    "write_snapshot",
]
