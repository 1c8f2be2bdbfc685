"""Per-shard write-ahead log segments.

The WAL directory holds one *segment* file per store shard, named
``shard-{shard:03d}.{base:012d}.ndjson`` where ``base`` is the store
version the segment starts after: every record frame in the segment has
``seq > base``.  All shards share the same base, which advances only at
snapshot time (:meth:`WriteAheadLog.rotate`) — a snapshot makes every
older frame redundant, so rotation deletes the superseded segments
outright rather than truncating in place.

Each segment starts with a ``{"kind": "segment", ...}`` header frame and
then carries one ``{"kind": "record", ...}`` frame per mutation, in the
order the shard received them.  Frames are checksummed NDJSON lines
(:mod:`.frames`); the global mutation order is recovered by merging the
per-shard streams on ``seq``.

Write path and fsync batching
-----------------------------
:meth:`append` buffers a frame into the segment's stdio buffer;
:meth:`commit` — called once per service mutation batch, under the
store's write lock — flushes every dirty segment to the OS and then
applies the fsync policy:

``always``
    fsync every commit.  Maximum durability, one disk flush per batch.
``batch``
    fsync every ``fsync_interval`` commits (group commit).  A crash can
    lose at most the un-fsynced tail, which recovery detects as a torn
    or missing suffix.
``off``
    never fsync on commit (benchmarking baseline).  :meth:`flush` — the
    drain/shutdown path — still fsyncs unconditionally.

The Python-level flush in every commit is load-bearing beyond
durability: a parallel executor forks workers while holding the read
lock, mutually exclusive with the write lock this runs under, so a
child process never inherits half-buffered WAL bytes it could later
double-write.

Fork safety
-----------
The log records its owning PID at construction and every mutating
method is a no-op in any other process.  Forked pool workers inherit
the store — and with it the mutation sink — but only the parent may
touch the segment files.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .frames import FrameError, decode_frame, encode_frame

__all__ = [
    "FSYNC_POLICIES",
    "FrameIssue",
    "WriteAheadLog",
    "parse_segment_name",
    "purge_segments",
    "read_segment",
    "segment_name",
]

#: Accepted values for the ``fsync_policy`` knob (see module docstring).
FSYNC_POLICIES = ("always", "batch", "off")

_SEGMENT_RE = re.compile(r"^shard-(\d{3})\.(\d{12})\.ndjson$")


def segment_name(shard: int, base: int) -> str:
    """The on-disk file name for ``shard``'s segment starting after ``base``."""
    return f"shard-{shard:03d}.{base:012d}.ndjson"


def parse_segment_name(name: str) -> Optional[Tuple[int, int]]:
    """``(shard, base)`` for a segment file name, or ``None`` if foreign."""
    match = _SEGMENT_RE.match(name)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2))


def purge_segments(directory: str) -> List[str]:
    """Delete every segment file in ``directory``; returns deleted paths.

    Only valid once a snapshot has made all existing segments redundant:
    at rotation, and when a manager opens over a recovered data dir.
    The open-time purge is load-bearing, not housekeeping — recovery may
    have discarded intact frames stranded past a sequence gap, and new
    writes re-use those seqs, so a stale segment left on disk until the
    next rotation could shadow the acked frames in a second recovery.
    """
    deleted: List[str] = []
    if not os.path.isdir(directory):
        return deleted
    for name in sorted(os.listdir(directory)):
        if parse_segment_name(name) is not None:
            path = os.path.join(directory, name)
            os.unlink(path)
            deleted.append(path)
    return deleted


@dataclass(frozen=True)
class FrameIssue:
    """One defective frame found while scanning a segment.

    ``reason`` is a stable :class:`~.frames.FrameError` code (``torn``,
    ``invalid-json``, ``missing-crc``, ``checksum-mismatch``) or the
    scanner's own ``bad-header`` / ``bad-record``; ``line_number`` is
    1-based.  Scanning stops at the first issue — everything after an
    unreadable frame in the same segment is untrusted and discarded.
    """

    file: str
    line_number: int
    reason: str
    detail: str = ""


def _iter_raw_lines(data: bytes):
    """Yield ``(raw_line, terminated)`` pairs, keeping the newline."""
    start = 0
    while start < len(data):
        index = data.find(b"\n", start)
        if index == -1:
            yield data[start:], False
            return
        yield data[start : index + 1], True
        start = index + 1


def read_segment(path: str) -> Tuple[List[Dict[str, Any]], Optional[FrameIssue]]:
    """Scan one segment, returning its intact frames and the first defect.

    Returns every frame up to (excluding) the first defective line; the
    defect — if any — is described by the returned :class:`FrameIssue`.
    A clean segment returns ``(frames, None)``.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    name = os.path.basename(path)
    frames: List[Dict[str, Any]] = []
    for line_number, (raw, terminated) in enumerate(_iter_raw_lines(data), 1):
        if not terminated:
            return frames, FrameIssue(
                name, line_number, "torn", f"{len(raw)} trailing bytes"
            )
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return frames, FrameIssue(name, line_number, "invalid-json", str(exc))
        try:
            frames.append(decode_frame(text))
        except FrameError as exc:
            return frames, FrameIssue(
                name, line_number, exc.reason, str(exc)
            )
    return frames, None


class WriteAheadLog:
    """Appender over the per-shard segment files of one WAL directory."""

    def __init__(
        self,
        directory: str,
        shard_count: int,
        base_version: int,
        fsync_policy: str = "batch",
        fsync_interval: int = 8,
    ) -> None:
        if fsync_policy not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync_policy must be one of {FSYNC_POLICIES}, "
                f"got {fsync_policy!r}"
            )
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        if fsync_interval < 1:
            raise ValueError(
                f"fsync_interval must be >= 1, got {fsync_interval}"
            )
        self.directory = directory
        self.shard_count = shard_count
        self.fsync_policy = fsync_policy
        self.fsync_interval = fsync_interval
        self.base_version = base_version
        self.appended_frames = 0
        self.committed_batches = 0
        self.fsync_count = 0
        self._pid = os.getpid()
        self._handles: List[Any] = []
        self._dirty = [False] * shard_count
        self._unsynced = [False] * shard_count
        self._commits_since_fsync = 0
        os.makedirs(directory, exist_ok=True)
        self._open_segments(base_version)

    # ------------------------------------------------------------------
    # Segment lifecycle
    # ------------------------------------------------------------------
    def _open_segments(self, base_version: int) -> None:
        self.base_version = base_version
        self._handles = []
        for shard in range(self.shard_count):
            path = os.path.join(
                self.directory, segment_name(shard, base_version)
            )
            handle = open(path, "a", encoding="utf-8", newline="\n")
            if handle.tell() == 0:
                handle.write(
                    encode_frame(
                        {
                            "kind": "segment",
                            "shard": shard,
                            "base": base_version,
                        }
                    )
                )
            handle.flush()
            os.fsync(handle.fileno())
            self._handles.append(handle)
        self._fsync_directory()
        self._dirty = [False] * self.shard_count
        self._unsynced = [False] * self.shard_count
        self._commits_since_fsync = 0

    def _fsync_directory(self) -> None:
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def rotate(self, base_version: int) -> None:
        """Start fresh segments after a snapshot at ``base_version``.

        Every existing segment is superseded (all its records have
        ``seq <= base_version``, covered by the snapshot) and deleted.
        """
        if os.getpid() != self._pid:
            return
        for handle in self._handles:
            handle.flush()
            handle.close()
        purge_segments(self.directory)
        self.appended_frames = 0
        self._open_segments(base_version)

    def close(self) -> None:
        if os.getpid() != self._pid or not self._handles:
            return
        self.flush()
        for handle in self._handles:
            handle.close()
        self._handles = []

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def append(self, shard: int, record: Dict[str, Any]) -> None:
        """Buffer one mutation record frame into ``shard``'s segment.

        Callers must hold the store's write lock; the frame becomes
        crash-durable only per the fsync policy at the next
        :meth:`commit`.
        """
        if os.getpid() != self._pid:
            return
        self._handles[shard].write(encode_frame(dict(record, kind="record")))
        self._dirty[shard] = True
        self.appended_frames += 1

    def commit(self) -> Dict[str, Any]:
        """Flush buffered frames to the OS; fsync per policy.

        Returns ``{"fsynced": bool, "pending_fsync": int}`` — whether
        this commit reached stable storage and how many commits are
        still riding on the next group fsync.
        """
        if os.getpid() != self._pid:
            return {"fsynced": False, "pending_fsync": 0}
        for shard, dirty in enumerate(self._dirty):
            if dirty:
                self._handles[shard].flush()
                self._unsynced[shard] = True
                self._dirty[shard] = False
        self.committed_batches += 1
        self._commits_since_fsync += 1
        fsynced = False
        if self.fsync_policy == "always" or (
            self.fsync_policy == "batch"
            and self._commits_since_fsync >= self.fsync_interval
        ):
            self._fsync_unsynced()
            fsynced = True
        pending = 0 if fsynced else self._commits_since_fsync
        return {"fsynced": fsynced, "pending_fsync": pending}

    def flush(self) -> None:
        """Drain: flush and fsync everything, regardless of policy.

        The shutdown path — after the gateway stops admitting work, every
        acked mutation must be on stable storage before the process exits.
        """
        if os.getpid() != self._pid:
            return
        for shard, dirty in enumerate(self._dirty):
            if dirty:
                self._handles[shard].flush()
                self._unsynced[shard] = True
                self._dirty[shard] = False
        self._fsync_unsynced()

    def _fsync_unsynced(self) -> None:
        for shard, unsynced in enumerate(self._unsynced):
            if unsynced:
                os.fsync(self._handles[shard].fileno())
                self._unsynced[shard] = False
        self.fsync_count += 1
        self._commits_since_fsync = 0
