"""The transformation queue ``Q``.

The queue holds the semantic constraints that are currently *fireable*: all
their antecedent predicates are present (in the query or introduced by an
earlier transformation) and firing them would still achieve something (lower
a tag or introduce a predicate).  The base implementation is the FIFO queue
of Section 3; :class:`PriorityTransformationQueue` is the Section 4
enhancement that serves more promising transformation kinds first, which
matters when the optimizer runs under a transformation budget.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from .rules import DEFAULT_PRIORITIES, TransformationKind, priority_for


@dataclass(frozen=True)
class QueueEntry:
    """One pending transformation: a constraint plus the kind of rule it fires."""

    constraint_name: str
    kind: TransformationKind

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.constraint_name} ({self.kind.value})"


class TransformationQueue:
    """FIFO queue of fireable constraints.

    A constraint is never queued twice while it is still pending; it may be
    re-queued after it has been served if a later transformation makes it
    fireable again (this cannot loop because tags only ever go down).
    """

    def __init__(self) -> None:
        self._entries: Deque[QueueEntry] = deque()
        self._pending: Dict[str, QueueEntry] = {}
        self._enqueued_total = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def push(self, entry: QueueEntry) -> bool:
        """Add ``entry`` unless the constraint is already pending.

        Returns ``True`` when the entry was added.
        """
        if entry.constraint_name in self._pending:
            return False
        self._entries.append(entry)
        self._pending[entry.constraint_name] = entry
        self._enqueued_total += 1
        return True

    def pop(self) -> QueueEntry:
        """Remove and return the next entry (FIFO order)."""
        if not self._entries:
            raise IndexError("pop from an empty transformation queue")
        entry = self._entries.popleft()
        self._pending.pop(entry.constraint_name, None)
        return entry

    def discard(self, constraint_name: str) -> None:
        """Remove a pending entry for ``constraint_name``, if any."""
        entry = self._pending.pop(constraint_name, None)
        if entry is not None:
            self._entries.remove(entry)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def contains(self, constraint_name: str) -> bool:
        """Whether ``constraint_name`` is currently pending."""
        return constraint_name in self._pending

    @property
    def enqueued_total(self) -> int:
        """How many entries were pushed over the queue's lifetime."""
        return self._enqueued_total

    def pending(self) -> List[QueueEntry]:
        """A snapshot of the pending entries in service order."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)


class PriorityTransformationQueue(TransformationQueue):
    """Priority-ordered queue (the Section 4 enhancement).

    Entries are served by ascending priority of their transformation kind
    (index introduction first by default), with FIFO order among equal
    priorities so behaviour is deterministic.
    """

    def __init__(
        self, priorities: Optional[Dict[TransformationKind, int]] = None
    ) -> None:
        super().__init__()
        self._priorities = dict(DEFAULT_PRIORITIES)
        if priorities:
            self._priorities.update(priorities)
        self._heap: List[tuple] = []
        self._sequence = 0

    def push(self, entry: QueueEntry) -> bool:
        if entry.constraint_name in self._pending:
            return False
        self._pending[entry.constraint_name] = entry
        priority = priority_for(entry.kind, self._priorities)
        heapq.heappush(self._heap, (priority, self._sequence, entry))
        self._sequence += 1
        self._enqueued_total += 1
        return True

    def pop(self) -> QueueEntry:
        while self._heap:
            _priority, _sequence, entry = heapq.heappop(self._heap)
            if self._pending.get(entry.constraint_name) is entry:
                del self._pending[entry.constraint_name]
                return entry
        raise IndexError("pop from an empty transformation queue")

    def discard(self, constraint_name: str) -> None:
        # Lazy deletion: drop the pending marker; stale heap entries are
        # skipped by pop().
        self._pending.pop(constraint_name, None)

    def pending(self) -> List[QueueEntry]:
        ordered = sorted(self._heap)
        return [
            entry
            for _priority, _sequence, entry in ordered
            if self._pending.get(entry.constraint_name) is entry
        ]

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)
