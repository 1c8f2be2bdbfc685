"""The standing-plan registry: subscribe, pump journal deltas, resync.

One :class:`SubscriptionRegistry` lives on an
:class:`~repro.service.OptimizationService` (lazily, via
``service.subscription_registry()``).  It owns every
:class:`~repro.subscriptions.view.StandingView` and drives them from the
store's mutation journal:

* :meth:`subscribe` optimizes and executes the query **inside one read
  span** of the service's readers-writer lock, so the initial snapshot,
  the candidate sets and the version stamp are a single consistent cut —
  the same discipline as ``replication_capture``.
* :meth:`pump` — the last stage of the service's commit path, run after
  every write, replicated record or store swap once the write lock is
  released — advances every view through ``journal_since(view.version)``.
  Views whose records all classify irrelevant advance for free; the rest
  re-execute their optimized query and push a positional diff frame
  tagged with the batch-end store version.  The WAL commit is an earlier
  stage of the same path, so a diff frame is only ever emitted for state
  that is already durable.
* Rule churn or a store swap (:meth:`note_rule_churn`, flagged under the
  write lock by the commit path) or a journal gap (the view lagged past
  the bounded journal) forces a **resync**: the query re-optimizes
  against the new rule set and the full row snapshot is pushed as a
  ``resync`` frame.

Pumps are serialized by a registry-level lock, so frames for one
subscription are emitted in strictly increasing version order.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, List, Optional

from ..server.protocol import diff_frame, resync_frame
from .diff import diff_rows
from .view import StandingView

__all__ = ["SubscriptionRegistry"]


class SubscriptionRegistry:
    """All standing views of one service, and the delta engine over them."""

    def __init__(self, service):
        self.service = service
        self._views: Dict[str, StandingView] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()  # guards the view map + counters
        self._pump_lock = threading.Lock()  # serializes delta pumps
        self._created = 0
        self._closed = 0
        self._diffs = 0
        self._resyncs = 0
        self._errors = 0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        """Number of live standing views."""
        with self._lock:
            return len(self._views)

    def subscribe(
        self,
        query,
        *,
        options: Optional[Dict[str, Any]] = None,
        emit=None,
        owner: Any = None,
    ) -> Dict[str, Any]:
        """Register a standing view; returns the initial snapshot payload.

        ``emit`` is called (from the pumping thread) with each ordered
        push frame; ``owner`` is an opaque handle :meth:`release` can
        later free every view of a disconnecting consumer by.
        """
        service = self.service
        if service.store is None:
            raise ValueError(
                "subscriptions require an attached object store"
            )
        options = dict(options or {})
        with self._lock:
            sid = f"sub-{next(self._ids)}"
        view = StandingView(sid, query, options=options, emit=emit, owner=owner)
        # One read span: snapshot rows, candidate sets and the version
        # stamp are atomic with respect to writers (no journal record can
        # land between the execution and the version the view claims).
        with service._store_lock.read():
            executor = self._bind(view)
        with self._lock:
            self._views[sid] = view
            self._created += 1
        return {
            "subscription": sid,
            "version": view.version,
            "rows": view.rows,
            "row_count": len(view.rows),
            "execution_mode": executor.mode.value,
            "classes": sorted(view.target.classes),
        }

    def unsubscribe(self, subscription_id: str) -> bool:
        """Drop one standing view; False when the id is unknown."""
        with self._lock:
            view = self._views.pop(subscription_id, None)
            if view is None:
                return False
            view.active = False
            self._closed += 1
        return True

    def release(self, owner: Any) -> List[str]:
        """Drop every view registered under ``owner`` (consumer gone)."""
        with self._lock:
            sids = [
                sid for sid, view in self._views.items() if view.owner is owner
            ]
            for sid in sids:
                self._views.pop(sid).active = False
            self._closed += len(sids)
        return sids

    def note_rule_churn(self, classes=None) -> int:
        """Flag views touching ``classes`` (None = all) for a resync.

        Called under the service's exclusive lock by the commit path
        when dynamic rules actually changed, the store was swapped or a
        declared rule was added or removed; only sets flags, so it is
        safe anywhere.
        """
        with self._lock:
            views = list(self._views.values())
        touched = None if classes is None else set(classes)
        flagged = 0
        for view in views:
            if touched is not None and not (touched & set(view.query.classes)):
                continue
            if view.resync_reason is None:
                view.resync_reason = "rules_changed"
            flagged += 1
        return flagged

    # ------------------------------------------------------------------
    # The delta engine.
    # ------------------------------------------------------------------
    def pump(self) -> Dict[str, int]:
        """Advance every view to the current store version; push frames.

        Serialized: concurrent callers queue behind the pump lock, so
        each subscription's frames are emitted in version order.
        """
        report = {"views": 0, "diffs": 0, "resyncs": 0, "skipped": 0}
        with self._lock:
            views = [view for view in self._views.values() if view.active]
        if not views:
            return report
        with self._pump_lock:
            for view in views:
                report["views"] += 1
                try:
                    outcome = self._pump_view(view)
                except Exception:
                    # Self-heal on the next pump instead of failing the
                    # mutation RPC that triggered this one.
                    self._errors += 1
                    view.resync_reason = view.resync_reason or "error"
                    continue
                report[outcome] += 1
        return report

    def _pump_view(self, view: StandingView) -> str:
        service = self.service
        with service._store_lock.read():
            store = service.store
            if view.resync_reason is not None:
                self._resync_locked(view, view.resync_reason, store)
                return "resyncs"
            if store.version == view.version:
                return "skipped"
            records = store.journal_since(view.version)
            if records is None:
                # The bounded journal no longer bridges the gap.
                self._resync_locked(view, "journal_gap", store)
                return "resyncs"
            relevant = False
            for record in records:
                if view.consume(record, store):
                    relevant = True
            if not relevant:
                # Net effect proven empty: advance without re-executing.
                view.version = store.version
                return "skipped"
            executor = self._executor_for(view)
            apply_delta = getattr(executor, "apply_delta", None)
            if apply_delta is not None:
                execution, _touched = apply_delta(view.target, records)
            else:
                execution = executor.execute(view.target)
            changes = diff_rows(view.rows, execution.rows)
            view.rows = list(execution.rows)
            view.plan = execution.plan or view.plan
            view.version = store.version
            if not changes:
                return "skipped"
            view.diffs += 1
            self._diffs += 1
            frame = diff_frame(view.subscription_id, view.version, changes)
            if view.emit is not None:
                view.emit(frame)
            return "diffs"

    def _resync_locked(self, view: StandingView, reason: str, store) -> None:
        """Re-optimize + re-execute + full snapshot push (under read span)."""
        self._bind(view)
        view.resync_reason = None
        view.resyncs += 1
        self._resyncs += 1
        frame = resync_frame(view.subscription_id, view.version, view.rows, reason)
        if view.emit is not None:
            view.emit(frame)

    def _bind(self, view: StandingView):
        """Optimize + execute + rebind ``view`` (caller holds a read span)."""
        service = self.service
        target = view.query
        if view.options.get("optimize", True):
            target = service._optimize(view.query, True).optimized
        executor = self._executor_for(view)
        execution = executor.execute(target)
        view.rebind(
            target, execution.plan, execution.rows, service.store.version,
            service.store,
        )
        return executor

    def _executor_for(self, view: StandingView):
        return self.service._executor(
            view.options.get("execution_mode"),
            view.options.get("join_strategy", "hash"),
        )

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Aggregate counters plus one row per live view."""
        with self._lock:
            views = list(self._views.values())
            payload = {
                "active": len(views),
                "created": self._created,
                "closed": self._closed,
                "diffs": self._diffs,
                "resyncs": self._resyncs,
                "errors": self._errors,
            }
        payload["views"] = [view.snapshot() for view in views]
        return payload
