"""lock-discipline: the readers-writer protocol around the live write path.

The service serializes mutations against query executions with a
writer-priority, **non-reentrant** :class:`~repro.caching.ReadWriteLock`.
That design gives three statically checkable obligations:

* ``mutate-outside-write-lock`` — in ``service/`` modules, any call that
  mutates :class:`ShardedObjectStore` state (``store.insert`` /
  ``update`` / ``delete`` / ``insert_many`` / ``apply`` /
  ``rebuild_indexes`` / ``apply_journal``) or :class:`ConstraintRepository` state
  (``repository.add`` / ``add_all`` / ``remove`` / ``replace_derived``)
  must happen lexically inside ``with <lock>.write():`` — or inside a
  helper whose docstring carries the ``write lock held`` marker, the
  repo's convention for lock-inheriting helpers.
* ``lock-held-caller`` — the other half of that convention: every
  same-module call site of a ``write lock held`` helper must itself be
  inside a write block (or inside another such helper).  The marker is a
  proof obligation, not an exemption.
* ``read-escalation`` — inside a ``with <lock>.read():`` block (or a
  ``with <lock>.try_read():`` block, which holds the same shared side), no
  ``.write()`` or ``.read()`` acquisition of a lock may be opened: the
  lock is non-reentrant and writer-priority, so a nested shared
  acquisition under a waiting writer deadlocks (which is why
  ``service.execute_many`` holds one flat acquisition for a whole batch).
* ``fork-lock`` — in ``engine/parallel.py``, functions that run on the
  *worker side* of the fork (the pool initializer, ``submit``/``map``
  targets, and everything they call in-module) must not acquire any
  lock: a lock forked while held by another parent thread is permanently
  stuck in the child.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..astutils import attr_chain, enclosing_function_index, symbol_at
from ..framework import AnalysisContext, AnalysisPass, Finding

SERVICE_PREFIX = "service/"
PARALLEL_MODULE = "engine/parallel.py"
STORE_MUTATORS = frozenset(
    "insert insert_many update delete apply rebuild_indexes apply_journal".split()
)
REPOSITORY_MUTATORS = frozenset({"add", "add_all", "remove", "replace_derived"})
LOCK_HELD_MARKER = "write lock held"
#: ``ReadWriteLock`` acquisitions by method and the side they hold:
#: ``try_read()`` is ``read()`` without the wait.
RW_SIDES = {"read": "read", "try_read": "read", "write": "write"}


def _is_lockish(chain: Optional[List[str]]) -> bool:
    """Whether an attribute chain plausibly names a lock object."""
    return bool(chain) and any("lock" in part.lower() for part in chain)


def _with_acquisition(item: ast.withitem) -> Optional[Tuple[List[str], str]]:
    """``(chain, kind)`` for a with-item acquiring a lock; kind is
    ``"read"``/``"write"`` for RW sides, ``"plain"`` for a bare lock."""
    expr = item.context_expr
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        side = RW_SIDES.get(expr.func.attr)
        if side is not None:
            chain = attr_chain(expr.func.value)
            if _is_lockish(chain):
                return chain, side
    chain = attr_chain(expr)
    if _is_lockish(chain):
        return chain, "plain"
    return None


def _spans(tree: ast.Module, kinds: Set[str]) -> List[Tuple[int, int]]:
    """Line spans of with-bodies acquiring a lock of one of ``kinds``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                acquisition = _with_acquisition(item)
                if acquisition is not None and acquisition[1] in kinds:
                    end = getattr(node, "end_lineno", node.lineno)
                    spans.append((node.lineno, end))
                    break
    return spans


def _in_spans(line: int, spans: List[Tuple[int, int]]) -> bool:
    return any(start <= line <= end for start, end in spans)


class LockDisciplinePass(AnalysisPass):
    rule = "lock-discipline"
    description = (
        "service mutations hold the write lock, read paths never "
        "escalate, and nothing locks across the fork boundary"
    )

    def run(self, context: AnalysisContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for info in context.in_dir(SERVICE_PREFIX):
            findings.extend(self._check_service_module(info))
        parallel = context.module(PARALLEL_MODULE)
        if parallel is not None:
            findings.extend(self._check_fork_boundary(parallel))
        return findings

    # ------------------------------------------------------------------
    # service/: write-lock coverage and read escalation
    # ------------------------------------------------------------------
    def _check_service_module(self, info) -> List[Finding]:
        tree = info.tree
        functions = enclosing_function_index(tree)
        write_spans = _spans(tree, {"write"})
        lock_held: Dict[str, Tuple[int, int]] = {}
        for qualname, func in functions:
            docstring = ast.get_docstring(func) or ""
            if LOCK_HELD_MARKER in docstring.lower():
                lock_held[func.name] = (
                    func.lineno,
                    getattr(func, "end_lineno", func.lineno),
                )

        def covered(line: int) -> bool:
            return _in_spans(line, write_spans) or any(
                start <= line <= end for start, end in lock_held.values()
            )

        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            attr = node.func.attr
            chain = attr_chain(node.func.value)
            receiver = chain[-1] if chain else ""
            is_store_mutation = attr in STORE_MUTATORS and receiver == "store"
            is_repo_mutation = (
                attr in REPOSITORY_MUTATORS and receiver == "repository"
            )
            if (is_store_mutation or is_repo_mutation) and not covered(
                node.lineno
            ):
                target = "store" if is_store_mutation else "repository"
                findings.append(
                    self.finding(
                        check="mutate-outside-write-lock",
                        file=info.relpath,
                        line=node.lineno,
                        symbol=f"{symbol_at(functions, node)}:{attr}",
                        message=(
                            f"{target} mutation .{attr}() is reached"
                            " without holding the write side of the store"
                            " lock (wrap it in `with"
                            " <lock>.write():` or mark the enclosing"
                            f" helper's docstring '{LOCK_HELD_MARKER}')"
                        ),
                    )
                )
            # Same-module call sites of lock-inheriting helpers.
            if attr in lock_held and not covered(node.lineno):
                findings.append(
                    self.finding(
                        check="lock-held-caller",
                        file=info.relpath,
                        line=node.lineno,
                        symbol=f"{symbol_at(functions, node)}:{attr}",
                        message=(
                            f"{attr}() is documented '{LOCK_HELD_MARKER}'"
                            " but this call site does not hold the write"
                            " lock — the docstring marker is a proof"
                            " obligation for every caller"
                        ),
                    )
                )

        # Read escalation: a nested read()/write() acquisition opened
        # lexically inside a read block (strictly inside, or later in the
        # same multi-item with statement).
        read_spans = _spans(tree, {"read"})
        for node in ast.walk(tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            read_seen_in_statement = False
            for item in node.items:
                acquisition = _with_acquisition(item)
                if acquisition is None or acquisition[1] == "plain":
                    continue
                nested = read_seen_in_statement or any(
                    start < node.lineno <= end for start, end in read_spans
                )
                if acquisition[1] == "read":
                    read_seen_in_statement = True
                if nested:
                    findings.append(
                        self.finding(
                            check="read-escalation",
                            file=info.relpath,
                            line=node.lineno,
                            symbol=symbol_at(functions, node),
                            message=(
                                f"a .{acquisition[1]}() acquisition is"
                                " opened inside a read block — the RW"
                                " lock is non-reentrant and"
                                " writer-priority, so nesting deadlocks"
                                " under a waiting writer"
                            ),
                        )
                    )
        return findings

    # ------------------------------------------------------------------
    # engine/parallel.py: the fork boundary
    # ------------------------------------------------------------------
    def _check_fork_boundary(self, info) -> List[Finding]:
        tree = info.tree
        functions = enclosing_function_index(tree)
        by_name = {func.name: func for _, func in functions}

        worker_roots: Set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            for keyword in node.keywords:
                if keyword.arg == "initializer" and isinstance(
                    keyword.value, ast.Name
                ):
                    worker_roots.add(keyword.value.id)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("submit", "map")
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                worker_roots.add(node.args[0].id)

        # Transitive closure over module-local calls by bare name.
        reachable: Set[str] = set()
        frontier = [name for name in worker_roots if name in by_name]
        while frontier:
            name = frontier.pop()
            if name in reachable:
                continue
            reachable.add(name)
            for node in ast.walk(by_name[name]):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in by_name
                ):
                    frontier.append(node.func.id)

        findings: List[Finding] = []
        for name in sorted(reachable):
            func = by_name[name]
            for node in ast.walk(func):
                acquisition = None
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        acquisition = _with_acquisition(item)
                        if acquisition:
                            break
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "acquire"
                    and _is_lockish(attr_chain(node.func.value))
                ):
                    acquisition = (attr_chain(node.func.value), "plain")
                if acquisition:
                    findings.append(
                        self.finding(
                            check="fork-lock",
                            file=info.relpath,
                            line=node.lineno,
                            symbol=name,
                            message=(
                                f"worker-side function {name}() acquires"
                                f" {'.'.join(acquisition[0])} — a lock"
                                " held by another parent thread at fork"
                                " time is permanently stuck in the child"
                            ),
                        )
                    )
        return findings
