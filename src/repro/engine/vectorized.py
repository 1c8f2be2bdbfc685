"""The vectorized batch executor.

This is the second execution path of the engine
(:data:`~repro.engine.modes.ExecutionMode.VECTORIZED`).  Where the row-wise
:class:`~repro.engine.executor.QueryExecutor` walks plans binding by binding
and re-interprets every predicate per row, this executor:

* pulls instances through the plan in **column-oriented batches**
  (:class:`BindingBatch`: one parallel column of instances per bound class,
  so extending a join appends columns instead of copying per-row dicts);
* evaluates predicates as **compiled closures** — each predicate is lowered
  once per plan by :mod:`repro.engine.compiled` and then applied to whole
  columns in one pass; masks are applied with ``itertools.compress`` and
  index hits resolved with ``map``, so no Python frame runs per element;
* performs pointer traversals as **probes per distinct source instance**:
  forward through the instance's memoized distinct pointer lists
  (:meth:`~repro.engine.instance.ObjectInstance.pointers`), backward through
  the store's reverse-pointer index
  (:meth:`~repro.engine.storage.ShardedObjectStore.referrer_oids`), each
  match appended straight into the target column, and a row that repeats
  an instance copies its first row's matches — a hash join builds
  nothing per execution, or per row, that the store already keeps.  The
  counters still charge one traversal per source binding.

The executor holds no state derived from the store: everything it reuses
across executions lives on the row or the store it was derived from and is
invalidated there, so an executor is as cheap to build as to keep.

The executor is a drop-in replacement for the row-wise path: it accepts the
same plans, returns the same :class:`~repro.engine.executor.ExecutionResult`
rows (in the same order), and — deliberately — reports byte-identical
:class:`~repro.engine.executor.ExecutionMetrics` counters.  Counter parity
is achieved by preserving the row-wise evaluation *order*: predicates are
applied as a filter cascade (predicate ``j`` is only charged for rows that
survived predicates ``1..j-1``, exactly like the row-wise short-circuit)
and join matches are collected with the same forward-then-backward,
deduplicated-by-OID discipline.  The metrics-parity and differential-oracle
tests pin both properties, which keeps the Table 4.2 / Figure 4.1 numbers
engine-independent.

Candidate derivations (the instances of a class passing its local
predicates) are *derived at most once per plan* and memoized together with
the metric deltas the derivation logically costs; every call-site then
charges those deltas per use.  That reproduces the row-wise accounting
exactly — a hash-join build charges once, the nested-loop strategy charges
once per probing row — while the physical work happens once.  The split
between deriving and charging is also what the parallel executor
(:mod:`repro.engine.parallel`) builds on: its per-shard workers run these
same plan nodes, route one-off charges into a ledger that the merge step
counts exactly once, and charge per-row deltas locally so that summed
worker metrics plus the deduplicated ledger equal a single-shard run.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..constraints.predicate import Predicate
from ..query.query import Query
from ..schema.schema import Schema
from .compiled import (
    BindingKernel,
    ColumnKernel,
    compile_for_binding,
    compile_for_class,
)
from .executor import ExecutionMetrics, ExecutionResult, build_rows
from .instance import ObjectInstance
from .modes import ExecutionMode
from .plan import FilterNode, PlanNode, ProjectNode, QueryPlan, ScanNode, TraverseNode
from .statistics import DatabaseStatistics
from .storage import ObjectStore


class BindingBatch:
    """A batch of partial results in columnar form.

    ``columns`` maps each bound class name to a column (list) of instances;
    all columns have equal length and row ``i`` across the columns is one
    binding.  Column insertion order matches the order classes were bound,
    which is what keeps an unprojected row identical to the row-wise path.

    ``positions`` is an optional parallel column of global row positions.
    A single-shard execution never needs it; the parallel executor seeds it
    with each driver row's index in the global scan output and lets it flow
    through filters and join fan-out, so per-shard results can be merged
    back into the exact single-shard row order.
    """

    __slots__ = ("columns", "positions")

    def __init__(
        self,
        columns: Dict[str, List[ObjectInstance]],
        positions: Optional[List[int]] = None,
    ) -> None:
        self.columns = columns
        self.positions = positions

    @property
    def length(self) -> int:
        """Number of bindings in the batch."""
        for column in self.columns.values():
            return len(column)
        return 0

    def take(self, indices: Sequence[int]) -> "BindingBatch":
        """A new batch keeping only the rows at ``indices`` (in that order)."""
        return BindingBatch(
            {
                name: [column[i] for i in indices]
                for name, column in self.columns.items()
            },
            positions=(
                [self.positions[i] for i in indices]
                if self.positions is not None
                else None
            ),
        )

    def value_columns(self) -> Dict[str, List[Mapping[str, Any]]]:
        """Per-class columns of attribute-value mappings (for kernels)."""
        return {
            name: [instance.values for instance in column]
            for name, column in self.columns.items()
        }


#: Metric deltas of one candidate derivation, in counter order:
#: (instances_retrieved, predicate_evaluations, index_lookups).
CandidateDeltas = Tuple[int, int, int]

#: A memoized candidate derivation: the surviving instances plus the metric
#: deltas the derivation logically costs, charged on every use.
_CandidateEntry = Tuple[List[ObjectInstance], CandidateDeltas]


class _PlanContext:
    """Per-execution state: metrics plus the plan's compiled-kernel cache.

    Kernels are compiled at most once per (class, predicate) pair per plan
    execution — the "pre-lowered once per plan" contract — and shared by
    every batch that flows through the node.  The context also memoizes
    candidate derivations: the store cannot change mid-plan, so a repeated
    derivation returns the memoized instances while each use *charges the
    metric deltas* of the original derivation (the nested-loop strategy
    charges one derivation per source row) — the counters
    keep modelling the logical operations the row-wise engine performs,
    which is what keeps the Table 4.2 cost ratios engine-independent, while
    the physical work happens once.

    ``one_off_ledger`` switches the context into parallel-worker mode: plan
    nodes whose derivation is charged *once per plan* (hash-join builds)
    record their deltas under a deterministic node key instead of charging
    the local metrics, and the parallel merge charges each key exactly once
    across all shards.  Per-row charges (nested-loop probes, filter
    cascades, pointer traversals) stay local because they sum correctly.
    """

    __slots__ = (
        "metrics",
        "one_off_ledger",
        "node_seq",
        "_class_kernels",
        "_binding_kernels",
        "_candidates",
    )

    def __init__(
        self,
        metrics: ExecutionMetrics,
        one_off_ledger: Optional[Dict[Tuple, CandidateDeltas]] = None,
    ) -> None:
        self.metrics = metrics
        self.one_off_ledger = one_off_ledger
        #: Deterministic plan-node counter: bumped once per node visited by
        #: ``_run``, in recursion order, so every shard of a parallel run
        #: assigns the same sequence numbers to the same nodes.
        self.node_seq = 0
        self._class_kernels: Dict[Tuple[str, Predicate], ColumnKernel] = {}
        self._binding_kernels: Dict[Predicate, BindingKernel] = {}
        self._candidates: Dict[Tuple, _CandidateEntry] = {}

    def charge(self, deltas: CandidateDeltas) -> None:
        """Add one use of a derivation to the local counters."""
        retrieved, evaluations, lookups = deltas
        metrics = self.metrics
        metrics.instances_retrieved += retrieved
        metrics.predicate_evaluations += evaluations
        metrics.index_lookups += lookups

    def charge_one_off(self, key: Tuple, deltas: CandidateDeltas) -> None:
        """Charge a once-per-plan derivation (ledgered in worker mode)."""
        if self.one_off_ledger is not None:
            self.one_off_ledger[key] = deltas
        else:
            self.charge(deltas)

    def candidate_entry(self, key: Tuple) -> Optional[_CandidateEntry]:
        """The memoized derivation for ``key``, if any (never charges)."""
        return self._candidates.get(key)

    def store_candidates(
        self, key: Tuple, instances: List[ObjectInstance], deltas: CandidateDeltas
    ) -> None:
        self._candidates[key] = (instances, deltas)

    def class_kernel(self, class_name: str, predicate: Predicate) -> ColumnKernel:
        key = (class_name, predicate)
        kernel = self._class_kernels.get(key)
        if kernel is None:
            kernel = compile_for_class(predicate, class_name)
            self._class_kernels[key] = kernel
        return kernel

    def binding_kernel(self, predicate: Predicate) -> BindingKernel:
        kernel = self._binding_kernels.get(predicate)
        if kernel is None:
            kernel = compile_for_binding(predicate)
            self._binding_kernels[predicate] = kernel
        return kernel


class VectorizedExecutor:
    """Executes query plans in column-oriented batches.

    Parameters mirror :class:`~repro.engine.executor.QueryExecutor`:
    ``join_strategy`` is ``"hash"`` (build the traversed class's candidate
    set once per traverse node) or ``"nested_loop"`` (charge a re-derivation
    per binding, modelling the paper's relational cost measurements).  Both
    derive physically once per plan, through kernels compiled once per plan.
    """

    #: The mode this executor implements (introspection/factory symmetry).
    mode = ExecutionMode.VECTORIZED

    def __init__(
        self,
        schema: Schema,
        store: ObjectStore,
        join_strategy: str = "hash",
    ) -> None:
        if join_strategy not in ("hash", "nested_loop"):
            raise ValueError("join_strategy must be 'hash' or 'nested_loop'")
        self.schema = schema
        self.store = store
        self.join_strategy = join_strategy

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def execute_plan(self, plan: QueryPlan) -> ExecutionResult:
        """Execute ``plan`` and return rows plus metrics."""
        metrics = ExecutionMetrics()
        context = _PlanContext(metrics)
        batch = self._run(plan.root, context)
        rows = build_rows(plan, batch.columns)
        metrics.rows_output = len(rows)
        return ExecutionResult(rows=rows, metrics=metrics, plan=plan)

    def statistics(self) -> DatabaseStatistics:
        """Statistics current for the store's version (the store's cache)."""
        return self.store.statistics()

    def plan(self, query: Query) -> QueryPlan:
        """The plan :meth:`execute` runs: ``query`` under current statistics."""
        from .planner import ConventionalPlanner

        return ConventionalPlanner(
            self.schema, self.statistics(), execution_mode=self.mode
        ).plan(query)

    def execute(self, query: Query) -> ExecutionResult:
        """Plan and execute ``query`` in one call."""
        return self.execute_plan(self.plan(query))

    def apply_delta(
        self, query: Query, records: Sequence[Any]
    ) -> Tuple[ExecutionResult, Tuple[int, ...]]:
        """Re-evaluate ``query`` after a journal batch; shard-granular cost.

        The incremental-view-maintenance entry point: ``records`` is the
        journal slice since the caller's last known version.  Row output
        is identical to :meth:`execute` — the plan is re-derived from
        *current* statistics, because physical plan choice (and therefore
        row order) is stats-dependent and a retained stale plan could
        order rows differently from a fresh execution.  The incremental
        win is on the rows: a write drops the memoized pointer lists of the
        rows it changed and of no other, so the re-probe re-derives per
        *changed row*.  Returns the result plus the touched
        shard ids (sorted), which the standing-view layer surfaces for
        observability and tests pin.
        """
        touched = sorted({self.store.shard_of(record.oid) for record in records})
        return self.execute(query), tuple(touched)

    # ------------------------------------------------------------------
    # Node evaluation
    # ------------------------------------------------------------------
    def _run(
        self,
        node: PlanNode,
        context: _PlanContext,
        scan_override: Optional[BindingBatch] = None,
    ) -> BindingBatch:
        context.node_seq += 1
        node_seq = context.node_seq
        if isinstance(node, ScanNode):
            if scan_override is not None:
                return scan_override
            return self._run_scan(node, context)
        if isinstance(node, TraverseNode):
            batch = self._run(node.child, context, scan_override)
            return self._run_traverse(node, batch, context, node_seq)
        if isinstance(node, FilterNode):
            batch = self._run(node.child, context, scan_override)
            return self._run_filter(node, batch, context)
        if isinstance(node, ProjectNode):
            # The last operator: its batch is what build_rows projects (a
            # parallel worker ships it as OID columns instead).
            return self._run(node.child, context, scan_override)
        raise TypeError(f"unknown plan node type {type(node).__name__}")

    def _derive_candidates(
        self,
        class_name: str,
        predicates: Sequence[Predicate],
        index_predicate: Optional[Predicate],
        context: _PlanContext,
    ) -> _CandidateEntry:
        """Instances of ``class_name`` passing ``predicates``, with deltas.

        Derivation is memoized per plan execution (the store cannot change
        mid-plan) and **never charges metrics itself** — it returns the
        logical metric deltas and leaves the charging policy to the
        call-site: once per plan for scans and hash-join builds, once per
        probing row for the nested-loop strategy.  Index selection and the
        compiled filter cascade mirror the row-wise
        ``QueryExecutor._candidate_instances`` exactly, so the deltas equal
        the row-wise charges for one derivation.
        """
        memo_key = (class_name, tuple(predicates), index_predicate)
        entry = context.candidate_entry(memo_key)
        if entry is not None:
            return entry
        retrieved = 0
        evaluations = 0
        lookups = 0
        remaining = list(predicates)
        instances: List[ObjectInstance]
        chosen = index_predicate
        if chosen is None:
            for predicate in remaining:
                if self.store.indexes.can_answer(predicate):
                    chosen = predicate
                    break
        if chosen is not None:
            oids = self.store.indexes.lookup(chosen)
            if oids is None:
                chosen = None
            else:
                lookups += 1
                oid_index = self.store.oid_index(class_name)
                instances = [
                    instance
                    for instance in map(oid_index.get, oids)
                    if instance is not None
                ]
                retrieved += len(instances)
                remaining = [p for p in remaining if p is not chosen]
        if chosen is None:
            instances = self.store.instances(class_name)
            retrieved += len(instances)

        survivors = instances
        if remaining:
            values = [instance.values for instance in instances]
            for predicate in remaining:
                if not survivors:
                    break
                kernel = context.class_kernel(class_name, predicate)
                evaluations += len(survivors)
                mask = kernel(values)
                survivors = list(compress(survivors, mask))
                values = list(compress(values, mask))
        deltas = (retrieved, evaluations, lookups)
        context.store_candidates(memo_key, survivors, deltas)
        return survivors, deltas

    def _run_scan(self, node: ScanNode, context: _PlanContext) -> BindingBatch:
        predicates = list(node.predicates)
        if node.index_predicate is not None:
            predicates = [node.index_predicate] + predicates
        instances, deltas = self._derive_candidates(
            node.class_name, predicates, node.index_predicate, context
        )
        context.charge(deltas)
        return BindingBatch({node.class_name: instances})

    def _run_traverse(
        self,
        node: TraverseNode,
        batch: BindingBatch,
        context: _PlanContext,
        node_seq: int,
    ) -> BindingBatch:
        """Extend every binding of ``batch`` with its linked target instances.

        A source row is linked to the candidates its own pointer names and
        to the candidates whose pointer names it; the hash strategy finds
        the first in the row's pointer list and the second in
        ``store.referrer_oids`` — both O(links of the row).  The probe runs
        once per distinct source instance; a later row holding the same
        instance reuses its matches, while ``pointer_traversals`` still
        charges every source row.  The candidate set is derived and charged
        exactly as the row-wise engine charges it, but only a *filtered*
        one is turned into a lookup table: the join costs what its source
        batch reaches, not the target extent.
        """
        relationship = self.schema.relationship(node.relationship)
        source_attribute = relationship.attribute_for(node.source_class)
        target_attribute = relationship.attribute_for(node.target_class)

        if self.join_strategy == "nested_loop":
            return self._run_traverse_nested_loop(
                node, batch, context, source_attribute, target_attribute
            )

        # Hash-join style: derive the target candidate set once, with the
        # target's local predicates applied through compiled kernels, then
        # probe each distinct source.  The derivation is a once-per-plan
        # charge, so in parallel-worker mode it goes to the one-off ledger —
        # keyed by the node's deterministic sequence number (assigned at
        # descent, identical in every shard) — instead of the shard-local
        # counters.
        candidates, deltas = self._derive_candidates(
            node.target_class, node.predicates, None, context
        )
        context.charge_one_off((node_seq, "build"), deltas)
        source_column = batch.columns.get(node.source_class)
        if not source_column:
            return self._extend(batch, [], node.target_class, [])

        # Nothing below is proportional to the target extent unless the
        # node filters it: an unfiltered candidate set *is* the extent, so
        # the store's OID map resolves it, and reverse pointers come from
        # the index the store maintains (never from the candidates).
        filtered = bool(node.predicates)
        by_oid: Mapping[int, ObjectInstance] = (
            {candidate.oid: candidate for candidate in candidates}
            if filtered
            else self.store.oid_index(node.target_class)
        )
        resolve = by_oid.get
        referrers_of = self.store.referrer_oids(node.target_class, target_attribute).get
        # Candidate order is extent (ascending-OID) order, the order of an
        # index bucket, unless a sorted-index range answered a target
        # predicate; ranks are built only if a row then has several
        # reverse-only referrers to put in that order.
        rank: Optional[Dict[int, int]] = None

        # A scan yields each instance once, so the traverse right above it
        # probes every row.  Any deeper source column repeats an instance
        # once per binding that reached it, and every repeat has the same
        # matches: the instance is probed on its first row and that row's
        # span of the target column is copied for the later ones.
        spans: Optional[Dict[int, slice]] = (
            None if isinstance(node.child, ScanNode) else {}
        )
        context.metrics.pointer_traversals += len(source_column)
        row_indices: List[int] = []
        target_column: List[ObjectInstance] = []
        append = target_column.append
        for i, source_instance in enumerate(source_column):
            if spans is not None:
                span = spans.get(source_instance.oid)
                if span is not None:
                    matches = target_column[span]
                    target_column += matches
                    row_indices += [i] * len(matches)
                    continue
            # Forward pointers in pointer order, then reverse-only
            # referrers in candidate order, none twice (the row-wise
            # discipline, which reads both off the rows themselves).  Both
            # lists hold distinct OIDs, so matches append straight into the
            # target column.
            start = len(target_column)
            forward = source_instance.pointers(source_attribute)
            for oid in forward:
                candidate = resolve(oid)
                if candidate is not None:
                    append(candidate)
            held = referrers_of(source_instance.oid)
            if held is not None:
                tail = len(target_column)
                for oid in (held,) if held.__class__ is int else held:
                    if oid not in forward:
                        candidate = resolve(oid)
                        if candidate is not None:
                            append(candidate)
                if filtered and len(target_column) - tail > 1:
                    if rank is None:
                        rank = {oid: n for n, oid in enumerate(by_oid)}
                    target_column[tail:] = sorted(
                        target_column[tail:], key=lambda c: rank[c.oid]
                    )
            end = len(target_column)
            if spans is not None:
                spans[source_instance.oid] = slice(start, end)
            if end > start:
                row_indices.extend([i] * (end - start))
        return self._extend(batch, row_indices, node.target_class, target_column)

    def _run_traverse_nested_loop(
        self,
        node: TraverseNode,
        batch: BindingBatch,
        context: _PlanContext,
        source_attribute: str,
        target_attribute: str,
    ) -> BindingBatch:
        """Nested-loop variant: charge a candidate re-derivation per binding.

        The candidate derivation is charged per source row, exactly like
        the row-wise nested loop (the physical derivation happens once and
        its deltas are replayed).  Per-row charges sum correctly across
        shards, so this path needs no ledger.  The matches are computed
        once per distinct source instance and reused for every row that
        repeats it.
        """
        source_column = batch.columns.get(node.source_class)
        if not source_column:
            return self._extend(batch, [], node.target_class, [])
        candidates, deltas = self._derive_candidates(
            node.target_class, node.predicates, None, context
        )
        # Every source row traverses once and re-derives the candidates
        # once, as row-wise does.
        rows = len(source_column)
        context.metrics.pointer_traversals += rows
        context.charge(tuple(rows * delta for delta in deltas))
        # Candidate OIDs are unique within an extent, so emitting matched
        # candidate indices in ascending order reproduces the row-wise
        # "iterate candidates, keep the linked ones" output exactly.
        oid_to_index = {c.oid: idx for idx, c in enumerate(candidates)}
        back_index: Dict[int, List[int]] = {}
        for idx, candidate in enumerate(candidates):
            for back in candidate.pointers(target_attribute):
                back_index.setdefault(back, []).append(idx)
        matches_of: Dict[int, List[ObjectInstance]] = {}
        row_indices: List[int] = []
        target_column: List[ObjectInstance] = []
        for i, source_instance in enumerate(source_column):
            matches = matches_of.get(source_instance.oid)
            if matches is None:
                matched = {
                    oid_to_index[oid]
                    for oid in source_instance.pointers(source_attribute)
                    if oid in oid_to_index
                }
                matched.update(back_index.get(source_instance.oid, ()))
                matches = matches_of[source_instance.oid] = [
                    candidates[idx] for idx in sorted(matched)
                ]
            target_column += matches
            row_indices += [i] * len(matches)
        return self._extend(batch, row_indices, node.target_class, target_column)

    @staticmethod
    def _extend(
        batch: BindingBatch,
        row_indices: Sequence[int],
        target_class: str,
        target_column: List[ObjectInstance],
    ) -> BindingBatch:
        """Replicate batch rows per join match and append the new column."""
        columns = {
            name: [column[i] for i in row_indices]
            for name, column in batch.columns.items()
        }
        columns[target_class] = target_column
        positions = (
            [batch.positions[i] for i in row_indices]
            if batch.positions is not None
            else None
        )
        return BindingBatch(columns, positions=positions)

    def _run_filter(
        self, node: FilterNode, batch: BindingBatch, context: _PlanContext
    ) -> BindingBatch:
        if not node.predicates or batch.length == 0:
            return batch
        metrics = context.metrics
        value_columns = batch.value_columns()
        indices = list(range(batch.length))
        for predicate in node.predicates:
            if not indices:
                break
            kernel = context.binding_kernel(predicate)
            metrics.predicate_evaluations += len(indices)
            sub_columns = {
                name: [column[i] for i in indices]
                for name, column in value_columns.items()
            }
            mask = kernel(sub_columns, len(indices))
            indices = list(compress(indices, mask))
        if len(indices) == batch.length:
            return batch
        return batch.take(indices)
