"""The traced run: per-layer metrics measured from outside the program.

A layer is a module under ``src/repro/``.  Nothing in ``src/`` is
instrumented; the bench times calls into each layer's public functions
itself, in pipeline order, with a span around each call, and also times
the whole-entry calls (``service.execute``, the gateway's dispatch, one
TCP round trip) whose difference from their children is the parent
layer's self time.

A traced run of workload W has three parts:

1. **The replay.**  The first ``Scale.replay_ops`` ops of W's round — the
   exact sequence the timed round issues — are run in-process, the bench
   issuing the layer calls of every op itself: first a census (every
   distinct query once, for the exact counts), then the sequence in blocks
   of 24 ops, each block once without and once with spans.
   ``trace.overhead_share`` is what the spans cost: 1 - spanned / plain
   ops/s of the same calls.
2. **Layer probes** for what no op of W exercises (generation, rule
   derivation, engine modes, store mutation, the WAL), on W's database.
3. **A served write-mix session** (always: WAL with fsync ``always``,
   dynamic rules, two connections), ended by SIGKILL and ``recover()`` —
   the source of the ``server.*`` latency split and counters and of the
   ``durability.*`` recovery numbers, so every per-layer metric exists on
   every workload.  ``server.*`` timings are taken on the database
   ``repro serve`` can serve, configured like that session's server.
"""

import asyncio
import contextlib
import os
import shutil
import statistics
import time

from harness import latency_metrics, metric, summary_metric
from inputs import SPECS, WRITE_CLASS, WriteStream
from measure import (
    ALL_CPUS,
    PROGRAM_CPU,
    HostSpeed,
    Segments,
    Tracer,
    isolate_bench_heap,
    pin,
    ratio_verdict,
    self_time,
)
from oracle import rows_of
from workloads import ENGINE, OUT_DIR, WORKLOADS, Op, RoundLog, build_service

from repro.constraints.dynamic import DynamicRuleDeriver
from repro.data import build_evaluation_setup
from repro.data.generator import clear_generation_cache
from repro.durability import DurabilityManager
from repro.engine import (
    ConventionalPlanner,
    DatabaseStatistics,
    QueryExecutor,
    VectorizedExecutor,
)
from repro.engine.parallel import ParallelExecutor
from repro.query import parse_query
from repro.server import QueryGateway
from repro.server.protocol import (
    decode_frame,
    encode_frame,
    execution_payload,
    ok_response,
    parse_request,
)
from repro.service import ExecutionEnvelope

US = 1e6
MS = 1e3

#: Children of ``service.execute`` and of the gateway's dispatch, by span name.
SERVICE_CHILDREN = ("service.optimize", "engine.plan", "engine.execute")
SERVER_EDGES = ("server.decode", "server.encode")
#: The optimizer's phases in order; the suffix is the ``PhaseTimings`` field.
PHASES = (
    "constraints.retrieval",
    "core.initialization",
    "core.transformation",
    "core.formulation",
)


class Probe:
    """Times calls, keeps samples by name, records spans.

    A sample is ``(start, seconds, counts, key)``; ``key`` groups samples
    of the same query.  With ``recording`` off a call is just the call:
    no clock read, no span — the plain leg of the replay.
    """

    def __init__(self, speed, tracer):
        self.speed = speed
        self.tracer = tracer
        self.recording = True
        self.segments = None
        self.samples = {}
        self.metrics = {}
        #: Printed with the report but not part of the contract's metric list.
        self.notes = {}

    def tick(self):
        """Between two timed calls: sample host speed if due."""
        if self.segments is not None:
            self.segments.checkpoint()
        elif self.speed.due():
            self.speed.sample()

    @contextlib.contextmanager
    def busy(self):
        """Account the time of the calls made inside, kernel samples left out."""
        self.segments = Segments(self.speed)
        self.segments.start()
        try:
            yield self.segments
        finally:
            self.segments.stop()
            self.segments = None

    def call(self, name, function, *args, op_id=None, parent=None, key=None, counts=None):
        """``function(*args)`` inside a span; ``counts(result)`` is kept with it."""
        if not self.recording:
            return function(*args)
        start = time.perf_counter()
        result = function(*args)
        end = time.perf_counter()
        self.record(
            name, start, end, op_id, parent, key, counts(result) if counts else None
        )
        return result

    def record(self, name, start, end, op_id=None, parent=None, key=None, counts=None):
        self.samples.setdefault(name, []).append((start, end - start, counts, key))
        self.tracer.add(op_id, name, parent, int(start * 1e9), int(end * 1e9), counts)

    def nominal(self, name):
        return [
            self.speed.scale(start, seconds) for start, seconds, _, _ in self.samples[name]
        ]

    def by_key(self, name):
        """``{key: median nominal seconds}`` of the samples called ``name``."""
        grouped = {}
        for sample, seconds in zip(self.samples[name], self.nominal(name)):
            grouped.setdefault(sample[3], []).append(seconds)
        return {key: statistics.median(values) for key, values in grouped.items()}

    def timing(self, metric_name, sample_name, unit, factor):
        """Publish one timing metric: median, quartiles, count, raw median."""
        raw = statistics.median(sample[1] for sample in self.samples[sample_name])
        self.metrics[metric_name] = summary_metric(
            self.nominal(sample_name), unit, factor, raw=raw * factor
        )

    def derived(self, metric_name, values, unit, factor=1.0, **extra):
        self.metrics[metric_name] = summary_metric(values, unit, factor, **extra)

    def exact(self, metric_name, value, unit, **extra):
        self.metrics[metric_name] = metric(value, unit, exact=True, **extra)


# ----------------------------------------------------------------------
# Part 1: the replay
# ----------------------------------------------------------------------
def round_prefix(workload, inputs, count):
    """The first ``count`` ops of W's round as ``(caller, op)``, callers in turn."""
    streams = workload.streams(inputs)
    return [
        (index % len(streams), streams[index % len(streams)].next())
        for index in range(count)
    ]


def census(queries):
    """Every distinct query once, in generation order, as one caller's reads."""
    return [(0, Op("read", text, query)) for text, query in queries]


class OptimizerReplay:
    """An ``optimize_cold`` op layer by layer: ``core.optimize`` and its phases.

    Phase child spans are laid end to end from the call's start using the
    program's own ``PhaseTimings``.
    """

    def __init__(self, probe, service):
        self.probe = probe
        self.service = service
        #: Constraint-cache hits and lookups during this replay's own calls.
        self.cache = {"retrieval": [0, 0], "closure": [0, 0]}

    def run(self, ops, label):
        probe = self.probe
        before = self.service.cache_stats()
        for index, (_, op) in enumerate(ops):
            op_id = f"{label}:{index}"
            start = time.perf_counter()
            result = probe.call(
                "core.optimize", self.service.optimizer.optimize, op.query, op_id=op_id,
                counts=lambda result: {
                    "transformations": result.transformations_applied,
                    "transformed": int(result.was_transformed),
                },
            )
            if probe.recording:
                for phase in PHASES:
                    seconds = getattr(result.timings, phase.split(".")[1])
                    probe.record(phase, start, start + seconds, op_id, "core.optimize")
                    start += seconds
            probe.tick()
        after = self.service.cache_stats()
        for name, tally in self.cache.items():
            hits = getattr(after, f"{name}_hits") - getattr(before, f"{name}_hits")
            misses = getattr(after, f"{name}_misses") - getattr(before, f"{name}_misses")
            tally[0] += hits
            tally[1] += hits + misses

    def publish_counts(self, queries):
        """Exact counts, from the census (the first sample of every query)."""
        counts = [sample[2] for sample in self.probe.samples["core.optimize"]]
        counts = counts[: len(queries)]
        self.probe.exact(
            "core.transformations_per_query",
            sum(count["transformations"] for count in counts) / len(queries), "count",
        )
        self.probe.exact(
            "core.transformed_share",
            sum(count["transformed"] for count in counts) / len(queries), "ratio",
        )

    def publish(self):
        probe = self.probe
        probe.timing("constraints.retrieval_us", "constraints.retrieval", "us", US)
        probe.timing("core.initialization_us", "core.initialization", "us", US)
        probe.timing("core.transformation_us", "core.transformation", "us", US)
        probe.timing("core.formulation_us", "core.formulation", "us", US)
        probe.timing("core.optimize_us", "core.optimize", "us", US)
        outside = []
        for index, (start, seconds, _, _) in enumerate(probe.samples["core.optimize"]):
            children = [
                (sample[0], sample[0] + sample[1])
                for sample in (probe.samples[name][index] for name in PHASES)
            ]
            outside.append(
                probe.speed.scale(start, self_time((start, start + seconds), children))
            )
        probe.notes["core.optimize self time (outside its four phases), median us"] = (
            statistics.median(outside) * US
        )
        for name, (hits, lookups) in self.cache.items():
            probe.exact(
                f"constraints.{name}_hit_rate",
                hits / lookups if lookups else 0.0, "ratio", lookups=lookups,
            )


class PipelineReplay:
    """A served op layer by layer, then through the whole entries it decomposes.

    A read, in pipeline order: ``server.decode`` -> ``service.optimize`` ->
    ``engine.plan`` -> ``engine.execute`` -> ``server.encode``; then
    ``service.execute`` and the gateway's in-process dispatch followed by
    response framing — what a session does per request.  A write is
    ``service.mutate`` (its WAL commit, when the service is durable, is
    attributed by subtraction in :func:`probe_mutations`).
    """

    def __init__(self, probe, service, loop, queries):
        for _, query in queries:  # warm: result cache, executor caches
            service.execute(query, execution_mode=ENGINE)
        self.probe = probe
        self.service = service
        self.loop = loop
        self.schema = service.schema
        self.executor = VectorizedExecutor(self.schema, service.store)
        # Never started, so no socket: dispatch still runs parse -> admission ->
        # single-flight -> worker-thread hop -> respond.
        self.gateway = QueryGateway(service)
        #: The row each caller's current write cycle inserted.
        self.oids = {}

    def close(self):
        self.loop.run_until_complete(self.gateway.stop())

    def _decode(self, line):
        return parse_request(decode_frame(line), self.schema)

    def _plan(self, target):
        # service.execute builds a planner per call; so does this span.
        return ConventionalPlanner(
            self.schema, self.executor.statistics(), execution_mode=ENGINE
        ).plan(target)

    @staticmethod
    def _encode(request_id, envelope):
        return encode_frame(ok_response(request_id, execution_payload(envelope)))

    def _dispatch(self, line):
        async def dispatch():
            return encode_frame(await self.gateway.dispatch_line(line, "spine-probe"))

        return self.loop.run_until_complete(dispatch())

    def _read(self, op, index, op_id):
        probe = self.probe
        line = encode_frame({"id": index, "op": "execute", "query": op.text})
        spans = {"op_id": op_id, "key": op.text}
        request = probe.call("server.decode", self._decode, line, parent="pipeline", **spans)
        optimized = probe.call(
            "service.optimize", self.service.optimize, request.query, parent="pipeline",
            counts=lambda result: {"hit": result.cache_hit}, **spans,
        )
        plan = probe.call(
            "engine.plan", self._plan, optimized.optimized, parent="pipeline", **spans
        )
        start = time.perf_counter()
        result = probe.call(
            "engine.execute", self.executor.execute_plan, plan, parent="pipeline",
            counts=lambda result: dict(result.metrics.as_dict(), rows=result.row_count),
            **spans,
        )
        envelope = ExecutionEnvelope(
            query=request.query,
            execution=result,
            execution_mode=ENGINE,
            execute_time=time.perf_counter() - start,
            optimization=optimized,
        )
        probe.call(
            "server.encode", self._encode, index, envelope, parent="pipeline",
            counts=lambda wire: {"bytes": len(wire)}, **spans,
        )
        probe.tick()
        probe.call(
            "service.execute", self.service.execute, request.query,
            parent="server.dispatch", **spans,
        )
        probe.tick()
        probe.call("server.dispatch", self._dispatch, line, **spans)

    def _write(self, caller, op, op_id):
        oid = None if op.kind == "insert" else self.oids[caller]
        result = self.probe.call(
            "service.mutate", self.service.mutate, op.kind, WRITE_CLASS, oid, op.values,
            op_id=op_id,
        )
        if op.kind == "insert":
            self.oids[caller] = result.oids[0]

    def run(self, ops, label):
        for index, (caller, op) in enumerate(ops):
            op_id = f"{label}:{index}"
            if op.kind == "read":
                self._read(op, index, op_id)
            else:
                self._write(caller, op, op_id)
            self.probe.tick()

    def publish_counts(self, queries):
        """Exact counts, from the census (the first sample of every query)."""
        probe = self.probe
        executions = [sample[2] for sample in probe.samples["engine.execute"]]
        executions = executions[: len(queries)]
        sizes = [sample[2]["bytes"] for sample in probe.samples["server.encode"]]
        sizes = sizes[: len(queries)]
        rows = max(sum(counts["rows"] for counts in executions), 1)
        probe.exact(
            "engine.instances_per_row",
            sum(counts["instances_retrieved"] for counts in executions) / rows, "count",
        )
        probe.exact(
            "engine.predicate_evals_per_row",
            sum(counts["predicate_evaluations"] for counts in executions) / rows, "count",
        )
        probe.exact(
            "engine.index_lookups_per_query",
            sum(counts["index_lookups"] for counts in executions) / len(queries), "count",
        )
        probe.exact(
            "server.response_bytes", statistics.median(sizes), "bytes", largest=max(sizes)
        )

    def replay_hit_rate(self, census_reads):
        """Result-cache hit rate of the reads after the first ``census_reads``."""
        reads = self.probe.samples["service.optimize"][census_reads:]
        return sum(sample[2]["hit"] for sample in reads) / len(reads)

    def publish(self):
        probe = self.probe
        nominal = {
            name: probe.nominal(name)
            for name in SERVICE_CHILDREN + SERVER_EDGES + ("service.execute", "server.dispatch")
        }
        # Every read left one sample of each name, so index i is read i.  A
        # read whose optimize missed (the first after a write) filled the
        # cache for the whole-entry calls that followed it: only hits have
        # a self time.
        hits = [
            index for index, sample in enumerate(probe.samples["service.optimize"])
            if sample[2]["hit"]
        ]
        service_self, server_self = [], []
        for index in hits:
            children = sum(nominal[name][index] for name in SERVICE_CHILDREN)
            edges = sum(nominal[name][index] for name in SERVER_EDGES)
            whole = nominal["service.execute"][index]
            service_self.append(whole - children)
            server_self.append(nominal["server.dispatch"][index] - edges - whole)
        rows = sum(sample[2]["rows"] for sample in probe.samples["engine.execute"])
        probe.timing("engine.plan_us", "engine.plan", "us", US)
        probe.timing("engine.execute_us", "engine.execute", "us", US)
        probe.metrics["engine.rows_per_s"] = metric(
            rows / sum(nominal["engine.execute"]), "rows/s", rows=rows
        )
        probe.timing("service.execute_us", "service.execute", "us", US)
        probe.derived("service.self_us", service_self, "us", US)
        probe.derived(
            "service.optimize_hit_us",
            [nominal["service.optimize"][index] for index in hits], "us", US,
        )
        probe.timing("server.decode_us", "server.decode", "us", US)
        probe.timing("server.encode_us", "server.encode", "us", US)
        probe.timing("server.dispatch_us", "server.dispatch", "us", US)
        probe.derived("server.self_us", server_self, "us", US)


#: Ops replayed plain and then spanned (or the reverse) before moving on:
#: twelve per caller, so a block holds whole write cycles and can run twice.
BLOCK = 24


def replay(probe, player, ops, passes):
    """Run ``ops`` block by block, each block plain and spanned; returns the overhead.

    The two legs of a block sit side by side in time and swap order from
    block to block, so host drift and cache warmth cancel; each leg is
    timed as a round is (busy stretches between host-speed samples).  The
    overhead is the median over blocks of 1 - plain time / spanned time,
    i.e. 1 - spanned / plain ops/s.
    """
    shares = []
    for number in range(passes):
        for offset in range(0, len(ops), BLOCK):
            block = ops[offset:offset + BLOCK]
            spanned_first = (number + offset // BLOCK) % 2 == 1
            seconds = {}
            for recording in (spanned_first, not spanned_first):
                probe.recording = recording
                try:
                    with probe.busy() as segments:
                        player.run(block, f"replay:{number}:{offset}")
                finally:
                    probe.recording = True
                seconds[recording] = segments.nominal_wall()
            shares.append(1.0 - seconds[False] / seconds[True])
    return summary_metric(shares, "ratio", ops=len(ops), passes=passes)


# ----------------------------------------------------------------------
# Part 2: layer probes
# ----------------------------------------------------------------------
def probe_data(probe, spec, shard_count):
    """``data``: cold generation, what a fresh process pays."""
    clear_generation_cache()
    probe.call(
        "data.generate",
        lambda: build_evaluation_setup(spec, query_count=1, shard_count=shard_count),
        op_id="data",
    )
    probe.metrics["data.generate_s"] = metric(probe.samples["data.generate"][-1][1], "s")


def probe_parse(probe, queries, reps):
    """``query``: text to ``Query``, what the gateway does to every request."""
    for rep in range(reps):
        for index, (text, _) in enumerate(queries):
            probe.call("query.parse", parse_query, text, op_id=f"parse:{rep}:{index}")
        probe.tick()
    probe.timing("query.parse_us", "query.parse", "us", US)


def probe_derive(probe, schema, store, reps):
    """``constraints``: re-deriving the write class's rules (runs under the write lock)."""
    deriver = DynamicRuleDeriver(schema)
    for rep in range(max(reps, 3)):
        probe.call(
            "constraints.derive", deriver.derive, store, [WRITE_CLASS],
            op_id=f"derive:{rep}",
        )
        probe.tick()
    probe.timing("constraints.derive_ms", "constraints.derive", "ms", MS)


def probe_engine_modes(probe, schema, store, queries, reps):
    """Same plans, same run: rowwise and parallel against vectorized.

    Reported as throughput ratios (mode / vectorized), so above 1.0 means
    the mode is faster.  Runs unpinned — parallel needs its second core —
    and unscaled: the three legs of one repetition sit side by side.
    """
    vectorized = VectorizedExecutor(schema, store)
    rowwise = QueryExecutor(schema, store)
    parallel = ParallelExecutor(schema, store, workers=2)
    planner = ConventionalPlanner(schema, vectorized.statistics(), execution_mode=ENGINE)
    plans = [planner.plan(query) for _, query in queries]

    def one_by_one(executor):
        for plan in plans:
            executor.execute_plan(plan)

    if ALL_CPUS:
        os.sched_setaffinity(0, ALL_CPUS)
    over_rowwise, over_parallel = [], []
    try:
        parallel.execute_plans(plans)  # forks the pool, warms its caches
        one_by_one(vectorized)
        for rep in range(max(reps, 3)):
            op_id = f"modes:{rep}"
            probe.call("engine.vectorized_pass", one_by_one, vectorized, op_id=op_id)
            probe.call("engine.rowwise_pass", one_by_one, rowwise, op_id=op_id)
            probe.call("engine.parallel_pass", parallel.execute_plans, plans, op_id=op_id)
            base = probe.samples["engine.vectorized_pass"][-1][1]
            over_rowwise.append(base / probe.samples["engine.rowwise_pass"][-1][1])
            over_parallel.append(base / probe.samples["engine.parallel_pass"][-1][1])
    finally:
        parallel.close()
        pin(PROGRAM_CPU)
    for name, ratios in (
        ("engine.rowwise_over_vectorized", over_rowwise),
        ("engine.parallel_over_vectorized", over_parallel),
    ):
        verdict = ratio_verdict(ratios)
        note = "unresolved: quartiles span 1.0" if verdict == "unresolved" else f"{verdict} 1.0"
        probe.derived(name, ratios, "ratio", note=note)


def probe_rewarm(probe, schema, store, queries, reps):
    """First execute after one store write, over the warm median."""
    executor = VectorizedExecutor(schema, store)
    planner = ConventionalPlanner(schema, executor.statistics(), execution_mode=ENGINE)
    touching = [query for _, query in queries if WRITE_CLASS in query.classes]
    plan = planner.plan(touching[len(touching) // 2] if touching else queries[0][1])
    victim = store.instances(WRITE_CLASS)[0]
    ratios = []
    for rep in range(max(reps, 3)):
        for _ in range(5):
            probe.call("engine.warm_execute", executor.execute_plan, plan)
        warm = statistics.median(
            sample[1] for sample in probe.samples["engine.warm_execute"][-5:]
        )
        # An update to the same values still bumps the shard's version.
        store.update(WRITE_CLASS, victim.oid, dict(victim.values))
        probe.call(
            "engine.rewarm_execute", executor.execute_plan, plan, op_id=f"rewarm:{rep}"
        )
        ratios.append(probe.samples["engine.rewarm_execute"][-1][1] / warm)
        probe.tick()
    probe.derived("engine.rewarm_ratio", ratios, "ratio")


def probe_store(probe, spec, reps):
    """``engine.storage`` mutation methods and statistics, on a scratch store."""
    setup = build_evaluation_setup(spec, query_count=1)
    store = setup.store
    stream = WriteStream(0, 0, setup.schema, rows_of(store, WRITE_CLASS))
    for _ in range(20 * reps):
        values, bump = stream.next_cycle()
        instance = probe.call("store.insert", store.insert, WRITE_CLASS, values)
        probe.call("store.update", store.update, WRITE_CLASS, instance.oid, bump)
        probe.call("store.delete", store.delete, WRITE_CLASS, instance.oid)
        probe.tick()
    for rep in range(max(reps, 3)):
        probe.call(
            "engine.stats_collect", DatabaseStatistics.collect, setup.schema, store,
            op_id=f"stats:{rep}",
        )
        probe.tick()
    probe.timing("engine.store_insert_us", "store.insert", "us", US)
    probe.timing("engine.store_update_us", "store.update", "us", US)
    probe.timing("engine.store_delete_us", "store.delete", "us", US)
    probe.timing("engine.stats_collect_ms", "engine.stats_collect", "ms", MS)


def durable_manager(service, data_dir):
    """Attach a fresh WAL (fsync ``always``) to ``service``; returns the manager."""
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    manager = DurabilityManager(data_dir, fsync_policy="always")
    manager.open(service.store)  # fresh dir: adopts the store
    service.attach_durability(manager)
    return manager


def probe_mutations(probe, spec, reps, data_dir):
    """``service.mutate`` three ways; the differences are the layers beneath.

    Memory-only, with a ``DurabilityManager`` attached (fsync ``always``),
    and with dynamic rules, interleaved cycle by cycle: durable - memory =
    the WAL commit, dynamic - memory = the rules refresh.
    """
    services, streams = {}, {}
    manager = None
    cycles = 10 * reps
    changed = 0
    try:
        for label in ("memory", "durable", "dynamic"):
            setup, service = build_service(spec, 1, label == "dynamic")
            services[label] = service
            streams[label] = WriteStream(0, 0, setup.schema, rows_of(setup.store, WRITE_CLASS))
        manager = durable_manager(services["durable"], data_dir)
        for cycle in range(cycles):
            for label, service in services.items():
                values, bump = streams[label].next_cycle()
                name = f"service.mutate.{label}"
                op_id = f"write:{label}:{cycle}"
                inserted = probe.call(
                    name, service.mutate, "insert", WRITE_CLASS, None, values, op_id=op_id
                )
                oid = inserted.oids[0]
                updated = probe.call(
                    name, service.mutate, "update", WRITE_CLASS, oid, bump, op_id=op_id
                )
                deleted = probe.call(
                    name, service.mutate, "delete", WRITE_CLASS, oid, op_id=op_id
                )
                if label == "dynamic":
                    changed += sum(
                        result.rules_changed for result in (inserted, updated, deleted)
                    )
                probe.tick()
        stats = manager.stats()
        wal_dir = os.path.join(data_dir, "wal")
        wal_bytes = sum(
            os.path.getsize(os.path.join(wal_dir, name)) for name in os.listdir(wal_dir)
        )
        for rep in range(max(reps, 3)):
            probe.call("durability.snapshot", manager.snapshot, op_id=f"snapshot:{rep}")
            probe.tick()
    finally:
        for service in services.values():
            service.close()
        if manager is not None:
            manager.close()
    writes = 3 * cycles
    medians = {
        label: statistics.median(probe.nominal(f"service.mutate.{label}"))
        for label in services
    }
    probe.timing("service.mutate_us", "service.mutate.memory", "us", US)
    probe.timing("service.mutate_durable_us", "service.mutate.durable", "us", US)
    probe.metrics["service.rules_refresh_us"] = metric(
        (medians["dynamic"] - medians["memory"]) * US, "us",
        note="median with dynamic rules - median memory-only", n=writes,
    )
    probe.exact("service.rules_changed_share", changed / writes, "ratio", writes=writes)
    probe.metrics["durability.commit_us"] = metric(
        (medians["durable"] - medians["memory"]) * US, "us",
        note="median durable - median memory-only", n=writes,
    )
    probe.exact("durability.fsyncs_per_write", stats["wal_fsyncs"] / writes, "count")
    probe.exact("durability.wal_bytes_per_write", wal_bytes / writes, "bytes")
    probe.timing("durability.snapshot_ms", "durability.snapshot", "ms", MS)


# ----------------------------------------------------------------------
# Part 3: the served write-mix session
# ----------------------------------------------------------------------
def served_session(probe, inputs, scale, reps):
    """Boot a durable server: single-connection reads, mixed rounds, crash."""
    workload = WORKLOADS["gateway_write_mix"]
    state = workload.setup(inputs, scale)
    try:
        client = state.lanes[0].client
        for rep in range(reps):
            for index, (text, _) in enumerate(inputs.queries):
                probe.call(
                    "tcp.roundtrip", state.loop.run_until_complete, client.execute(text),
                    op_id=f"roundtrip:{rep}:{index}", key=text,
                )
                probe.tick()
        rounds = [workload.round(state, probe.speed, scale) for _ in range(SESSION_ROUNDS)]
        stats = state.loop.run_until_complete(client.stats())
        verdict = workload.crash_and_recover(state)
    finally:
        workload.teardown(state)
        pin(PROGRAM_CPU)
    probe.metrics["server.boot_s"] = metric(state.server.boot_s, "s")
    # The split pools the session's rounds: two of them leave ten reads
    # beyond the reads' p99; the writes (a quarter of the ops) report the
    # highest percentile they support.
    pooled = RoundLog(segments=None, ops=[op for log in rounds for op in log.ops])
    for position, (start, seconds, family) in enumerate(pooled.ops):
        probe.tracer.add(
            f"session:{position}", f"tcp.request.{family}", None,
            int(start * 1e9), int((start + seconds) * 1e9),
        )
    for family in ("read", "write"):
        p50, tail = latency_metrics([pooled], probe.speed, family)
        probe.metrics[f"server.{family}_p50_ms"] = p50
        probe.metrics[f"server.{family}_p99_ms"] = tail
    gateway = stats["gateway"]
    probe.exact("server.peak_active", gateway["admission"]["peak_active"], "count")
    probe.exact("server.errors", sum(gateway["errors"].values()), "count")
    probe.exact(
        "server.coalesced_share", stats["service"]["single_flight"]["dedup_rate"], "ratio"
    )
    probe.metrics["durability.recovery_ms_per_1k_frames"] = metric(
        verdict.recovery_s * MS * 1000 / max(verdict.replayed_frames, 1), "ms",
        frames=verdict.replayed_frames, note="includes loading the snapshot",
    )
    probe.exact("durability.lost_acked_writes", verdict.lost, "count")
    failed = sum(log.failed for log in rounds) + verdict.lost
    problems = [log.first_error for log in rounds if log.first_error]
    return failed, len(pooled.ops), problems


def probe_transport(probe):
    """TCP round trip minus in-process dispatch, query by query."""
    round_trips = probe.by_key("tcp.roundtrip")
    dispatches = probe.by_key("server.dispatch")
    probe.derived(
        "server.transport_us",
        [trip - dispatches[text] for text, trip in round_trips.items()], "us", US,
    )


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
#: Timed rounds of the served session.
SESSION_ROUNDS = 2


def run_traced(workload, seed, seconds, scale):
    """One traced run: every per-layer metric, on this workload's inputs."""
    speed = HostSpeed()
    try:
        return _run_traced(workload, seed, seconds, scale, speed)
    finally:
        speed.close()


def _run_traced(workload, seed, seconds, scale, speed):
    tracer = Tracer()
    probe = Probe(speed, tracer)
    # server.* and durability.* are always measured on what ``repro serve``
    # serves, configured like the write-mix session's server.
    served = Probe(speed, tracer)
    served_workload = WORKLOADS["gateway_write_mix"]
    reps = scale.probe_reps
    passes = scale.rounds(seconds)
    inputs = workload.inputs(seed, scale)
    served_inputs = inputs if workload.over_wire else served_workload.inputs(seed, scale)
    isolate_bench_heap()
    pin(PROGRAM_CPU)
    speed.sample()

    _, shard_count, dynamic_rules = workload.probe_config(scale)
    served_spec = SPECS[served_workload.probe_config(scale)[0]]
    data_dir = str(OUT_DIR / f"probe-{os.getpid()}")
    queries = inputs.queries[: scale.queries]
    with contextlib.ExitStack() as stack:
        stack.callback(shutil.rmtree, data_dir, ignore_errors=True)
        loop = asyncio.new_event_loop()
        stack.callback(loop.close)
        setup, service = build_service(inputs.spec, shard_count, dynamic_rules)
        stack.callback(service.close)
        _, served_service = build_service(served_spec, 1, True)
        stack.callback(served_service.close)
        if workload is served_workload:
            stack.callback(durable_manager(service, data_dir).close)

        def pipeline(on, of, over):
            player = PipelineReplay(on, of, loop, over)
            stack.callback(player.close)
            return player

        # Part 1: census, then the first ops of W's round, plain and spanned;
        # then the half of the read path W's ops never enter, spans only;
        # then the served configuration's read path.
        main, side = pipeline(probe, service, queries), OptimizerReplay(probe, service)
        if not workload.executes:
            main, side = side, main
        main.run(census(inputs.queries), "census")
        main.publish_counts(inputs.queries)
        # A pipeline op runs its query three times and ships the rows; an
        # optimizer op costs about an eighth of that, so it replays more.
        ops = round_prefix(
            workload, inputs, scale.replay_ops * (1 if workload.executes else 8)
        )
        overhead = replay(probe, main, ops, passes)
        main.publish()
        hit_rate = main.replay_hit_rate(len(inputs.queries)) if workload.executes else None
        for rep in range(max(1, reps // 2)):
            side.run(census(queries), f"side:{rep}")
        side.publish_counts(queries)
        side.publish()
        served_pipeline = pipeline(served, served_service, served_inputs.queries)
        for rep in range(reps):
            served_pipeline.run(census(served_inputs.queries), f"served:{rep}")
        served_pipeline.publish_counts(served_inputs.queries)
        served_pipeline.publish()

        # Part 2: what no op of W exercises.
        probe_data(probe, inputs.spec, shard_count)
        probe_parse(probe, queries, reps)
        probe_derive(probe, setup.schema, setup.store, reps)
        probe_engine_modes(probe, setup.schema, setup.store, queries, reps)
        probe_rewarm(probe, setup.schema, setup.store, queries, reps)
        probe_store(probe, inputs.spec, reps)
        probe_mutations(probe, served_spec, reps, data_dir)

    # Part 3: the served write-mix session.
    failed, session_ops, problems = served_session(served, served_inputs, scale, reps)
    probe_transport(served)

    metrics = dict(probe.metrics)
    metrics.update(
        (name, entry) for name, entry in served.metrics.items()
        if name.startswith(("server.", "durability."))
    )
    if hit_rate is None:
        metrics["service.result_hit_rate"] = metric(
            0.0, "ratio", note="bypassed: every op passes use_cache=False"
        )
    else:
        metrics["service.result_hit_rate"] = metric(
            hit_rate, "ratio", note="service.optimize calls of the spanned replay"
        )
    metrics["trace.overhead_share"] = overhead
    # Second-long single calls are scaled as set-ups are: by the run's median kernel.
    for name in ("data.generate_s", "server.boot_s"):
        raw = metrics[name]["value"]
        metrics[name] = metric(speed.scale_by_run(raw), "s", raw=raw)
    trace_path = OUT_DIR / f"trace-{workload.name}.jsonl"
    tracer.write(str(trace_path))
    attempted = 2 * passes * len(ops) + session_ops
    return {
        "workload": workload.name,
        "seed": seed,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "rounds": 2 * passes,
        "ops_per_round": len(ops),
        "host_kernel_ms": speed.median_kernel() * MS,
        "metrics": metrics,
        "accounting": read_accounting(served),
        "notes": probe.notes,
        "trace_path": str(trace_path),
        "spans": len(tracer.spans),
        "problems": problems[:5],
    }


def read_accounting(probe):
    """How a single-connection read's round trip divides among the layers.

    Means over the distinct queries of each query's median, so the parts
    add up exactly: the gateway's self time is its dispatch minus decode,
    ``service.execute`` and encode; transport is the round trip minus the
    dispatch.  (The metrics of the same names are medians, which do not.)
    """
    mean = {
        name: statistics.mean(probe.by_key(name).values())
        for name in SERVER_EDGES + ("service.execute", "server.dispatch", "tcp.roundtrip")
    }
    parts = {
        "server.decode": mean["server.decode"],
        "service.execute": mean["service.execute"],
        "server.encode": mean["server.encode"],
        "server.self": mean["server.dispatch"]
        - mean["server.decode"] - mean["service.execute"] - mean["server.encode"],
        "server.transport": mean["tcp.roundtrip"] - mean["server.dispatch"],
    }
    parts["sum"] = sum(parts.values())
    parts["tcp.roundtrip"] = mean["tcp.roundtrip"]
    return {name: value * US for name, value in parts.items()}


def format_accounting(parts):
    lines = ["single-connection read, mean over queries, us on the nominal host:"]
    for name, value in parts.items():
        lines.append(f"  {name:<24} {value:>12.1f}")
    return "\n".join(lines)
