"""The four spine workloads, each driven through a public entry point.

=====================  ====================================================
``optimize_cold``      in-process ``service.optimize(q, use_cache=False)``
``execute_scan``       in-process ``service.execute(q)`` on a 2-shard store
``gateway_read``       TCP ``execute`` against a ``repro serve`` subprocess
``gateway_write_mix``  the same plus a WAL (fsync always), dynamic rules and
                       every 4th op a write
=====================  ====================================================

Every workload is closed loop: a caller sends its next op only after the
previous reply.  The in-process workloads have one caller, pinned to
``PROGRAM_CPU``; the TCP workloads have one ``repro serve`` child pinned
there and one load-generator process (this one) holding two connections
on ``LOADGEN_CPU``.  The host-speed reference (:mod:`measure`) always
samples ``PROGRAM_CPU``.
"""

import asyncio
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from inputs import SPECS, WRITE_CLASS, WriteStream, workload_queries
from measure import LOADGEN_CPU, PROGRAM_CPU, Segments, pin
from oracle import AnswerOracle, WriteLedger, check_durability, rows_of

from repro.data import build_evaluation_setup
from repro.data.generator import clear_generation_cache
from repro.query import parse_query
from repro.server.client import AsyncGatewayClient
from repro.service import OptimizationService

HERE = Path(__file__).resolve().parent
SOURCE_DIR = HERE.parents[1] / "src"
OUT_DIR = HERE / "out"

ENGINE = "vectorized"
CLIENTS = 2
#: One write per this many ops of a write-mix client.
WRITE_EVERY = 4
#: Ops of one client between two host-speed samples on the TCP workloads;
#: on the write mix this is exactly one insert/update/delete cycle.
BURST = 3 * WRITE_EVERY
SERVING = re.compile(r"serving \S+ on ([\d.]+):(\d+) ")


@dataclass
class Inputs:
    """Bench-side inputs of one run: never timed."""

    seed: int
    spec: object
    oracle: AnswerOracle
    #: The workload's distinct queries, as ``(text, query)``.
    queries: list


@dataclass
class RoundLog:
    """What one timed round observed at the caller."""

    segments: Segments
    #: ``(start, seconds, kind)`` per op; kind is ``read`` or ``write``.
    ops: list = field(default_factory=list)
    failed: int = 0
    first_error: str = ""

    def fail(self, error):
        self.failed += 1
        if not self.first_error:
            self.first_error = repr(error)


@dataclass
class CheckReport:
    """Outcome of the correctness checks that follow the timed rounds."""

    checked: int = 0
    failed: int = 0
    cost_original: int = 0
    cost_optimized: int = 0
    problems: list = field(default_factory=list)

    def problem(self, message):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    @property
    def cost_ratio(self):
        return self.cost_optimized / self.cost_original


class Cycle:
    """Every query once per cycle, in a fresh seeded order each cycle.

    A fixed order would let the collector's and allocator's own rhythms
    lock onto it — the same few queries would absorb every full
    collection, a different few for every seed.  Reshuffling spreads such
    pauses over all queries without changing how often each one runs.
    """

    def __init__(self, queries, seed, label):
        self._queries = list(queries)
        self._rng = random.Random(f"{seed}-order-{label}")
        self._position = len(self._queries)

    def next(self):
        if self._position == len(self._queries):
            self._rng.shuffle(self._queries)
            self._position = 0
        item = self._queries[self._position]
        self._position += 1
        return item


@dataclass
class Op:
    """One op of a caller: a read of one query, or one step of a write cycle."""

    kind: str  # read | insert | update | delete
    text: str = ""
    query: object = None
    values: dict = None

    @property
    def family(self):
        return "read" if self.kind == "read" else "write"


class OpStream:
    """One caller's seeded op sequence.

    Reads cycle the caller's queries; with ``write_rows`` every 4th op is
    a write, cycling insert -> update (that row) -> delete (that row).
    """

    def __init__(self, queries, seed, label, write_rows=None):
        self._cycle = Cycle(queries, seed, label)
        self._write_rows = write_rows
        self._position = 0
        self._bump = None

    def next(self):
        position = self._position
        self._position += 1
        if self._write_rows is None or position % WRITE_EVERY != WRITE_EVERY - 1:
            text, query = self._cycle.next()
            return Op("read", text, query)
        phase = position // WRITE_EVERY % 3
        if phase == 0:
            row, self._bump = self._write_rows.next_cycle()
            return Op("insert", values=row)
        if phase == 1:
            return Op("update", values=self._bump)
        return Op("delete")


def build_inputs(seed, spec_name, count):
    """The oracle and the workload's fixed query set."""
    spec = SPECS[spec_name]
    oracle = AnswerOracle(spec)
    return Inputs(
        seed=seed, spec=spec, oracle=oracle, queries=workload_queries(oracle.setup, count)
    )


def build_service(spec, shard_count, dynamic_rules):
    """Database and service wired the way ``repro serve`` wires them."""
    setup = build_evaluation_setup(spec, query_count=1, shard_count=shard_count)
    service = OptimizationService(
        setup.schema,
        repository=setup.repository,
        cost_model=setup.cost_model,
        store=setup.store,
        execution_mode=ENGINE,
    )
    if dynamic_rules:
        service.enable_dynamic_rules()
    return setup, service


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
@dataclass
class ServiceState:
    service: OptimizationService
    stream: OpStream


class _InProcessWorkload:
    """One caller thread calling one service method in a loop."""

    name = ""
    over_wire = False
    #: Whether an op executes its query (False: it stops at the optimizer).
    executes = True
    shard_count = 1
    dynamic_rules = False

    def spec_name(self, scale):
        raise NotImplementedError

    def query_count(self, scale):
        raise NotImplementedError

    def ops_per_round(self, scale):
        raise NotImplementedError

    def call(self, service, query):
        raise NotImplementedError

    def inputs(self, seed, scale):
        return build_inputs(seed, self.spec_name(scale), self.query_count(scale))

    def streams(self, inputs):
        """The callers' op sequences from their start: here, one caller."""
        return [OpStream(inputs.queries, inputs.seed, self.name)]

    def setup(self, inputs, scale):
        """The program's set-up: generate, build the service, warm up."""
        pin(PROGRAM_CPU)
        # A fresh process has no generation replay cache; neither may a
        # repeated set-up measurement.
        clear_generation_cache()
        _, service = build_service(inputs.spec, self.shard_count, self.dynamic_rules)
        for _, query in inputs.queries:
            self.call(service, query)
        return ServiceState(service=service, stream=self.streams(inputs)[0])

    def round(self, state, speed, scale):
        log = RoundLog(segments=Segments(speed))
        segments = log.segments
        segments.start()
        for _ in range(self.ops_per_round(scale)):
            op = state.stream.next()
            start = time.perf_counter()
            try:
                self.call(state.service, op.query)
            except Exception as exc:  # a failed op is a result, not a crash
                log.fail(exc)
            log.ops.append((start, time.perf_counter() - start, "read"))
            segments.checkpoint()
        segments.stop()
        return log

    def probe_config(self, scale):
        """``(database, shards, dynamic rules)`` the layer probes reproduce."""
        return self.spec_name(scale), self.shard_count, self.dynamic_rules

    def peak_rss_mb(self, state):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def teardown(self, state):
        state.service.close()


class OptimizeCold(_InProcessWorkload):
    """The paper's algorithm and nothing else; every op misses every result cache."""

    name = "optimize_cold"
    executes = False
    dynamic_rules = True

    def spec_name(self, scale):
        return scale.optimize_db

    def query_count(self, scale):
        return scale.optimize_queries

    def ops_per_round(self, scale):
        return scale.optimize_ops

    def call(self, service, query):
        return service.optimize(query, use_cache=False)

    def check(self, state, inputs):
        """Run every optimized query rowwise on the oracle's store."""
        report = CheckReport()
        oracle = inputs.oracle
        for text, query in inputs.queries:
            optimized = self.call(state.service, query).optimized
            expected = oracle.expected(text, query)
            result = oracle.run(optimized)
            report.checked += 1
            report.cost_original += expected.cost
            report.cost_optimized += result.cost
            if result.answer(query.projections) != expected.answer:
                report.problem(f"optimized answer differs: {text}")
        return report


class ExecuteScan(_InProcessWorkload):
    """The engine does most of the work; optimizer results come from the cache."""

    name = "execute_scan"
    shard_count = 2

    def spec_name(self, scale):
        return scale.execute_db

    def query_count(self, scale):
        return scale.queries

    def ops_per_round(self, scale):
        return scale.execute_ops

    def call(self, service, query):
        return service.execute(query, execution_mode=ENGINE)

    def check(self, state, inputs):
        report = CheckReport()
        oracle = inputs.oracle
        for text, query in inputs.queries:
            envelope = self.call(state.service, query)
            expected = oracle.expected(text, query)
            report.checked += 1
            report.cost_original += expected.cost
            report.cost_optimized += oracle.run(envelope.executed_query).cost
            if not oracle.verify(text, query, envelope.rows):
                report.problem(f"answer differs: {text}")
        return report


# ----------------------------------------------------------------------
# TCP workloads
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``python -m repro serve`` child on ``PROGRAM_CPU``, from spawn to reaped."""

    def __init__(self, arguments, boot_timeout=60.0):
        environment = dict(os.environ, PYTHONPATH=str(SOURCE_DIR))
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"] + arguments,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=environment,
            text=True,
        )
        # Still single-threaded this early; every later thread inherits it.
        pin(PROGRAM_CPU, self.process.pid)
        self.lines = []
        # readline() has no timeout: a watchdog kills a child that never
        # announces itself, which turns the hang into EOF.
        watchdog = threading.Timer(boot_timeout, self.process.kill)
        watchdog.start()
        try:
            match = None
            while match is None:
                line = self.process.stdout.readline()
                if not line:
                    self.kill()
                    raise RuntimeError(
                        "repro serve exited before serving: " + "".join(self.lines)
                    )
                self.lines.append(line)
                match = SERVING.search(line)
        finally:
            watchdog.cancel()
        self.boot_s = time.perf_counter() - start
        self.host, self.port = match.group(1), int(match.group(2))

    @property
    def pid(self):
        return self.process.pid

    def peak_rss_mb(self):
        """The child's high-water RSS (``VmHWM``), read while it is alive."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def kill(self):
        """SIGKILL and reap: the crash the durability check recovers from."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()

    def stop(self, timeout=20.0):
        """SIGTERM (graceful drain), escalating to SIGKILL; always reaps."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        self.kill()


@dataclass
class ClientLane:
    """One connection and its op sequence."""

    client: AsyncGatewayClient
    queries: list
    stream: OpStream
    #: The row this lane's current write cycle inserted (0: none).
    oid: int = 0


@dataclass
class GatewayState:
    server: ServerProcess
    loop: asyncio.AbstractEventLoop
    lanes: list
    data_dir: str = ""
    ledger: WriteLedger = None
    schema: object = None


class _GatewayWorkload:
    """Two connections, each a closed loop, against one served gateway."""

    name = ""
    over_wire = True
    executes = True
    durable = False

    def ops_per_round(self, scale):
        return scale.gateway_ops

    def inputs(self, seed, scale):
        return build_inputs(seed, scale.gateway_db, scale.queries)

    def streams(self, inputs):
        """The callers' op sequences from their start: one per connection.

        Client i owns the queries with index = i (mod 2): no two in-flight
        requests are ever identical, so nothing coalesces.
        """
        initial = rows_of(inputs.oracle.store, WRITE_CLASS) if self.durable else None
        streams = []
        for index in range(CLIENTS):
            write_rows = None
            if self.durable:
                write_rows = WriteStream(inputs.seed, index, inputs.oracle.schema, initial)
            streams.append(
                OpStream(
                    inputs.queries[index::CLIENTS], inputs.seed, f"client-{index}",
                    write_rows,
                )
            )
        return streams

    def server_arguments(self, scale, data_dir):
        arguments = ["--db", scale.gateway_db, "--engine", ENGINE]
        if self.durable:
            # Flush policy: every commit is fsynced before it is acked.
            arguments += [
                "--data-dir", data_dir, "--wal-fsync", "always", "--dynamic-rules",
            ]
        return arguments

    def setup(self, inputs, scale):
        """Boot to the "serving" line, connect, warm every cache."""
        pin(LOADGEN_CPU)
        data_dir = ""
        if self.durable:
            data_dir = str(OUT_DIR / f"data-{os.getpid()}")
            shutil.rmtree(data_dir, ignore_errors=True)
            os.makedirs(data_dir)
        server = ServerProcess(self.server_arguments(scale, data_dir))
        loop = asyncio.new_event_loop()
        state = GatewayState(
            server=server,
            loop=loop,
            lanes=[],
            data_dir=data_dir,
            schema=inputs.oracle.schema,
        )
        try:
            loop.run_until_complete(self._connect(state, inputs))
        except BaseException:
            self.teardown(state)
            raise
        return state

    async def _connect(self, state, inputs):
        for index, stream in enumerate(self.streams(inputs)):
            client = await AsyncGatewayClient.connect(
                state.server.host, state.server.port, client_id=f"spine-{index}"
            )
            state.lanes.append(
                ClientLane(
                    client=client, queries=inputs.queries[index::CLIENTS], stream=stream
                )
            )
        if self.durable:
            stats = await state.lanes[0].client.stats()
            state.ledger = WriteLedger(
                WRITE_CLASS,
                rows_of(inputs.oracle.store, WRITE_CLASS),
                stats["service"]["store_version"],
            )
        # Warm-up: two passes over each client's queries, reads only.
        for _ in range(2):
            await asyncio.gather(*(self._warm(lane) for lane in state.lanes))

    @staticmethod
    async def _warm(lane):
        for text, _ in lane.queries:
            await lane.client.execute(text)

    @staticmethod
    async def _issue(state, lane, op):
        """Send one op and, for a write, book the acknowledgement."""
        client = lane.client
        if op.kind == "read":
            await client.execute(op.text)
        elif op.kind == "insert":
            lane.oid = 0
            reply = await client.insert(WRITE_CLASS, op.values)
            lane.oid = reply["oids"][0]
            state.ledger.ack("insert", lane.oid, op.values)
        elif not lane.oid:
            raise RuntimeError("no inserted row to write to (the insert failed)")
        elif op.kind == "update":
            await client.update(WRITE_CLASS, lane.oid, op.values)
            state.ledger.ack("update", lane.oid, op.values)
        else:
            await client.delete(WRITE_CLASS, lane.oid)
            state.ledger.ack("delete", lane.oid)

    async def _burst(self, state, lane, count, log):
        for _ in range(count):
            op = lane.stream.next()
            start = time.perf_counter()
            try:
                await self._issue(state, lane, op)
            except Exception as exc:  # a failed op is a result, not a crash
                log.fail(exc)
            log.ops.append((start, time.perf_counter() - start, op.family))

    async def _round(self, state, speed, ops):
        log = RoundLog(segments=Segments(speed))
        done = 0
        while done < ops:
            count = min(BURST, ops - done)
            log.segments.start()
            await asyncio.gather(
                *(self._burst(state, lane, count, log) for lane in state.lanes)
            )
            log.segments.stop()
            speed.sample()
            done += count
        return log

    def round(self, state, speed, scale):
        return state.loop.run_until_complete(
            self._round(state, speed, self.ops_per_round(scale))
        )

    def check(self, state, inputs):
        return state.loop.run_until_complete(self._check(state, inputs))

    async def _check(self, state, inputs):
        """Answers and costs over the wire at the quiescent state, then counters."""
        report = CheckReport()
        oracle = inputs.oracle
        client = state.lanes[0].client
        for text, query in inputs.queries:
            expected = oracle.expected(text, query)
            report.checked += 1
            try:
                answer = await client.execute(text)
                optimized = await client.optimize(text)
            except Exception as exc:
                report.problem(f"check request failed: {exc!r}")
                continue
            if not oracle.verify(text, query, answer["rows"]):
                report.problem(f"answer differs: {text}")
            report.cost_original += expected.cost
            report.cost_optimized += oracle.run(
                parse_query(optimized["optimized_query"])
            ).cost
        stats = await client.stats()
        followers = stats["service"]["single_flight"]["followers"]
        rejected = stats["gateway"]["admission"]["rejected"]
        errors = sum(stats["gateway"]["errors"].values())
        for label, count in (
            ("single-flight followers", followers),
            ("admission rejections", rejected),
            ("error replies", errors),
        ):
            if count:
                report.failed += count
                report.problems.append(f"{count} {label} reported by stats")
        return report

    def probe_config(self, scale):
        """``(database, shards, dynamic rules)`` the layer probes reproduce."""
        return scale.gateway_db, 1, self.durable

    def peak_rss_mb(self, state):
        return state.server.peak_rss_mb()

    def crash_and_recover(self, state):
        """SIGKILL the server, recover its data dir, compare with the ledger."""
        state.server.kill()
        return check_durability(state.data_dir, state.schema, state.ledger)

    def teardown(self, state):
        try:
            for lane in state.lanes:
                state.loop.run_until_complete(lane.client.close())
        finally:
            state.server.stop()
            state.loop.close()
            if state.data_dir:
                shutil.rmtree(state.data_dir, ignore_errors=True)


class GatewayRead(_GatewayWorkload):
    """The wire and the gateway dominate; every cache hits."""

    name = "gateway_read"


class GatewayWriteMix(_GatewayWorkload):
    """Writes beside reads: lock, WAL + fsync, rule re-derivation, invalidation."""

    name = "gateway_write_mix"
    durable = True

    def check(self, state, inputs):
        report = super().check(state, inputs)
        verdict = self.crash_and_recover(state)
        report.checked += state.ledger.acked
        if verdict.lost:
            report.failed += verdict.lost
            report.problems.append(
                f"{verdict.lost} acked write(s) missing after SIGKILL + recover"
            )
        return report


WORKLOADS = {
    workload.name: workload
    for workload in (OptimizeCold(), ExecuteScan(), GatewayRead(), GatewayWriteMix())
}
