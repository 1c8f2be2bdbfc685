"""Command-line interface.

``python -m repro`` optimizes a query written in the paper's five-part
notation against one of the bundled schemas and prints the transformation
trace, the predicate classification and the transformed query.  It is a thin
wrapper over the library — handy for poking at the optimizer without writing
a script.

Three subcommands wrap the serving layer:

* ``python -m repro serve`` — start the asyncio query gateway over a
  generated evaluation database (Table 4.1 spec selected with ``--db``).
  ``--replicate-on PORT`` additionally streams WAL frames to read
  replicas; ``--follow HOST:PORT`` starts a read-only replica of such a
  primary instead of generating a database.
* ``python -m repro route`` — start the consistent-hash query router
  over one primary and N replica gateways (reads fan out by structural
  query key, mutations go to the primary, read-your-writes enforced).
* ``python -m repro bench-client`` — drive a served gateway (or several,
  with ``--endpoints``) with the multi-client load generator and report
  p50/p95 latency, rows/s and the single-flight dedup rate (optionally
  persisting them as JSON).

A further subcommand, ``python -m repro lint``, runs the static invariant
checker (:mod:`repro.analysis`) over the source tree — the same driver
CI's ``static-analysis`` job gates on.

Examples
--------
Optimize the paper's Figure 2.3 query against the Figure 2.1 schema::

    python -m repro --schema example \
        '(SELECT {vehicle.vehicle#, cargo.desc, cargo.quantity} { }
          {vehicle.desc = "refrigerated truck", supplier.name = "SFI"}
          {collects, supplies} {supplier, cargo, vehicle})'

Run the full experiment suite instead::

    python -m repro --experiments

Serve the DB2 database on the vectorized engine, then load it::

    python -m repro serve --db DB2 --engine vectorized --port 7431
    python -m repro bench-client --port 7431 --clients 16 --requests 20
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional

from .constraints import ConstraintRepository, build_example_constraints
from .core import OptimizerConfig
from .data import build_evaluation_constraints, build_evaluation_schema
from .query import format_query, parse_query
from .schema import build_example_schema
from .service import OptimizationService

#: Named schema/constraint bundles selectable from the command line.
BUNDLES = {
    "example": (build_example_schema, build_example_constraints),
    "evaluation": (build_evaluation_schema, build_evaluation_constraints),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Semantic query optimization (Pang, Lu, Ooi — ICDE 1991): "
            "optimize a query in the paper's five-part notation."
        ),
        epilog=(
            "subcommands: 'repro serve' starts the async query gateway "
            "(primary, replica, or standalone), 'repro route' starts the "
            "consistent-hash query router over a replica fleet, "
            "'repro bench-client' load-tests a served gateway, "
            "'repro lint' runs the static invariant checker "
            "(each has its own --help)."
        ),
    )
    parser.add_argument(
        "query",
        nargs="?",
        help="query text, e.g. '(SELECT {cargo.desc} { } {...} {collects} {cargo, vehicle})'",
    )
    parser.add_argument(
        "--schema",
        choices=sorted(BUNDLES),
        default="example",
        help="which bundled schema + constraint set to optimize against",
    )
    parser.add_argument(
        "--no-class-elimination",
        action="store_true",
        help="disable the class elimination rule",
    )
    parser.add_argument(
        "--priority-queue",
        action="store_true",
        help="use the Section 4 priority queue",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="maximum number of transformations to apply",
    )
    parser.add_argument(
        "--experiments",
        action="store_true",
        help="run the full experiment suite instead of optimizing a query",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="with --experiments: use small workloads",
    )
    parser.add_argument(
        "--engine",
        choices=["rowwise", "vectorized"],
        default=None,
        help="execution engine used by --execute and the experiments "
        "(default: vectorized)",
    )
    parser.add_argument(
        "--execute",
        action="store_true",
        help=(
            "also execute the original and optimized query against a "
            "generated demo database and report the measured cost counters"
        ),
    )
    return parser


def _execute_comparison(args: argparse.Namespace, schema, constraints, service, result) -> None:
    """Run the original and optimized query on a demo database and report."""
    from .data import DatabaseGenerator, DatabaseSpec
    from .engine import CostModel

    database = DatabaseGenerator(schema, constraints, seed=7).generate(
        DatabaseSpec("demo", class_cardinality=60, relationship_cardinality=90)
    )
    service.attach_store(database.store)
    cost_model = CostModel(schema, database.store.statistics())
    original = service.execute(
        result.original, optimize=False, execution_mode=args.engine
    )
    optimized = service.execute(
        result.original, optimize=True, execution_mode=args.engine
    )
    print(f"\nExecution ({original.execution_mode} engine, demo database):")
    print(f"  original : {original.summary()}")
    print(f"             {original.metrics.as_dict()}")
    print(f"  optimized: {optimized.summary()}")
    print(f"             {optimized.metrics.as_dict()}")
    original_cost = cost_model.measured_cost(original.metrics)
    optimized_cost = cost_model.measured_cost(optimized.metrics)
    ratio = optimized_cost / original_cost if original_cost else 1.0
    print(
        f"  measured cost: {original_cost:.1f} -> {optimized_cost:.1f} "
        f"units (ratio {ratio:.2f})"
    )
    from .query import answers_match

    agree = answers_match(
        schema,
        database.store,
        result.original,
        result.optimized,
        execution_mode=args.engine,
    )
    print(f"  answers agree: {agree}")


def run_query(args: argparse.Namespace) -> int:
    """Optimize (and optionally execute) one query and print the outcome."""
    build_schema, build_constraints = BUNDLES[args.schema]
    schema = build_schema()
    constraints = build_constraints()
    repository = ConstraintRepository(schema)
    repository.add_all(constraints)

    try:
        query = parse_query(args.query, name="cli")
        query.validate(schema)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    service = OptimizationService(
        schema,
        repository=repository,
        config=OptimizerConfig(
            enable_class_elimination=not args.no_class_elimination,
            use_priority_queue=args.priority_queue,
            transformation_budget=args.budget,
        ),
    )
    envelope = service.optimize(query)
    result = envelope.result

    print("Original query:")
    print(format_query(result.original, multiline=True, indent="  "))
    print("\nTransformations:")
    print("  " + result.trace.describe().replace("\n", "\n  "))
    print("\nPredicate classification:")
    for predicate, tag in result.predicate_tags.items():
        print(f"  [{tag.value:10}] {predicate}")
    if result.eliminated_classes:
        print(f"\nEliminated classes: {', '.join(result.eliminated_classes)}")
    print("\nOptimized query:")
    print(format_query(result.optimized, multiline=True, indent="  "))
    print(f"\n{result.summary()}")
    print(f"Service: {envelope.source.value}, {service.cache_stats().describe()}")
    if args.execute:
        _execute_comparison(args, schema, constraints, service, result)
    return 0


# ----------------------------------------------------------------------
# serve / route / bench-client subcommands
# ----------------------------------------------------------------------
def _parse_endpoint(value: str):
    """Split a ``HOST:PORT`` argument; raises ``ValueError`` when malformed."""
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


def build_serve_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Start the asyncio query gateway over a generated evaluation "
            "database (line-delimited JSON over TCP)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="listen address")
    parser.add_argument(
        "--port", type=int, default=7431, help="listen port (0 = ephemeral)"
    )
    parser.add_argument(
        "--db",
        choices=["DB1", "DB2", "DB3", "DB4"],
        default="DB2",
        help="which Table 4.1 database instance to generate and serve",
    )
    parser.add_argument(
        "--shards", type=int, default=1, help="store shard count"
    )
    parser.add_argument(
        "--engine",
        choices=["rowwise", "vectorized"],
        default=None,
        help="default execution engine (default: vectorized)",
    )
    parser.add_argument(
        "--worker-threads", type=int, default=4, help="gateway worker thread count"
    )
    parser.add_argument(
        "--max-in-flight", type=int, default=64, help="admission: max active requests"
    )
    parser.add_argument(
        "--max-subscriptions",
        type=int,
        default=64,
        help=(
            "cap on live subscriptions (standing views) this gateway "
            "will hold; further subscribe RPCs answer subscription_limit"
        ),
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="per-request budget in seconds",
    )
    parser.add_argument(
        "--dynamic-rules",
        action="store_true",
        help=(
            "derive state-dependent rules from the generated database and "
            "keep them fresh across mutation RPCs (re-derived per touched "
            "class)"
        ),
    )
    parser.add_argument(
        "--self-tune",
        action="store_true",
        help=(
            "enable the self-tuning feedback loop: workload-driven "
            "auto-indexing and learned rule profitability"
        ),
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        help=(
            "durability directory: mutations are write-ahead logged and "
            "snapshotted here, and an existing directory is recovered on "
            "startup (replacing the generated database)"
        ),
    )
    parser.add_argument(
        "--wal-fsync",
        choices=["always", "batch", "off"],
        default=None,
        help="WAL fsync policy with --data-dir (default: batch)",
    )
    parser.add_argument(
        "--wal-fsync-interval",
        type=int,
        default=None,
        help="commits per group fsync under the batch policy (default: 8)",
    )
    parser.add_argument(
        "--snapshot-frames",
        type=int,
        default=None,
        help=(
            "WAL frames that trigger a snapshot + segment rotation "
            "(default: 10000)"
        ),
    )
    parser.add_argument(
        "--snapshot-age",
        type=float,
        default=None,
        help="seconds between age-triggered snapshots, 0 = disabled (default: 0)",
    )
    parser.add_argument(
        "--replicate-on",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "primary mode: also listen on this port (0 = ephemeral) and "
            "stream every applied mutation as checksummed WAL frames to "
            "subscribed replicas (combine with --data-dir for durability: "
            "a frame is then committed to the WAL before it is streamed)"
        ),
    )
    parser.add_argument(
        "--follow",
        default=None,
        metavar="HOST:PORT",
        help=(
            "replica mode: bootstrap the store from this primary's "
            "replication feed (snapshot + live tail) instead of generating "
            "a database, serve read-only, and ack applied versions back; "
            "--db must match the primary's"
        ),
    )
    return parser


def run_serve(argv: List[str]) -> int:
    """``python -m repro serve``: run the gateway until interrupted.

    Both SIGINT (Ctrl-C / KeyboardInterrupt) and SIGTERM (the normal
    container stop signal) go through the same graceful path: stop
    accepting, drain admitted requests, flush the WAL, exit.
    """
    import signal

    from .data import TABLE_4_1_SPECS, build_evaluation_setup
    from .server import QueryGateway
    from .service import OptimizationService

    args = build_serve_parser().parse_args(argv)
    if args.follow and (args.data_dir or args.replicate_on is not None):
        build_serve_parser().error(
            "--follow (replica mode) is mutually exclusive with --data-dir "
            "and --replicate-on: replicas neither journal nor re-stream"
        )
    if args.follow:
        try:
            _parse_endpoint(args.follow)
        except ValueError as exc:
            build_serve_parser().error(f"--follow: {exc}")

    async def serve() -> None:
        # The server doesn't need a workload, only the database; the
        # generator requires at least one query.
        setup = build_evaluation_setup(
            TABLE_4_1_SPECS[args.db], query_count=1, shard_count=args.shards
        )
        store = setup.store
        manager = None
        follower = None
        feed = None
        if args.follow:
            from .replication import ReplicaFollower

            primary_host, primary_port = _parse_endpoint(args.follow)
            follower = ReplicaFollower(setup.schema, primary_host, primary_port)
            # The generated store is discarded: the replica's state is the
            # primary's, rebuilt byte-identically from the snapshot stream.
            store = await follower.bootstrap()
            print(
                f"replica synced from {args.follow}: store v{store.version} "
                f"(epoch {follower.epoch})",
                flush=True,
            )
        if args.data_dir:
            from .durability import DurabilityManager

            manager = DurabilityManager(
                args.data_dir,
                fsync_policy=args.wal_fsync,
                fsync_interval=args.wal_fsync_interval,
                snapshot_frames=args.snapshot_frames,
                snapshot_age=args.snapshot_age,
            )
            store, report = manager.open(store)
            if report is not None:
                if report.clean:
                    health = "clean"
                else:
                    reasons = sorted({i.reason for i in report.wal_issues})
                    health = "with issues: " + ", ".join(reasons)
                print(
                    f"recovered {args.data_dir}: snapshot v"
                    f"{report.snapshot_version} + {report.replayed_frames} "
                    f"WAL frame(s) -> store v{report.final_version} "
                    f"({health})",
                    flush=True,
                )
            else:
                print(
                    f"durability enabled: fresh data dir {args.data_dir} "
                    f"(fsync={manager.fsync_policy})",
                    flush=True,
                )
        service = OptimizationService(
            setup.schema,
            repository=setup.repository,
            cost_model=setup.cost_model,
            store=store,
            execution_mode=args.engine,
        )
        if manager is not None:
            service.attach_durability(manager)
        if args.dynamic_rules:
            derived = service.enable_dynamic_rules()
            print(f"dynamic rules enabled: {derived} derived", flush=True)
        if args.self_tune:
            service.enable_self_tuning()
            print("self-tuning enabled: index, rules", flush=True)
        follower_task = None
        if follower is not None:
            follower.attach(service)
            follower_task = follower.start()
        if args.replicate_on is not None:
            from .replication import ReplicationFeed

            feed = ReplicationFeed(service, host=args.host, port=args.replicate_on)
            feed_host, feed_port = await feed.start()
            print(
                f"replication feed on {feed_host}:{feed_port} "
                f"(epoch {feed.epoch})",
                flush=True,
            )
        gateway = QueryGateway(
            service,
            args.host,
            args.port,
            worker_threads=args.worker_threads,
            max_in_flight=args.max_in_flight,
            max_subscriptions=args.max_subscriptions,
            request_timeout=args.request_timeout,
            read_only=follower is not None,
            replication=feed,
            follower=follower,
        )
        host, port = await gateway.start()
        print(
            f"repro gateway serving {args.db} on {host}:{port} "
            f"(engine={args.engine or 'default'}, "
            f"threads={args.worker_threads}); Ctrl-C or SIGTERM to drain "
            "and stop",
            flush=True,
        )
        # SIGTERM must take the same drain + WAL-flush path as Ctrl-C;
        # the default handler would kill the process with acked writes
        # still in the stdio buffers.  (Regression: SIGTERM used to skip
        # the graceful drain entirely.)
        stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        sigterm_installed = False
        try:
            loop.add_signal_handler(signal.SIGTERM, stop_requested.set)
            sigterm_installed = True
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-POSIX event loop: KeyboardInterrupt still works
        gateway_task = asyncio.ensure_future(gateway.serve_forever())
        stop_task = asyncio.ensure_future(stop_requested.wait())
        tasks = [gateway_task, stop_task]
        if follower_task is not None:
            # A follower whose reconnect budget is exhausted must take
            # the replica down loudly, not leave it serving stale reads.
            tasks.append(follower_task)
        try:
            done, _ = await asyncio.wait(
                tasks,
                return_when=asyncio.FIRST_COMPLETED,
            )
        except asyncio.CancelledError:
            done = set()
        finally:
            for task in tasks:
                task.cancel()
            # Retrieve every result (cancellations and the gateway's
            # exception, if any) so nothing dies unobserved.
            await asyncio.gather(*tasks, return_exceptions=True)
            if sigterm_installed:
                loop.remove_signal_handler(signal.SIGTERM)
            drained = await gateway.stop()
            if feed is not None:
                await feed.stop()
            if follower is not None:
                await follower.stop()
            if manager is not None:
                manager.close()
            print(f"gateway stopped (drained={drained})", flush=True)
        if gateway_task in done:
            # The gateway finished on its own — serve_forever only ever
            # ends by raising, so re-raise here (after the drain above)
            # rather than mask a server crash as a clean exit-0 stop.
            gateway_task.result()
        if follower_task is not None and follower_task in done:
            follower_task.result()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


def build_route_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``route`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro route",
        description=(
            "Start the consistent-hash query router over one primary and N "
            "replica gateways.  Speaks the same NDJSON protocol as serve: "
            "reads fan out across replicas by structural query key, "
            "mutations forward to the primary, and each connection's reads "
            "observe at least its own last write (read-your-writes)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="listen address")
    parser.add_argument(
        "--port", type=int, default=7531, help="listen port (0 = ephemeral)"
    )
    parser.add_argument(
        "--primary",
        required=True,
        metavar="HOST:PORT",
        help="the single-writer primary gateway (all mutations go here)",
    )
    parser.add_argument(
        "--replica",
        action="append",
        default=[],
        metavar="HOST:PORT",
        help="a read replica gateway (repeat per replica; none = primary only)",
    )
    parser.add_argument(
        "--retry-reads",
        type=int,
        default=5,
        help="per-backend reconnect-and-retry budget for idempotent reads",
    )
    parser.add_argument(
        "--pin-timeout",
        type=float,
        default=5.0,
        help=(
            "seconds a pinned read waits for a replica to catch up to the "
            "connection's last written version before failing over"
        ),
    )
    return parser


def run_route(argv: List[str]) -> int:
    """``python -m repro route``: run the query router until interrupted."""
    import signal

    from .replication import QueryRouter

    args = build_route_parser().parse_args(argv)
    for endpoint in [args.primary] + args.replica:
        try:
            _parse_endpoint(endpoint)
        except ValueError as exc:
            build_route_parser().error(str(exc))

    async def route() -> None:
        router = QueryRouter(
            args.primary,
            args.replica,
            args.host,
            args.port,
            retry_reads=args.retry_reads,
            pin_timeout=args.pin_timeout,
        )
        host, port = await router.start()
        print(
            f"repro router serving on {host}:{port} -> primary "
            f"{args.primary}, {len(args.replica)} replica(s); Ctrl-C or "
            "SIGTERM to stop",
            flush=True,
        )
        stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        sigterm_installed = False
        try:
            loop.add_signal_handler(signal.SIGTERM, stop_requested.set)
            sigterm_installed = True
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
        try:
            await stop_requested.wait()
        finally:
            if sigterm_installed:
                loop.remove_signal_handler(signal.SIGTERM)
            await router.stop()
            status = router.status()
            print(
                f"router stopped ({status['requests']} requests, "
                f"{status['failovers']} failovers, {status['stalls']} "
                "read-your-writes stalls)",
                flush=True,
            )

    try:
        asyncio.run(route())
    except KeyboardInterrupt:
        pass
    return 0


def build_bench_client_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``bench-client`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro bench-client",
        description=(
            "Drive a served gateway with the multi-client load generator "
            "and report p50/p95 latency, rows/s and the dedup rate."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="gateway address")
    parser.add_argument("--port", type=int, default=7431, help="gateway port")
    parser.add_argument(
        "--endpoints",
        default=None,
        metavar="HOST:PORT,...",
        help=(
            "comma-separated gateway list; overrides --host/--port and "
            "stripes the client connections round-robin across the "
            "endpoints (e.g. a replica fleet).  Mixed read/write runs "
            "need endpoints that accept writes — a router or the primary; "
            "replicas answer mutations with the read_only code"
        ),
    )
    parser.add_argument(
        "--retry-reads",
        type=int,
        default=0,
        help=(
            "per-client reconnect-and-retry budget for idempotent reads "
            "on dropped connections (0 = fail fast)"
        ),
    )
    parser.add_argument("--clients", type=int, default=16, help="client connections")
    parser.add_argument(
        "--requests", type=int, default=20, help="requests issued per client"
    )
    parser.add_argument(
        "--db",
        choices=["DB1", "DB2", "DB3", "DB4"],
        default="DB2",
        help="workload source (must match the served database's spec)",
    )
    parser.add_argument(
        "--queries", type=int, default=12, help="distinct workload queries to cycle"
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="open-loop arrival rate per client (requests/s); default closed loop",
    )
    parser.add_argument(
        "--op", choices=["execute", "optimize"], default="execute", help="RPC to drive"
    )
    parser.add_argument(
        "--engine",
        choices=["rowwise", "vectorized"],
        default=None,
        help="execution_mode option sent with every request",
    )
    parser.add_argument(
        "--mutate-every",
        type=int,
        default=0,
        help=(
            "mixed read/write mode: make every Nth request per client an "
            "insert (0 = read-only)"
        ),
    )
    parser.add_argument(
        "--mutate-class",
        default="cargo",
        help="object class the mixed-mode inserts write into",
    )
    parser.add_argument(
        "--mutate-rows",
        type=int,
        default=1,
        help=(
            "rows per write request: 1 sends single inserts, larger values "
            "send insert_many batches (one WAL commit per batch)"
        ),
    )
    parser.add_argument(
        "--subscribe",
        type=int,
        default=0,
        metavar="N",
        help=(
            "make the first N clients each hold a live subscription for "
            "the whole run and count the diff frames they receive"
        ),
    )
    parser.add_argument(
        "--artifact",
        default=None,
        help="merge the report into this JSON file (e.g. benchmarks/BENCH_gateway.json)",
    )
    return parser


def run_bench_client(argv: List[str]) -> int:
    """``python -m repro bench-client``: load a served gateway and report."""
    from .data import TABLE_4_1_SPECS, build_evaluation_setup
    from .query import format_query
    from .server import MutationMix, connect_clients, run_load

    args = build_bench_client_parser().parse_args(argv)

    if args.clients < 1 or args.requests < 1:
        build_bench_client_parser().error("--clients and --requests must be >= 1")
    if args.endpoints:
        try:
            endpoints = [
                _parse_endpoint(item.strip())
                for item in args.endpoints.split(",")
                if item.strip()
            ]
        except ValueError as exc:
            build_bench_client_parser().error(f"--endpoints: {exc}")
        if not endpoints:
            build_bench_client_parser().error("--endpoints: empty endpoint list")
    else:
        endpoints = [(args.host, args.port)]

    def mutation_mix(schema):
        """Schema-derived insert template: every value attribute populated.

        Fully populated rows keep the write realistic — a row of ``None``s
        would silently disable the server's derived range rules and never
        intersect a read — and the first string attribute is uniqued per
        (client, request) so rows stay distinguishable.
        """
        if args.mutate_every <= 0:
            return None
        if args.mutate_rows < 1:
            build_bench_client_parser().error("--mutate-rows must be >= 1")
        if not schema.has_class(args.mutate_class):
            build_bench_client_parser().error(
                f"--mutate-class: unknown object class {args.mutate_class!r}"
            )
        values, unique = {}, []
        for attribute in schema.object_class(args.mutate_class).attributes:
            if attribute.is_pointer:
                continue
            if attribute.domain.is_numeric:
                values[attribute.name] = 1
            else:
                values[attribute.name] = "lg"
                if not unique:
                    unique.append(attribute.name)
        return MutationMix(
            every=args.mutate_every,
            class_name=args.mutate_class,
            values=values,
            unique_attributes=tuple(unique),
            rows=args.mutate_rows,
        )

    async def bench():
        # The workload generator is seeded, so building the setup locally
        # yields exactly the queries the served database understands.
        setup = build_evaluation_setup(
            TABLE_4_1_SPECS[args.db], query_count=max(args.queries, 1)
        )
        queries = [format_query(query) for query in setup.queries]
        options = {}
        if args.engine:
            options["execution_mode"] = args.engine
        clients = []
        try:
            clients = await connect_clients(
                endpoints,
                args.clients,
                retry_reads=args.retry_reads,
                client_prefix="bench",
            )
            mix = mutation_mix(setup.schema)
            report = await run_load(
                clients,
                queries,
                requests_per_client=args.requests,
                op=args.op,
                options=options,
                rate=args.rate,
                mutations=mix,
                subscribe=max(args.subscribe, 0),
            )
            stats = await clients[0].stats()
        finally:
            for client in clients:
                await client.close()
        return report, stats

    report, stats = asyncio.run(bench())
    print(report.describe())
    dedup = stats["service"]["single_flight"]
    print(
        f"server single-flight: {dedup['leaders']} leaders, "
        f"{dedup['followers']} followers ({dedup['dedup_rate']:.0%} dedup)"
    )
    if args.artifact:
        try:
            with open(args.artifact) as handle:
                data = json.load(handle)
        except (FileNotFoundError, ValueError):
            data = {}
        data["bench_client"] = {
            **report.as_dict(),
            "op": args.op,
            "db": args.db,
            "engine": args.engine or "default",
            "endpoints": args.endpoints or f"{args.host}:{args.port}",
            "server_single_flight": dedup,
            "server_tuning": stats["service"].get("tuning"),
        }
        with open(args.artifact, "w") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.artifact}")
    return 0 if report.errors == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return run_serve(argv[1:])
    if argv and argv[0] == "route":
        return run_route(argv[1:])
    if argv and argv[0] == "bench-client":
        return run_bench_client(argv[1:])
    if argv and argv[0] == "lint":
        from .analysis.cli import main as lint_main

        return lint_main(argv[1:])

    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiments:
        from .experiments import run_all

        report = run_all(quick=args.quick, engine=args.engine)
        print(report.render())
        return 0

    if not args.query:
        parser.print_help()
        return 1
    return run_query(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
