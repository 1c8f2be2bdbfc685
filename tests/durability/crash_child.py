"""Standalone child process for the kill-and-recover test.

Runs a seeded mutation schedule through a *durable* ``OptimizationService``
(WAL fsync policy ``always``, aggressive snapshotting so segment rotation
happens mid-run) and prints one ``ACK <index> <store_version>`` line per
acked mutation.  The parent test reads a seeded number of ACKs, SIGKILLs
this process at that frame, recovers the data directory and compares the
result byte for byte against an uninterrupted prefix run.

Also importable (the parent loads it via ``importlib``) for the shared
schedule builder and oracle applier, so child and parent can never drift.
"""

import random
import sys

#: Seed shared by child and parent — the schedule must be identical.
SCHEDULE_SEED = 90125

#: WAL frames per snapshot in the child: small enough that a normal run
#: crosses several snapshot + segment-rotation boundaries, so the SIGKILL
#: lands in every phase of the lifecycle across seeds.
SNAPSHOT_FRAMES = 40

QUERY_TEXT = "(SELECT {cargo.desc} { } {cargo.quantity >= 250} { } {cargo})"

#: Every served engine: the child's interleaved executes take turns on
#: them, and the parent checks each answers right after recovery.
ENGINES = ("rowwise", "vectorized")


def build_schedule(total, seed=SCHEDULE_SEED):
    """``total`` seeded mutation specs (insert-heavy, with update/delete).

    OIDs are precomputed: the store assigns them deterministically (1, 2,
    3, ... for a single inserted class on an empty store), so the parent
    can rebuild the exact oracle store without running the child's code.
    """
    rng = random.Random(seed)
    ops = []
    live = []
    next_oid = 1
    for index in range(total):
        choice = rng.random()
        if not live or choice < 0.6:
            ops.append(
                {
                    "op": "insert",
                    "class_name": "cargo",
                    "values": {
                        "desc": f"crash row {index}",
                        "quantity": rng.randint(1, 500),
                        "code": f"K{index:05d}",
                    },
                }
            )
            live.append(next_oid)
            next_oid += 1
        elif choice < 0.85:
            oid = live[rng.randrange(len(live))]
            ops.append(
                {
                    "op": "update",
                    "class_name": "cargo",
                    "oid": oid,
                    "values": {"quantity": rng.randint(1, 500)},
                }
            )
        else:
            oid = live.pop(rng.randrange(len(live)))
            ops.append({"op": "delete", "class_name": "cargo", "oid": oid})
    return ops


def apply_prefix(store, ops, count):
    """Apply the first ``count`` schedule ops directly to ``store``.

    The oracle path: a plain store, no service, no durability — what an
    uninterrupted run's state must equal.
    """
    for spec in ops[:count]:
        if spec["op"] == "insert":
            store.insert(spec["class_name"], dict(spec["values"]))
        elif spec["op"] == "update":
            store.update(spec["class_name"], spec["oid"], dict(spec["values"]))
        else:
            store.delete(spec["class_name"], spec["oid"])


def main(argv):
    data_dir, total = argv[1], int(argv[2])
    from repro.constraints import ConstraintRepository
    from repro.data import build_evaluation_schema
    from repro.durability import DurabilityManager
    from repro.engine.storage import ShardedObjectStore
    from repro.query import parse_query
    from repro.service import OptimizationService

    schema = build_evaluation_schema()
    repository = ConstraintRepository(schema)
    store = ShardedObjectStore(schema, shard_count=3)
    manager = DurabilityManager(
        data_dir, fsync_policy="always", snapshot_frames=SNAPSHOT_FRAMES
    )
    store, _ = manager.open(store)
    # Interleaved executes, on each engine in turn, keep the read paths
    # live while frames are being appended.
    service = OptimizationService(schema, repository=repository, store=store)
    service.attach_durability(manager)
    query = parse_query(QUERY_TEXT)
    for index, spec in enumerate(build_schedule(total)):
        result = service.mutate(
            spec["op"],
            spec["class_name"],
            oid=spec.get("oid"),
            values=spec.get("values"),
        )
        print(f"ACK {index} {result.store_version}", flush=True)
        if (index + 1) % 10 == 0:
            engine = ENGINES[(index // 10) % len(ENGINES)]
            service.execute(query, execution_mode=engine)
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
