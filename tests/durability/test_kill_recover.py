"""The tentpole pin: SIGKILL a durable server mid-schedule, recover exactly.

A child process (``crash_child.py``) applies a seeded mutation schedule
through a durable ``OptimizationService`` with ``fsync=always``, printing
one ACK line per acked write.  The parent reads a seeded number of ACKs,
SIGKILLs the child at that frame, recovers the data directory in-process
and asserts

* **no acked write is lost** — the recovered version covers the last ACK
  the parent read before killing;
* **byte-identical state** — rows (values key order included), per-shard
  version counters, and OID allocators all equal an uninterrupted run of
  the same schedule prefix on a fresh store;
* **engines agree after recovery** — the recovered store answers a query
  identically to the oracle store on every served engine.
"""

import importlib.util
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.constraints import ConstraintRepository
from repro.data import build_evaluation_schema
from repro.durability import recover
from repro.engine.storage import ShardedObjectStore
from repro.query import parse_query
from repro.service import OptimizationService

_CHILD = Path(__file__).with_name("crash_child.py")


def _load_child_module():
    spec = importlib.util.spec_from_file_location("crash_child", _CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


crash_child = _load_child_module()

TOTAL = 160


def _child_env():
    """Env for the child: the parent's ``repro`` on PYTHONPATH, verbatim."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir + os.pathsep + existing if existing else src_dir
    )
    return env


def _rows_bytes(store) -> bytes:
    """Canonical row serialization that still preserves values key order."""
    return json.dumps(
        [
            {"class": class_name, "oid": oid, "values": values}
            for class_name, oid, values in store.snapshot_rows()
        ]
    ).encode()


@pytest.mark.parametrize("kill_seed", [0xC0FFEE, 0xBEEF, 7])
def test_sigkill_at_seeded_frame_recovers_exactly(tmp_path, kill_seed):
    import random

    data_dir = tmp_path / f"data-{kill_seed}"
    env = _child_env()
    proc = subprocess.Popen(
        [sys.executable, str(_CHILD), str(data_dir), str(TOTAL)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    kill_after = random.Random(kill_seed).randint(20, TOTAL - 20)
    acked_version = 0
    acks = 0
    try:
        while acks < kill_after:
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith("ACK "):
                acks += 1
                acked_version = int(line.split()[2])
        assert acks > 0, proc.stderr.read()
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.wait(timeout=30)
        proc.stdout.close()
        proc.stderr.close()

    schema = build_evaluation_schema()
    recovered, report = recover(data_dir, schema)
    # fsync=always: every acked frame must have survived the SIGKILL.
    assert recovered.version >= acked_version
    assert recovered.version <= TOTAL

    oracle = ShardedObjectStore(schema, shard_count=3)
    crash_child.apply_prefix(
        oracle, crash_child.build_schedule(TOTAL), recovered.version
    )
    assert _rows_bytes(recovered) == _rows_bytes(oracle)
    assert recovered.shard_versions() == oracle.shard_versions()
    assert recovered.snapshot_header() == oracle.snapshot_header()
    assert report.final_version == recovered.version

    # The recovered store must answer like the oracle on every engine.
    query = parse_query(crash_child.QUERY_TEXT)
    with OptimizationService(
        schema, repository=ConstraintRepository(schema), store=recovered
    ) as service, OptimizationService(
        schema, repository=ConstraintRepository(schema), store=oracle
    ) as oracle_service:
        for engine in crash_child.ENGINES:
            got = service.execute(query, optimize=False, execution_mode=engine)
            expected = oracle_service.execute(
                query, optimize=False, execution_mode=engine
            )
            assert got.execution_mode == engine
            assert got.execution.rows == expected.execution.rows


def test_uninterrupted_child_run_recovers_to_full_schedule(tmp_path):
    data_dir = tmp_path / "data-full"
    proc = subprocess.run(
        [sys.executable, str(_CHILD), str(data_dir), "60"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "DONE" in proc.stdout
    schema = build_evaluation_schema()
    recovered, report = recover(data_dir, schema)
    assert report.clean
    assert recovered.version == 60
    oracle = ShardedObjectStore(schema, shard_count=3)
    crash_child.apply_prefix(oracle, crash_child.build_schedule(60), 60)
    assert _rows_bytes(recovered) == _rows_bytes(oracle)
    assert recovered.shard_versions() == oracle.shard_versions()
