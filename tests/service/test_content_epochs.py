"""Soundness oracle for content-addressed class epochs.

The service's result cache keys each optimization on the *content* epochs
of its query's classes (``ConstraintRepository.class_epochs``): the rules
declared on a class, not a count of how often they changed.  A write and
its undo therefore swap a class's dynamic rules out and back, and the
results cached under the first state serve again.  That is only sound if
equal epochs really mean equal rules, so seeded schedules here revisit
earlier states on purpose — bound-moving inserts, updates and their undos,
deletes of the rows just inserted, a static rule added and removed through
``change_rules``, an index created and dropped — at shard counts 1 and 2.

After every step:

* every query's rows, executed through the service, equal the rows of the
  *original* query run row-wise on a mirror store that received the same
  writes (one shard, no service, no cache).  The dynamic rules are true
  of the data by construction and the static rule holds on every row the
  schedules write, so an answer can only differ when a served rewrite
  leans on a rule that is no longer true;
* every ``RESULT_CACHE`` hit relies only on rules true *now*: each rule
  its trace names is in the repository's current closed set, with the
  signature it had when the result was computed.

Set ``REPRO_ORACLE_SEED`` to vary the schedules.
"""

import os
import random

import pytest

from repro.constraints import ConstraintRepository
from repro.constraints.horn_clause import SemanticConstraint
from repro.engine import ObjectStore, QueryExecutor
from repro.query import parse_predicate, parse_query, results_equal
from repro.service import OptimizationService, ResultSource

SEED = int(os.environ.get("REPRO_ORACLE_SEED", "20261015"))
SCHEDULES = 30

QUERY_TEXTS = [
    '(SELECT {cargo.code, cargo.quantity} { } {cargo.quantity >= 95} { } {cargo})',
    '(SELECT {cargo.code, cargo.category} { } {cargo.desc = "frozen food"} { } {cargo})',
    '(SELECT {cargo.code, cargo.desc} { } {cargo.category = "general"} { } {cargo})',
    '(SELECT {vehicle.vehicle_no} { } {vehicle.class >= 2} { } {vehicle})',
    '(SELECT {cargo.code, vehicle.vehicle_no} { } '
    '{vehicle.desc = "refrigerated truck", cargo.quantity <= 40} {collects} {cargo, vehicle})',
    '(SELECT {supplier.name, cargo.code} { } {cargo.quantity >= 20} '
    '{supplies} {supplier, cargo})',
]
QUERIES = [
    parse_query(text, name=f"epoch-{index}") for index, text in enumerate(QUERY_TEXTS)
]
CARGO_QUERY, VEHICLE_QUERY = QUERIES[0], QUERIES[3]

DESCS = ["frozen food", "textiles"]
CATEGORIES = ["general", "perishable"]
VEHICLE_DESCS = ["refrigerated truck", "van"]


def static_rule(bound=1):
    """A static rule every row the schedules write satisfies (bound <= 1)."""
    return SemanticConstraint.build(
        name="s1",
        antecedents=[],
        consequent=parse_predicate(f"cargo.quantity >= {bound}"),
        anchor_classes={"cargo"},
    )


def _base_rows(rng):
    # Suppliers are OIDs 1-2 and vehicles start at 3: the pointers below.
    rows = [
        ("supplier", {"name": f"S{i}", "region": "west", "rating": 3})
        for i in range(2)
    ]
    for i in range(rng.randint(2, 4)):
        rows.append((
            "vehicle",
            {"vehicle_no": f"V{i}", "desc": VEHICLE_DESCS[i % 2],
             "class": 1 + i % 3, "capacity": 1000},
        ))
    for i in range(rng.randint(6, 10)):
        rows.append((
            "cargo",
            {"code": f"C{i}", "desc": DESCS[i % 2], "category": CATEGORIES[i % 2],
             "quantity": rng.randint(10, 90), "supplies": 1 + i % 2,
             "collects": 3 + i % 2},
        ))
    return rows


def _cargo_values(rng):
    return {
        "code": f"N{rng.randint(0, 999)}",
        "desc": rng.choice(DESCS),
        "category": rng.choice(CATEGORIES),
        "quantity": rng.randint(1, 200),
        "supplies": 1,
        "collects": 3,
    }


def _schedule(rng):
    ops = []
    for _ in range(rng.randint(12, 24)):
        ops.append(rng.choices(
            [("insert", _cargo_values(rng)),
             ("update", rng.randrange(64), {"quantity": rng.randint(1, 200)}),
             ("update", rng.randrange(64), {"desc": rng.choice(DESCS)}),
             ("update", rng.randrange(64), {"category": rng.choice(CATEGORIES)}),
             ("undo",),
             ("delete_last",),
             ("delete", rng.randrange(64)),
             ("vehicle", rng.randrange(64), {"class": rng.randint(1, 6)}),
             ("rule",),
             ("index",),
             ("execute", rng.randrange(len(QUERIES)))],
            weights=[16, 12, 6, 6, 10, 12, 4, 4, 8, 4, 18],
        )[0])
    return ops


class Harness:
    """A served store, its mirror, and the checks run after every step."""

    def __init__(self, schema, shard_count, base_rows=()):
        self.schema = schema
        self.store = ObjectStore(schema, shard_count=shard_count)
        self.mirror = ObjectStore(schema, shard_count=1)
        for class_name, values in base_rows:
            self.store.insert(class_name, dict(values))
            self.mirror.insert(class_name, dict(values))
        self.repository = ConstraintRepository(schema)
        self.service = OptimizationService(
            schema, repository=self.repository, store=self.store,
            execution_mode="vectorized",
        )
        self.service.enable_dynamic_rules()
        self.signatures = {}  # id(trace) -> (trace, {rule: signature})
        self.inserted = []
        self.updated = []
        self.indexed = False

    def close(self):
        self.service.close()

    # -- writes (service and mirror alike) -----------------------------
    def _live(self, class_name, index):
        live = [instance.oid for instance in self.store.instances(class_name)]
        return live[index % len(live)] if live else None

    def insert(self, values):
        (oid,) = self.service.mutate("insert", "cargo", values=values).oids
        assert self.mirror.insert("cargo", dict(values)).oid == oid
        self.inserted.append(oid)

    def update(self, class_name, oid, values):
        if oid is None:
            return
        before = {key: self.store.get(class_name, oid).values.get(key)
                  for key in values}
        self.service.mutate("update", class_name, oid=oid, values=values)
        self.mirror.update(class_name, oid, dict(values))
        self.updated.append((class_name, oid, before))

    def undo(self):
        while self.updated:
            class_name, oid, before = self.updated.pop()
            if self.store.get(class_name, oid) is not None:
                self.service.mutate("update", class_name, oid=oid, values=before)
                self.mirror.update(class_name, oid, dict(before))
                return

    def delete(self, oid):
        if oid is None:
            return
        self.service.mutate("delete", "cargo", oid=oid)
        self.mirror.delete("cargo", oid)

    def delete_last(self):
        while self.inserted:
            oid = self.inserted.pop()
            if self.store.get("cargo", oid) is not None:
                self.delete(oid)
                return

    def toggle_rule(self):
        declared = {c.name for c in self.repository.declared()}
        if "s1" in declared:
            self.service.change_rules(lambda: self.repository.remove("s1"))
        else:
            self.service.change_rules(lambda: self.repository.add(static_rule()))

    def toggle_index(self):
        if self.indexed:
            self.store.drop_index("cargo", "quantity")
        else:
            self.store.create_index("cargo", "quantity")
        self.indexed = not self.indexed

    def apply(self, op):
        kind = op[0]
        if kind == "insert":
            self.insert(op[1])
        elif kind == "update":
            self.update("cargo", self._live("cargo", op[1]), op[2])
        elif kind == "vehicle":
            self.update("vehicle", self._live("vehicle", op[1]), op[2])
        elif kind == "undo":
            self.undo()
        elif kind == "delete_last":
            self.delete_last()
        elif kind == "delete":
            self.delete(self._live("cargo", op[1]))
        elif kind == "rule":
            self.toggle_rule()
        elif kind == "index":
            self.toggle_index()
        else:
            self.execute(QUERIES[op[1]])

    # -- reads and their checks ----------------------------------------
    def execute(self, query):
        """Execute through the service; check the answer and the rules."""
        envelope = self.service.execute(query)
        served = envelope.optimization
        closed = {c.name: c.signature() for c in self.repository.constraints()}
        trace = served.result.trace
        if served.source is ResultSource.COMPUTED:
            self.signatures[id(trace)] = (
                trace,
                {name: closed[name] for name in trace.constraints_used()},
            )
        else:
            assert served.source is ResultSource.RESULT_CACHE
            _, relied = self.signatures[id(trace)]
            stale = {
                name: signature
                for name, signature in relied.items()
                if closed.get(name) != signature
            }
            assert not stale, f"{query.name} served a rewrite relying on {stale}"
        expected = QueryExecutor(self.schema, self.mirror).execute(query)
        optimized = envelope.executed_query
        kept = set(optimized.classes)
        projections = [
            attribute
            for attribute in query.projections
            if attribute.split(".", 1)[0] in kept
        ] or list(optimized.projections)
        assert results_equal(
            expected.rows, envelope.execution.rows, projections
        ), f"{query.name} answered {optimized}, not {query}"
        return served.source

    def execute_all(self):
        return [self.execute(query) for query in QUERIES]


@pytest.mark.parametrize("shard_count", [1, 2])
def test_seeded_schedules_serve_only_rules_true_now(evaluation_schema, shard_count):
    hits = 0
    for index in range(SCHEDULES):
        rng = random.Random(SEED + 7919 * index + 104729 * shard_count)
        harness = Harness(evaluation_schema, shard_count, _base_rows(rng))
        try:
            harness.execute_all()
            for step, op in enumerate(_schedule(rng)):
                try:
                    harness.apply(op)
                    sources = harness.execute_all()
                except AssertionError as exc:
                    raise AssertionError(
                        f"schedule #{index} (REPRO_ORACLE_SEED={SEED}, "
                        f"shards={shard_count}) step {step} {op}: {exc}"
                    ) from None
                hits += sources.count(ResultSource.RESULT_CACHE)
        finally:
            harness.close()
    # The schedules revisit states: many reads after a write are hits.
    assert hits > 0


# ----------------------------------------------------------------------
# Directed cases
# ----------------------------------------------------------------------
def _harness(schema):
    return Harness(schema, 2, _base_rows(random.Random(SEED)))


def _max_quantity(harness):
    return max(i.values["quantity"] for i in harness.store.instances("cargo"))


def test_insert_big_then_delete_serves_the_cached_rewrite(evaluation_schema):
    harness = _harness(evaluation_schema)
    try:
        harness.execute_all()
        harness.insert(dict(_cargo_values(random.Random(1)),
                            quantity=_max_quantity(harness) + 50))
        assert harness.execute(CARGO_QUERY) is ResultSource.COMPUTED
        harness.delete_last()
        assert harness.execute(CARGO_QUERY) is ResultSource.RESULT_CACHE
    finally:
        harness.close()


def test_insert_update_update_delete_returns_to_hits(evaluation_schema):
    harness = _harness(evaluation_schema)
    try:
        harness.execute_all()
        ceiling = _max_quantity(harness)
        harness.insert(dict(_cargo_values(random.Random(2)), quantity=ceiling))
        (oid,) = harness.inserted
        harness.update("cargo", oid, {"quantity": ceiling + 10})
        assert harness.execute(CARGO_QUERY) is ResultSource.COMPUTED
        harness.update("cargo", oid, {"quantity": ceiling + 20})
        assert harness.execute(CARGO_QUERY) is ResultSource.COMPUTED
        harness.delete_last()
        assert harness.execute_all() == [ResultSource.RESULT_CACHE] * len(QUERIES)
    finally:
        harness.close()


def test_a_same_named_rule_with_another_constant_misses(evaluation_schema):
    harness = _harness(evaluation_schema)
    repository = harness.repository
    try:
        harness.service.change_rules(lambda: repository.add(static_rule(1)))
        assert harness.execute(CARGO_QUERY) is ResultSource.COMPUTED
        harness.service.change_rules(lambda: repository.remove("s1"))
        harness.service.change_rules(lambda: repository.add(static_rule(0)))
        assert harness.execute(CARGO_QUERY) is ResultSource.COMPUTED
        harness.service.change_rules(lambda: repository.remove("s1"))
        harness.service.change_rules(lambda: repository.add(static_rule(1)))
        assert harness.execute(CARGO_QUERY) is ResultSource.RESULT_CACHE
    finally:
        harness.close()


def test_a_vehicle_only_query_stays_hot_through_cargo_churn(evaluation_schema):
    harness = _harness(evaluation_schema)
    rng = random.Random(3)
    try:
        harness.execute_all()
        for _ in range(6):
            harness.insert(dict(_cargo_values(rng),
                                quantity=_max_quantity(harness) + 1))
            harness.update("cargo", harness.inserted[-1], {"quantity": 1})
            harness.toggle_rule()
            harness.toggle_index()
            assert harness.execute(VEHICLE_QUERY) is ResultSource.RESULT_CACHE
            harness.delete_last()
            assert harness.execute(VEHICLE_QUERY) is ResultSource.RESULT_CACHE
    finally:
        harness.close()
