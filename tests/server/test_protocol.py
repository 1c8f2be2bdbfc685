"""Tests for the gateway wire protocol (framing, parsing, payloads)."""

import json

import pytest

from repro.server.errors import ProtocolError
from repro.server.protocol import (
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
    parse_rule,
)

QUERY = (
    '(SELECT {cargo.code} { } {vehicle.desc = "refrigerated truck"} '
    "{collects} {cargo, vehicle})"
)


def test_frame_roundtrip():
    frame = {"id": 3, "op": "stats"}
    assert decode_frame(encode_frame(frame).strip()) == frame


def test_encode_frame_is_one_line():
    encoded = encode_frame({"id": 1, "op": "execute", "query": QUERY})
    assert encoded.endswith(b"\n")
    assert encoded.count(b"\n") == 1


@pytest.mark.parametrize(
    "line",
    [b"not json", b"[1, 2, 3]", b'"a string"', b"\xff\xfe"],
)
def test_decode_frame_rejects_malformed(line):
    with pytest.raises(ProtocolError):
        decode_frame(line)


def test_parse_request_optimize(evaluation_schema):
    request = parse_request(
        {"id": 9, "op": "optimize", "query": QUERY}, evaluation_schema
    )
    assert request.op == "optimize"
    assert request.id == 9
    assert tuple(request.query.classes) == ("cargo", "vehicle")


def test_parse_request_unknown_op(evaluation_schema):
    with pytest.raises(ProtocolError, match="unknown op"):
        parse_request({"op": "drop_tables"}, evaluation_schema)


def test_parse_request_missing_query(evaluation_schema):
    with pytest.raises(ProtocolError, match="query"):
        parse_request({"op": "execute"}, evaluation_schema)


def test_parse_request_invalid_query_text(evaluation_schema):
    with pytest.raises(ProtocolError, match="invalid query"):
        parse_request({"op": "execute", "query": "(SELECT {junk"}, evaluation_schema)


def test_parse_request_schema_validation(evaluation_schema):
    bad = '(SELECT {nosuch.attr} { } { } { } {nosuch})'
    with pytest.raises(ProtocolError, match="invalid query"):
        parse_request({"op": "optimize", "query": bad}, evaluation_schema)


def test_parse_request_rejects_unknown_option(evaluation_schema):
    with pytest.raises(ProtocolError, match="unknown option"):
        parse_request(
            {"op": "execute", "query": QUERY, "options": {"turbo": True}},
            evaluation_schema,
        )


@pytest.mark.parametrize(
    "options,message",
    [
        ({"execution_mode": "warp"}, "unknown execution mode"),
        # "workers" is not an option: every value is refused as unknown, by name.
        ({"workers": 2}, "workers"),
        ({"workers": "four"}, "workers"),
        ({"workers": True}, "workers"),
        ({"timeout": -1}, "timeout"),
        ({"optimize": "yes"}, "optimize"),
        ({"join_strategy": "merge"}, "join_strategy"),
        pytest.param({"workers": 2}, r"unknown option\(s\) workers", id="workers-unknown"),
        pytest.param(
            {"execution_mode": "parallel"},
            r"choose from: rowwise, vectorized\)",
            id="parallel-refused",
        ),
        pytest.param({"timeout": float("nan")}, "timeout", id="timeout-nan"),
    ],
)
def test_parse_request_rejects_bad_option_values(
    evaluation_schema, options, message
):
    with pytest.raises(ProtocolError, match=message):
        parse_request(
            {"op": "execute", "query": QUERY, "options": options},
            evaluation_schema,
        )


def test_timeout_from_the_wire_refuses_nan_and_keeps_infinity(evaluation_schema):
    def timeout_of(literal):
        frame = decode_frame(
            b'{"op": "execute", "query": %s, "options": {"timeout": %s}}'
            % (json.dumps(QUERY).encode(), literal)
        )
        return parse_request(frame, evaluation_schema).options["timeout"]

    with pytest.raises(ProtocolError, match="timeout"):
        timeout_of(b"NaN")
    assert timeout_of(b"Infinity") == float("inf")


def test_parse_request_batch(evaluation_schema):
    request = parse_request(
        {"op": "execute_batch", "queries": [QUERY, QUERY]}, evaluation_schema
    )
    assert len(request.queries) == 2


def test_parse_request_batch_rejects_empty(evaluation_schema):
    with pytest.raises(ProtocolError, match="non-empty"):
        parse_request({"op": "execute_batch", "queries": []}, evaluation_schema)


def test_options_key_ignores_timeout(evaluation_schema):
    with_timeout = parse_request(
        {
            "op": "execute",
            "query": QUERY,
            "options": {"execution_mode": "vectorized", "timeout": 5},
        },
        evaluation_schema,
    )
    without = parse_request(
        {
            "op": "execute",
            "query": QUERY,
            "options": {"execution_mode": "vectorized"},
        },
        evaluation_schema,
    )
    assert with_timeout.options_key() == without.options_key()


def test_parse_rule_builds_constraint(evaluation_schema):
    constraint = parse_rule(
        {
            "name": "wire1",
            "antecedents": ['cargo.desc = "frozen food"'],
            "consequent": "cargo.quantity <= 500",
            "classes": ["cargo"],
            "relationships": [],
            "description": "frozen food ships in small lots",
        },
        evaluation_schema,
    )
    assert constraint.name == "wire1"
    assert len(constraint.antecedents) == 1
    assert constraint.anchor_classes == frozenset({"cargo"})


@pytest.mark.parametrize(
    "spec",
    [
        "not a dict",
        {"consequent": "cargo.quantity <= 500"},  # missing name
        {"name": "r", "consequent": 5},
        {"name": "r", "consequent": "cargo.quantity <= 500", "antecedents": "x"},
        {"name": "r", "consequent": "???"},
        {"name": "r", "consequent": "cargo.quantity <= 500", "classes": [1]},
    ],
)
def test_parse_rule_rejects_malformed(evaluation_schema, spec):
    with pytest.raises(ProtocolError):
        parse_rule(spec, evaluation_schema)


def test_rules_request_parsing(evaluation_schema):
    add = parse_request(
        {
            "op": "rules",
            "action": "add",
            "rule": {"name": "r9", "consequent": "cargo.quantity >= 0"},
        },
        evaluation_schema,
    )
    assert add.action == "add" and add.rule.name == "r9"
    remove = parse_request(
        {"op": "rules", "action": "remove", "name": "r9"}, evaluation_schema
    )
    assert remove.action == "remove" and remove.rule_name == "r9"
    with pytest.raises(ProtocolError, match="action"):
        parse_request({"op": "rules", "action": "upsert"}, evaluation_schema)
    with pytest.raises(ProtocolError, match="name"):
        parse_request({"op": "rules", "action": "remove"}, evaluation_schema)


def test_response_frames_are_json_serializable():
    ok = ok_response(5, {"rows": []})
    assert ok["ok"] is True and ok["id"] == 5
    err = error_response(6, ProtocolError("bad frame"))
    assert err["ok"] is False
    assert err["error"]["code"] == "protocol_error"
    json.dumps(ok), json.dumps(err)


# ----------------------------------------------------------------------
# Mutation ops: parsing contract
# ----------------------------------------------------------------------
def test_parse_request_mutations(evaluation_schema):
    insert = parse_request(
        {"op": "insert", "class": "cargo", "values": {"code": "X"}},
        evaluation_schema,
    )
    assert insert.class_name == "cargo" and insert.values == {"code": "X"}
    update = parse_request(
        {"op": "update", "class": "cargo", "oid": 3, "values": {"quantity": 1}},
        evaluation_schema,
    )
    assert update.oid == 3
    delete = parse_request(
        {"op": "delete", "class": "cargo", "oid": 9}, evaluation_schema
    )
    assert delete.oid == 9
    many = parse_request(
        {"op": "insert_many", "class": "cargo", "rows": [{"code": "A"}, {}]},
        evaluation_schema,
    )
    assert len(many.rows) == 2


@pytest.mark.parametrize(
    "frame",
    [
        {"op": "insert"},  # missing class
        {"op": "insert", "class": "warehouse", "values": {}},  # unknown class
        {"op": "insert", "class": "cargo", "values": {"colour": "red"}},
        {"op": "insert", "class": "cargo", "values": [1, 2]},
        {"op": "update", "class": "cargo", "values": {"code": "X"}},  # no oid
        {"op": "update", "class": "cargo", "oid": 0, "values": {}},
        {"op": "update", "class": "cargo", "oid": True, "values": {}},
        {"op": "delete", "class": "cargo"},
        {"op": "insert_many", "class": "cargo", "rows": []},
        {"op": "insert_many", "class": "cargo", "rows": "not a list"},
        {"op": "insert_many", "class": "cargo",
         "rows": [{"code": "A"}, {"bogus": 1}]},
    ],
)
def test_parse_request_rejects_malformed_mutations(evaluation_schema, frame):
    with pytest.raises(ProtocolError):
        parse_request(frame, evaluation_schema)


def test_insert_many_row_bound(evaluation_schema):
    from repro.server.protocol import MAX_MUTATION_ROWS

    rows = [{} for _ in range(MAX_MUTATION_ROWS + 1)]
    with pytest.raises(ProtocolError, match="bound"):
        parse_request(
            {"op": "insert_many", "class": "cargo", "rows": rows},
            evaluation_schema,
        )


# ----------------------------------------------------------------------
# Seeded frame fuzzer: every frame yields a stable wire code
# ----------------------------------------------------------------------
import asyncio
import os
import random

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "47110815"))
FUZZ_FRAMES = int(os.environ.get("REPRO_FUZZ_FRAMES", "250"))

#: The complete closed set of codes a response may carry.  ``internal`` is
#: deliberately excluded: a fuzzer-reachable internal error is a bug.
STABLE_CODES = {
    "protocol_error",
    "mutation_error",
    "overloaded",
    "client_queue_full",
    "draining",
    "timeout",
}


def _fuzz_frame(rng: random.Random) -> bytes:
    """One adversarial wire line aimed at the mutation ops."""
    import json as _json

    op = rng.choice(["insert", "insert_many", "update", "delete"])
    frame = {"id": rng.randrange(1000), "op": op}
    if rng.random() < 0.8:
        frame["class"] = rng.choice(
            ["cargo", "vehicle", "warehouse", "", 7, None, ["cargo"]]
        )
    if rng.random() < 0.8:
        frame["oid"] = rng.choice([1, 0, -4, 2**63, "seven", True, None, 3.5])
    if rng.random() < 0.8:
        frame["values"] = rng.choice(
            [
                {"code": "X"},
                {"colour": "red"},
                {"quantity": float("inf")} if rng.random() < 0.5 else {"code": 1},
                {7: "bad-key"},
                [],
                "values",
                None,
            ]
        )
    if rng.random() < 0.5:
        frame["rows"] = rng.choice(
            [[], [{}], [{"code": "A"}, "junk"], [{"bogus": 1}], "rows", 42]
        )
    try:
        line = _json.dumps(frame).encode("utf-8")
    except (TypeError, ValueError):
        line = repr(frame).encode("utf-8")
    # Structural corruption: truncate, append garbage, or break encoding.
    roll = rng.random()
    if roll < 0.25:
        line = line[: rng.randrange(max(1, len(line)))]
    elif roll < 0.35:
        line = line + b"}}junk{{"
    elif roll < 0.40:
        line = b"\xff\xfe" + line
    return line


def test_mutation_frame_fuzzer_yields_stable_codes(evaluation_schema):
    """No fuzzed mutation frame may drop the dispatcher or leak an error."""
    from repro.constraints import ConstraintRepository
    from repro.data import build_evaluation_constraints
    from repro.engine import ObjectStore
    from repro.server import QueryGateway
    from repro.service import OptimizationService

    store = ObjectStore(evaluation_schema, shard_count=2)
    store.insert("cargo", {"code": "C0", "desc": "x", "quantity": 1,
                           "category": "general"})
    repository = ConstraintRepository(evaluation_schema)
    repository.add_all(build_evaluation_constraints())
    service = OptimizationService(
        evaluation_schema, repository=repository, store=store
    )
    rng = random.Random(FUZZ_SEED)
    frames = [_fuzz_frame(rng) for _ in range(FUZZ_FRAMES)]

    async def drive():
        gateway = QueryGateway(service)
        outcomes = []
        for line in frames:
            response = await gateway.dispatch_line(line, "fuzzer")
            outcomes.append(response)
        # The dispatcher survived every frame: a well-formed request still
        # succeeds afterwards.
        ok = await gateway.dispatch(
            {"id": 1, "op": "insert", "class": "cargo",
             "values": {"code": "SANE"}},
            "fuzzer",
        )
        await gateway.stop()
        return outcomes, ok

    outcomes, ok = asyncio.run(drive())
    assert ok["ok"], ok
    for line, response in zip(frames, outcomes):
        assert isinstance(response, dict), line
        assert "ok" in response, line
        if not response["ok"]:
            code = response["error"]["code"]
            assert code in STABLE_CODES, (code, line)


def test_fuzzed_frames_over_tcp_keep_the_connection(evaluation_schema):
    """Malformed/truncated frames answered over TCP; session stays usable."""
    from repro.constraints import ConstraintRepository
    from repro.data import build_evaluation_constraints
    from repro.engine import ObjectStore
    from repro.server import QueryGateway
    from repro.server.protocol import encode_frame
    from repro.service import OptimizationService

    store = ObjectStore(evaluation_schema)
    store.insert("cargo", {"code": "C0", "desc": "x", "quantity": 1,
                           "category": "general"})
    repository = ConstraintRepository(evaluation_schema)
    repository.add_all(build_evaluation_constraints())
    service = OptimizationService(
        evaluation_schema, repository=repository, store=store
    )
    rng = random.Random(FUZZ_SEED + 1)
    garbage = [
        line for line in (_fuzz_frame(rng) for _ in range(40)) if b"\n" not in line
    ]

    async def drive():
        gateway = QueryGateway(service)
        host, port = await gateway.start()
        reader, writer = await asyncio.open_connection(host, port)
        for line in garbage:
            writer.write(line + b"\n")
        # A valid frame after the garbage must still be answered.
        writer.write(
            encode_frame({"id": "tail", "op": "insert", "class": "cargo",
                          "values": {"code": "TAIL"}})
        )
        await writer.drain()
        responses = []
        for _ in range(len(garbage) + 1):
            response = await asyncio.wait_for(reader.readline(), 10)
            assert response, "connection dropped on a fuzzed frame"
            responses.append(decode_frame(response))
        writer.close()
        await writer.wait_closed()
        await gateway.stop()
        return responses

    responses = asyncio.run(drive())
    tail = [r for r in responses if r.get("id") == "tail"]
    assert tail and tail[0]["ok"], responses
    for response in responses:
        if not response.get("ok"):
            assert response["error"]["code"] in STABLE_CODES, response


def test_mutation_frames_validate_and_carry_options(evaluation_schema):
    request = parse_request(
        {"op": "delete", "class": "cargo", "oid": 1, "options": {"timeout": 0.5}},
        evaluation_schema,
    )
    assert request.options == {"timeout": 0.5}
    with pytest.raises(ProtocolError, match="unknown option"):
        parse_request(
            {"op": "insert", "class": "cargo", "values": {},
             "options": {"turbo": True}},
            evaluation_schema,
        )
    with pytest.raises(ProtocolError, match="timeout"):
        parse_request(
            {"op": "insert", "class": "cargo", "values": {},
             "options": {"timeout": -1}},
            evaluation_schema,
        )
