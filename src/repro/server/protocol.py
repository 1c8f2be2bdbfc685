"""The gateway's line-delimited JSON wire protocol.

One request or response per line (NDJSON), UTF-8 encoded.  A request frame
is a JSON object::

    {"id": 7, "op": "execute", "query": "(SELECT ...)",
     "options": {"execution_mode": "vectorized", "optimize": true}}

``id`` is an opaque client-chosen correlation value echoed back verbatim
(responses may arrive out of order — the gateway pipelines requests of one
connection).  ``op`` selects the RPC:

``optimize``
    ``query`` (paper five-part notation) → optimization payload.
``execute``
    ``query`` → execution payload (rows, metrics, timings, provenance).
    ``rows`` is the answer: one JSON object per result binding holding
    exactly the query's projection list as ``class.attribute`` keys
    (duplicates kept, so ``row_count`` is the number of bindings, and
    a row's keys arrive in projection-list order).
    An attribute that is not projected — pointer
    attributes included — is not sent; a query with an empty projection
    list gets every attribute of every bound class.  The same holds for
    every other ``rows``/``row`` below (``execute_batch`` results, the
    ``subscribe`` snapshot, ``diff`` and ``resync`` push frames).
``execute_batch``
    ``queries`` (list of query texts) → per-query execution payloads plus
    batch statistics.
``stats``
    → one immutable snapshot of service + gateway counters.
``rules``
    ``action`` (``"add"`` / ``"remove"``) — add takes ``rule`` (a
    constraint spec, see :func:`parse_rule`), remove takes ``name``.
``insert`` / ``insert_many`` / ``update`` / ``delete``
    The live write path.  ``insert`` takes ``class`` and ``values`` (an
    attribute → value object); ``insert_many`` takes ``class`` and
    ``rows`` (a non-empty list of value objects, at most
    :data:`MAX_MUTATION_ROWS`); ``update`` takes ``class``, ``oid`` and
    ``values``; ``delete`` takes ``class`` and ``oid``.  Class and
    attribute names are validated against the schema up front
    (``protocol_error``); storage-level failures such as an unknown OID
    report the ``mutation_error`` code.  An ``insert_many`` batch is all
    or nothing (:meth:`~repro.service.OptimizationService.mutate_many`):
    every row is checked before the first is applied, so one bad row
    refuses the whole frame (``mutation_error``) and changes nothing, and
    no query observes part of an accepted batch.  Mutations honor the
    ``timeout`` option with **at-least-once** semantics: a timeout
    cancels a write that has not started, but a write already running
    commits even though the caller received the ``timeout`` error —
    retry only with values that are safe to re-apply.
``subscribe_wal``
    → the replication feed endpoint of this primary: ``host``/``port``
    to connect a replica to, the feed ``epoch``, and the current store
    ``version``/``shard_count``.  Servers started without
    ``--replicate-on`` answer ``replication_unavailable``.
``replica_status``
    → this server's replication role and progress: ``role``
    (``primary``/``replica``/``standalone``), ``store_version`` and
    ``applied_version``, plus per-replica acked versions and lag on a
    primary, or the followed primary endpoint and connection state on a
    replica.  Served inline (never queued) so the router can poll it for
    read-your-writes even under load.  On a read-only replica, mutation
    and ``rules`` frames are rejected with the ``read_only`` code.
``backup``
    → write an on-demand atomic snapshot through the durability
    manager; returns its ``path`` and store ``version``.  Servers
    without ``--data-dir`` answer ``backup_unavailable``.
``subscribe``
    ``query`` (+ ``options``) → register a standing live view of the
    query: the result payload carries the ``subscription`` id, the
    initial ``rows`` snapshot and the store ``version`` it reflects.
    From then on the server pushes diff frames (below) on this
    connection after every write that affects the view.  Works on
    read-only replicas too (views are fed by applied WAL frames).
    Gateways cap live views (``--max-subscriptions``); beyond the cap
    the request answers ``subscription_limit``.
``unsubscribe``
    ``subscription`` (the id) → drop the standing view; an unknown id
    answers ``subscription_unknown``.  Disconnecting frees every view
    of the connection implicitly.

What the rest of the stack needs to know about an op — whether the
gateway serves it before admission, whether it may answer it on the event
loop once its optimization is cached, whether a read-only replica refuses
it, whether the router may send it to a replica, whether a reconnecting
client may resend it — is declared once, in its :data:`OPS` entry.

Response frames are ``{"id": ..., "ok": true, "result": {...}}`` or
``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}`` with
codes from :mod:`repro.server.errors`.

**Push frames** are the one server-initiated frame kind: they carry a
``push`` field (a :data:`PUSH_KINDS` value) instead of an ``id``, so a
pipelining client demultiplexes them before correlation-id matching.
``{"push": "diff", "subscription": ..., "version": ..., "changes":
[...]}`` updates a view's rows — each change is ``{"kind": "added" |
"removed" | "changed", "index": ..., "row": ...}``, applied
sequentially (see :func:`repro.subscriptions.diff.apply_changes`) —
and ``{"push": "resync", "subscription": ..., "version": ...,
"rows": [...], "reason": ...}`` replaces them wholesale (rule churn
re-optimized the standing query, or the view lagged past the bounded
journal).  ``version`` is the store version the frame reflects; frames
of one subscription arrive in strictly increasing version order, and a
frame is only emitted after its mutation's WAL commit is durable.

Option values accepted by ``optimize``/``execute``/``execute_batch``:
``optimize`` (bool), ``use_cache`` (bool), ``execution_mode``
(``rowwise``/``vectorized``), ``join_strategy`` (``hash``/``nested_loop``)
and ``timeout`` (positive seconds, not NaN, capped by the server's own
request timeout).  ``timeout``
bounds only queued or pooled work: an ``optimize``/``execute`` whose
optimization is already cached is answered on the event loop without
waiting (see :class:`OpSpec`'s ``warm``), so it never times out.

**The codec, by direction.**  Requests are written by
:func:`encode_request` and read by :func:`decode_frame`, both stdlib
``json``: a request carries numbers the client chose, and the stdlib reads
every one of them exactly (an integer of any size, ``Infinity``), so the
server sees what was sent and refuses what it cannot store.  Replies and
push frames are written by :func:`encode_frame` and read by
:func:`decode_reply`, both ``orjson``.  A server→client object's keys go
out in the order the server built it — a row's in projection-list order —
and are not sorted.  Every number in one is an integer in [−2⁶³, 2⁶⁴) or
a finite float, and every string is valid UTF-8: the store admits no
other value (:meth:`~repro.engine.storage.ShardedObjectStore.check`), and
a reply that still holds one is answered by an ``internal`` error frame
instead (see :func:`encode_frame`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import orjson

from ..constraints.horn_clause import SemanticConstraint
from ..query.parser import parse_predicate, parse_query
from ..query.query import Query
from ..schema.schema import Schema
from ..service.envelope import ExecutionEnvelope, ServiceResult
from .errors import GatewayError, ProtocolError

#: Bumped when a frame field changes meaning; echoed by the stats RPC.
#: 2: ``rows`` is the query's projection (1 sent the full-width row of
#: every bound class whatever was projected).
PROTOCOL_VERSION = 2

#: Kinds of server-initiated push frames (the ``push`` field's values).
PUSH_KINDS = ("diff", "resync")

#: Upper bound on the rows of one ``insert_many`` frame.
MAX_MUTATION_ROWS = 10_000

#: Recognized keys of the ``options`` object.
OPTION_KEYS = (
    "optimize",
    "use_cache",
    "execution_mode",
    "join_strategy",
    "timeout",
)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
#: One line per frame; a non-string key is written as a string, as the
#: stdlib writes it.
_REPLY_OPTIONS = orjson.OPT_APPEND_NEWLINE | orjson.OPT_NON_STR_KEYS


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """Serialize one server→client frame (a reply or a push) to one line.

    Keys keep the frame's order.  A frame the codec cannot carry — a
    value that is not JSON (a ``set``), an integer outside [−2⁶³, 2⁶⁴), a
    string with a lone surrogate — is answered by an ``internal`` error
    frame for the same ``id`` (``null`` when the id is what cannot be
    carried), so the request it answers never waits out its timeout.

    >>> encode_frame({"id": 1, "ok": True, "result": {"b": 2, "a": 1}})
    b'{"id":1,"ok":true,"result":{"b":2,"a":1}}\\n'
    >>> decode_reply(encode_frame({"id": 2, "ok": True, "result": {1, 2}}))["error"]["code"]
    'internal'
    """
    try:
        return orjson.dumps(frame, option=_REPLY_OPTIONS)
    except TypeError as exc:
        error = TypeError(f"reply cannot be encoded: {exc}")
    try:
        return orjson.dumps(error_response(frame.get("id"), error), option=_REPLY_OPTIONS)
    except TypeError:
        return orjson.dumps(error_response(None, error), option=_REPLY_OPTIONS)


def decode_reply(line: bytes) -> Dict[str, Any]:
    """Parse one server→client line (what :func:`encode_frame` wrote).

    >>> decode_reply(b'{"id":1,"ok":true,"result":{"b":2,"a":1}}\\n')
    {'id': 1, 'ok': True, 'result': {'b': 2, 'a': 1}}
    """
    try:
        frame = orjson.loads(line)
    except orjson.JSONDecodeError as exc:
        raise ProtocolError(f"reply is not valid JSON: {exc}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"reply frame must be a JSON object, got {type(frame).__name__}"
        )
    return frame


def encode_request(frame: Dict[str, Any]) -> bytes:
    """Serialize one client→server request frame to one line (stdlib ``json``).

    >>> encode_request({"id": 1, "op": "insert", "values": {"quantity": 2 ** 64}})
    b'{"id":1,"op":"insert","values":{"quantity":18446744073709551616}}\\n'
    """
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one client→server line into a request frame dict.

    >>> decode_frame(b'{"id": 1, "op": "stats"}')
    {'id': 1, 'op': 'stats'}
    >>> decode_frame(b'not json')  # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
        ...
    repro.server.errors.ProtocolError: request is not valid JSON
    """
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"request frame must be a JSON object, got {type(frame).__name__}"
        )
    return frame


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass
class Request:
    """One parsed, validated request frame.

    ``queries`` holds the parsed ASTs (one for ``optimize``/``execute``,
    N for ``execute_batch``); parsing and schema validation happen up
    front in :func:`parse_request`, so by the time a request reaches the
    worker pool it can no longer fail on malformed input.
    """

    op: str
    id: Any = None
    queries: List[Query] = field(default_factory=list)
    options: Dict[str, Any] = field(default_factory=dict)
    action: str = ""
    rule: Optional[SemanticConstraint] = None
    rule_name: str = ""
    class_name: str = ""
    oid: int = 0
    values: Dict[str, Any] = field(default_factory=dict)
    rows: List[Dict[str, Any]] = field(default_factory=list)
    subscription: str = ""

    @property
    def query(self) -> Query:
        """The single query of an ``optimize``/``execute`` request."""
        return self.queries[0]

    def options_key(self) -> Tuple:
        """Canonical hashable form of the options (single-flight key part).

        ``timeout`` is excluded: it bounds this caller's *wait*, not the
        computation, so two requests differing only in timeout may share
        one flight.
        """
        return tuple(
            sorted(
                (name, value)
                for name, value in self.options.items()
                if name != "timeout"
            )
        )


def _parse_query_text(value: Any, schema: Schema, label: str) -> Query:
    if not isinstance(value, str) or not value.strip():
        raise ProtocolError(f"{label} must be a non-empty query string")
    try:
        query = parse_query(value, name="gateway")
        query.validate(schema)
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"invalid {label}: {exc}") from None
    return query


def _parse_options(raw: Any) -> Dict[str, Any]:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ProtocolError("options must be a JSON object")
    unknown = sorted(set(raw) - set(OPTION_KEYS))
    if unknown:
        raise ProtocolError(
            f"unknown option(s) {', '.join(unknown)} "
            f"(recognized: {', '.join(OPTION_KEYS)})"
        )
    options = dict(raw)
    for flag in ("optimize", "use_cache"):
        if flag in options and not isinstance(options[flag], bool):
            raise ProtocolError(f"option {flag!r} must be a boolean")
    if "execution_mode" in options:
        from ..engine.modes import ExecutionMode

        try:
            options["execution_mode"] = ExecutionMode.parse(
                options["execution_mode"]
            ).value
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
    if "join_strategy" in options:
        if options["join_strategy"] not in ("hash", "nested_loop"):
            raise ProtocolError(
                "option 'join_strategy' must be 'hash' or 'nested_loop'"
            )
    if "timeout" in options:
        timeout = options["timeout"]
        if (
            not isinstance(timeout, (int, float))
            or isinstance(timeout, bool)
            # ``not >``, not ``<=``: NaN compares false both ways.
            or not timeout > 0
        ):
            raise ProtocolError("option 'timeout' must be a positive number")
    return options


def parse_rule(spec: Any, schema: Schema) -> SemanticConstraint:
    """Build a :class:`SemanticConstraint` from its wire spec.

    The spec is a JSON object: ``name`` (required), ``consequent``
    (required, a predicate in the paper's notation, e.g.
    ``"cargo.quantity <= 500"``), ``antecedents`` (list of predicates,
    default empty), ``classes`` / ``relationships`` (anchor lists) and
    ``description``.  The constraint is validated against the schema by
    the repository when added.
    """
    if not isinstance(spec, dict):
        raise ProtocolError("rule must be a JSON object")
    name = spec.get("name")
    if not isinstance(name, str) or not name:
        raise ProtocolError("rule.name must be a non-empty string")
    if not isinstance(spec.get("consequent"), str):
        raise ProtocolError("rule.consequent must be a predicate string")
    antecedents_raw = spec.get("antecedents", [])
    if not isinstance(antecedents_raw, list):
        raise ProtocolError("rule.antecedents must be a list of predicate strings")
    for key in ("classes", "relationships"):
        value = spec.get(key, [])
        if not isinstance(value, list) or not all(
            isinstance(item, str) for item in value
        ):
            raise ProtocolError(f"rule.{key} must be a list of names")
    try:
        antecedents = [parse_predicate(text) for text in antecedents_raw]
        consequent = parse_predicate(spec["consequent"])
    except Exception as exc:
        raise ProtocolError(f"invalid rule predicate: {exc}") from None
    return SemanticConstraint.build(
        name=name,
        antecedents=antecedents,
        consequent=consequent,
        anchor_classes=spec.get("classes", []),
        anchor_relationships=spec.get("relationships", []),
        description=spec.get("description", ""),
    )


def _parse_class_name(frame: Dict[str, Any], schema: Schema) -> str:
    class_name = frame.get("class")
    if not isinstance(class_name, str) or not class_name:
        raise ProtocolError("mutation requires a non-empty 'class' string")
    if not schema.has_class(class_name):
        raise ProtocolError(f"unknown object class {class_name!r}")
    return class_name


def _parse_values(raw: Any, class_name: str, schema: Schema, label: str) -> Dict[str, Any]:
    """Validate one attribute-values object against the schema.

    Attribute existence is checked here — before the request ever reaches
    the worker pool — so a malformed write is a ``protocol_error``, never a
    half-applied mutation.
    """
    if not isinstance(raw, dict):
        raise ProtocolError(f"{label} must be a JSON object of attribute values")
    cls = schema.object_class(class_name)
    for attribute_name in raw:
        if not isinstance(attribute_name, str) or not cls.has_attribute(
            attribute_name
        ):
            raise ProtocolError(
                f"class {class_name!r} has no attribute {attribute_name!r}"
            )
    return dict(raw)


def _parse_oid(frame: Dict[str, Any]) -> int:
    oid = frame.get("oid")
    if not isinstance(oid, int) or isinstance(oid, bool) or oid < 1:
        raise ProtocolError("mutation requires an integer 'oid' >= 1")
    return oid


def _parse_nothing(request: Request, frame: Dict[str, Any], schema: Schema) -> None:
    """A frame that carries nothing but ``id`` and ``op``."""


def _parse_query_op(request: Request, frame: Dict[str, Any], schema: Schema) -> None:
    """A frame that carries one ``query`` and its ``options``."""
    request.queries = [_parse_query_text(frame.get("query"), schema, "query")]
    request.options = _parse_options(frame.get("options"))


def _parse_batch(request: Request, frame: Dict[str, Any], schema: Schema) -> None:
    queries = frame.get("queries")
    if not isinstance(queries, list) or not queries:
        raise ProtocolError("queries must be a non-empty list of query strings")
    request.queries = [
        _parse_query_text(text, schema, f"queries[{index}]")
        for index, text in enumerate(queries)
    ]
    request.options = _parse_options(frame.get("options"))


def _parse_rules(request: Request, frame: Dict[str, Any], schema: Schema) -> None:
    action = frame.get("action")
    if action not in ("add", "remove"):
        raise ProtocolError("rules.action must be 'add' or 'remove'")
    request.action = action
    if action == "add":
        request.rule = parse_rule(frame.get("rule"), schema)
    else:
        name = frame.get("name")
        if not isinstance(name, str) or not name:
            raise ProtocolError("rules remove requires a non-empty 'name'")
        request.rule_name = name


def _parse_mutation(request: Request, frame: Dict[str, Any], schema: Schema) -> None:
    """A write frame: ``class``, then ``oid`` / ``values`` / ``rows`` by op."""
    # Options are validated for mutation frames too: 'timeout' is
    # honored (bounding the caller's wait); the rest are rejected or
    # ignored exactly as on the read ops.
    request.options = _parse_options(frame.get("options"))
    request.class_name = _parse_class_name(frame, schema)
    if request.op in ("update", "delete"):
        request.oid = _parse_oid(frame)
    if request.op in ("insert", "update"):
        request.values = _parse_values(
            frame.get("values"), request.class_name, schema, "values"
        )
    if request.op == "insert_many":
        rows = frame.get("rows")
        if not isinstance(rows, list) or not rows:
            raise ProtocolError("rows must be a non-empty list of value objects")
        if len(rows) > MAX_MUTATION_ROWS:
            raise ProtocolError(
                f"rows exceeds the per-frame bound of {MAX_MUTATION_ROWS}"
            )
        request.rows = [
            _parse_values(row, request.class_name, schema, f"rows[{index}]")
            for index, row in enumerate(rows)
        ]


def _parse_unsubscribe(request: Request, frame: Dict[str, Any], schema: Schema) -> None:
    subscription = frame.get("subscription")
    if not isinstance(subscription, str) or not subscription:
        raise ProtocolError("unsubscribe requires a non-empty 'subscription' id")
    request.subscription = subscription


# ----------------------------------------------------------------------
# The op table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpSpec:
    """One RPC a request frame may name, and what the stack does with it.

    ``parse`` fills the op's fields of a :class:`Request` from the frame.
    ``inline``: the gateway answers it on the event loop before
    admission, so it stays answerable while admission is full or
    draining.  ``warm``: the gateway gives it a free admission slot
    without queueing when there is one, and answers it on the event loop
    when the service can do so at once from a cached optimization
    (:meth:`~repro.service.OptimizationService.serve_warm`); otherwise it
    goes through single-flight to the worker pool.  ``writes``: it
    changes served state (stored rows or
    declared rules), so a read-only replica refuses it with
    ``read_only``, and the router pins the connection to the store
    version a write answers with (read-your-writes).  ``replica``: the
    router may send it to a replica; every other op goes to the primary.
    ``retry``: it has no effect beyond caches, so a reconnecting client
    may resend it after a dropped connection.
    """

    name: str
    parse: Callable[[Request, Dict[str, Any], Schema], None] = _parse_nothing
    inline: bool = False
    warm: bool = False
    writes: bool = False
    replica: bool = False
    retry: bool = False


#: Every RPC a request frame may name, by name: the one place an op is
#: declared.  The gateway serves each with its ``_serve_<name>`` method.
OPS: Dict[str, OpSpec] = {
    spec.name: spec
    for spec in (
        OpSpec("optimize", _parse_query_op, warm=True, replica=True, retry=True),
        OpSpec("execute", _parse_query_op, warm=True, replica=True, retry=True),
        OpSpec("execute_batch", _parse_batch, replica=True, retry=True),
        OpSpec("stats", inline=True, retry=True),
        OpSpec("rules", _parse_rules, writes=True),
        OpSpec("insert", _parse_mutation, writes=True),
        OpSpec("insert_many", _parse_mutation, writes=True),
        OpSpec("update", _parse_mutation, writes=True),
        OpSpec("delete", _parse_mutation, writes=True),
        OpSpec("subscribe_wal", inline=True, retry=True),
        OpSpec("replica_status", inline=True, retry=True),
        OpSpec("backup"),
        OpSpec("subscribe", _parse_query_op),
        OpSpec("unsubscribe", _parse_unsubscribe),
    )
}


def op_spec(name: Any) -> Optional[OpSpec]:
    """The :data:`OPS` entry called ``name``; ``None`` for anything else.

    >>> op_spec("stats").inline
    True
    >>> op_spec(["stats"]) is None  # any JSON value may arrive as an op
    True
    """
    return OPS.get(name) if isinstance(name, str) else None


def parse_request(frame: Dict[str, Any], schema: Schema) -> Request:
    """Validate a frame and parse its queries into the existing query AST."""
    op = frame.get("op")
    spec = op_spec(op)
    if spec is None:
        raise ProtocolError(
            f"unknown op {op!r} (choose from: {', '.join(OPS)})"
        )
    request = Request(op=op, id=frame.get("id"))
    spec.parse(request, frame, schema)
    return request


# ----------------------------------------------------------------------
# Response payloads
# ----------------------------------------------------------------------
def optimization_payload(envelope: ServiceResult) -> Dict[str, Any]:
    """The ``result`` object of an ``optimize`` response."""
    from ..query.formatter import format_query

    result = envelope.result
    return {
        "optimized_query": format_query(result.optimized),
        "eliminated_classes": sorted(result.eliminated_classes),
        "transformations": len(result.trace.records),
        "source": envelope.source.value,
        "timings": {
            "service": envelope.service_time,
            "retrieval": result.timings.retrieval,
            "initialization": result.timings.initialization,
            "transformation": result.timings.transformation,
            "formulation": result.timings.formulation,
        },
    }


def execution_payload(envelope: ExecutionEnvelope) -> Dict[str, Any]:
    """The ``result`` object of an ``execute`` response.

    Carries the answer rows (the projection, exactly as the engine built
    them), the engine's cost counters, wall-clock timings and the cache
    provenance of the optimization half.
    """
    optimization = envelope.optimization
    return {
        "rows": envelope.execution.rows,
        "row_count": envelope.execution.row_count,
        "metrics": envelope.metrics.as_dict(),
        "execution_mode": envelope.execution_mode,
        "coalesced": False,
        "timings": {
            "execute": envelope.execute_time,
            "service": optimization.service_time if optimization else 0.0,
        },
        "provenance": {
            "optimized": optimization is not None,
            "source": optimization.source.value if optimization else None,
        },
    }


def mutation_payload(result) -> Dict[str, Any]:
    """The ``result`` object of a mutation response.

    Serializes the :class:`~repro.service.MutationResult` verbatim: the
    written OIDs, the shards whose version counters moved, the post-write
    store/shard versions, and whether any dynamic rules were re-derived.
    """
    return result.as_dict()


def batch_payload(batch) -> Dict[str, Any]:
    """The ``result`` object of an ``execute_batch`` response."""
    return {
        "results": [execution_payload(envelope) for envelope in batch.results],
        "stats": {
            "total": batch.stats.total,
            "wall_time": batch.stats.wall_time,
            "optimize_time": batch.stats.optimize_time,
            "execute_time": batch.stats.execute_time,
            "execution_mode": batch.stats.execution_mode,
            "throughput": batch.stats.throughput,
        },
    }


def diff_frame(
    subscription: str, version: int, changes: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """A server-initiated ``diff`` push frame (ordered sequential edits)."""
    return {
        "push": "diff",
        "subscription": subscription,
        "version": version,
        "changes": changes,
    }


def resync_frame(
    subscription: str, version: int, rows: List[Dict[str, Any]], reason: str
) -> Dict[str, Any]:
    """A server-initiated ``resync`` push frame (full row replacement)."""
    return {
        "push": "resync",
        "subscription": subscription,
        "version": version,
        "rows": rows,
        "reason": reason,
    }


def ok_response(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    """A success frame echoing the request's correlation id."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, error: Exception) -> Dict[str, Any]:
    """An error frame for any exception (stable codes for gateway errors)."""
    code = error.code if isinstance(error, GatewayError) else "internal"
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": str(error) or type(error).__name__},
    }
