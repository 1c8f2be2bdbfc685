"""`repro route`: the consistent-hash query router over a replica fleet.

The router is a thin asyncio TCP tier speaking the exact gateway wire
protocol (:mod:`repro.server.protocol`), so every existing client —
``AsyncGatewayClient``, the loadgen, ``nc`` — works against it
unchanged.  Per incoming frame:

* ops :data:`~repro.server.protocol.OPS` declares ``replica``
  (``optimize`` / ``execute`` / ``execute_batch``) are **reads**: the
  query text parses to its structural
  :func:`~repro.query.equivalence.equivalence_key`, and the
  :class:`~repro.replication.ring.ConsistentHashRing` picks the replica
  — so repeated query shapes land on the same replica and its caches
  stay hot.  A transport failure fails over along the ring and finally
  to the primary; requests never error just because one replica died.
* everything else (mutations, ``rules``, ``backup``, ``stats``, ...)
  forwards to the single-writer **primary**.

**Read-your-writes**: each client connection is pinned to the
``store_version`` its last successful write answered with.  A later read on
that connection only goes to a replica whose acked/applied version has
caught up — the router polls the replica's ``replica_status`` (briefly,
bounded) and otherwise falls back to the next ring node or the primary,
which trivially satisfies the pin.

Backend connections are shared, pipelined
:class:`~repro.server.client.AsyncGatewayClient`\\ s opened with
bounded reconnect-and-retry for idempotent reads, so a replica restart
is absorbed by the router rather than surfaced to clients.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Tuple

from ..query import parse_query
from ..query.equivalence import equivalence_key
from ..server.client import AsyncGatewayClient
from ..server.errors import GatewayError, GatewayRequestError, ProtocolError
from ..server.protocol import (
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    op_spec,
)
from .ring import ConsistentHashRing, route_key

__all__ = ["QueryRouter"]

_ROUTE_KEY_CACHE_LIMIT = 4096


def _parse_endpoint(endpoint: str) -> Tuple[str, int]:
    host, _, port = endpoint.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"endpoint must be HOST:PORT, got {endpoint!r}")
    return host, int(port)


class _ConnectionState:
    """Per-client-connection read-your-writes pin."""

    __slots__ = ("min_version",)

    def __init__(self):
        self.min_version = 0


class QueryRouter:
    """Routes gateway traffic across one primary and N read replicas."""

    def __init__(
        self,
        primary: str,
        replicas: List[str],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        retry_reads: int = 5,
        pin_poll_interval: float = 0.02,
        pin_timeout: float = 5.0,
        vnodes: int = 64,
    ):
        self.primary_endpoint = primary
        self.replica_endpoints = list(replicas)
        self.host = host
        self.port = port
        self.retry_reads = retry_reads
        self.pin_poll_interval = pin_poll_interval
        self.pin_timeout = pin_timeout
        self._ring = ConsistentHashRing(self.replica_endpoints, vnodes=vnodes)
        self._server: Optional[asyncio.AbstractServer] = None
        self._primary: Optional[AsyncGatewayClient] = None
        self._backends: Dict[str, AsyncGatewayClient] = {}
        #: Last applied version observed per replica endpoint.
        self._applied: Dict[str, int] = {}
        self._route_keys: Dict[str, str] = {}
        self._stats = {
            "requests": 0,
            "routed_reads": 0,
            "routed_writes": 0,
            "failovers": 0,
            "stalls": 0,
            "errors": 0,
        }

    async def start(self) -> Tuple[str, int]:
        """Connect every backend and bind the listener."""
        primary_host, primary_port = _parse_endpoint(self.primary_endpoint)
        self._primary = await AsyncGatewayClient.connect(
            primary_host,
            primary_port,
            client_id="router-primary",
            retry_reads=self.retry_reads,
        )
        for endpoint in self.replica_endpoints:
            # A replica that is down at startup is not fatal: reads fail
            # over, and the backend is re-established lazily once it is
            # reachable again.
            await self._ensure_backend(endpoint)
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port, limit=1 << 20
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def stop(self) -> None:
        """Close the listener and every backend connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        clients = list(self._backends.values())
        self._backends = {}
        if self._primary is not None:
            clients.append(self._primary)
            self._primary = None
        for client in clients:
            await client.close()

    def status(self) -> Dict[str, Any]:
        return {
            "primary": self.primary_endpoint,
            "replicas": list(self.replica_endpoints),
            **self._stats,
        }

    # ------------------------------------------------------------------
    # Client connections.

    async def _serve_connection(self, reader, writer) -> None:
        state = _ConnectionState()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                response = await self._handle_line(line, state)
                writer.write(encode_frame(response))
                await writer.drain()
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_line(self, line: bytes, state: _ConnectionState) -> dict:
        self._stats["requests"] += 1
        request_id: Any = None
        try:
            frame = decode_frame(line)
            request_id = frame.get("id")
            spec = op_spec(frame.get("op"))
            body = {key: value for key, value in frame.items() if key != "id"}
            if spec is not None and spec.replica:
                result = await self._route_read(frame, body, state)
            else:
                result = await self._forward_primary(spec, body, state)
            return ok_response(request_id, result)
        except (GatewayError, ProtocolError) as exc:
            self._stats["errors"] += 1
            return error_response(request_id, exc)
        except (ConnectionError, OSError) as exc:
            self._stats["errors"] += 1
            return error_response(
                request_id, GatewayError(f"backend unreachable: {exc}")
            )

    async def _forward_primary(
        self, spec, body: dict, state: _ConnectionState
    ) -> Any:
        self._stats["routed_writes"] += 1
        result = await self._primary.request(body)
        if spec is not None and spec.writes and isinstance(result, dict):
            version = result.get("store_version")
            if isinstance(version, int) and not isinstance(version, bool):
                # Pin this connection: its later reads must observe at
                # least this store version (read-your-writes).  A rules
                # answer carries none: rules are not replicated.
                state.min_version = max(state.min_version, version)
        return result

    async def _ensure_backend(
        self, endpoint: str
    ) -> Optional[AsyncGatewayClient]:
        """The backend client for ``endpoint``, connecting if needed.

        Returns ``None`` when the replica is unreachable (connection
        refused is immediate on localhost fleets); the caller fails
        over and a later read retries the connect once the replica is
        back."""
        client = self._backends.get(endpoint)
        if client is not None:
            return client
        replica_host, replica_port = _parse_endpoint(endpoint)
        try:
            client = await AsyncGatewayClient.connect(
                replica_host,
                replica_port,
                client_id=f"router-{endpoint}",
                retry_reads=self.retry_reads,
            )
        except (ConnectionError, OSError):
            return None
        existing = self._backends.get(endpoint)
        if existing is not None:  # a concurrent read connected first
            await client.close()
            return existing
        self._backends[endpoint] = client
        return client

    async def _route_read(
        self, frame: dict, body: dict, state: _ConnectionState
    ) -> Any:
        self._stats["routed_reads"] += 1
        key = self._route_key(frame)
        for endpoint in self._ring.nodes_for(key):
            client = await self._ensure_backend(endpoint)
            if client is None:
                self._stats["failovers"] += 1
                continue
            if state.min_version and not await self._wait_for_version(
                endpoint, client, state.min_version
            ):
                self._stats["failovers"] += 1
                continue
            try:
                return await client.request(body)
            except GatewayRequestError:
                raise  # the backend answered; a server-side error is final
            except (GatewayError, ConnectionError, OSError):
                # The client's own reconnect budget is exhausted: drop
                # the backend so later reads re-establish it lazily (a
                # fast refused connect while it is down) instead of
                # paying the full retry delay on every request.
                self._stats["failovers"] += 1
                stale = self._backends.pop(endpoint, None)
                if stale is not None:
                    await stale.close()
                continue
        # No usable replica (none configured, all stale, or all down):
        # the primary always satisfies any pin.
        return await self._primary.request(body)

    def _route_key(self, frame: dict) -> str:
        if frame.get("op") == "execute_batch":
            queries = frame.get("queries")
            text = queries[0] if isinstance(queries, list) and queries else ""
        else:
            text = frame.get("query")
        if not isinstance(text, str) or not text:
            return ""
        cached = self._route_keys.get(text)
        if cached is not None:
            return cached
        try:
            key = route_key(equivalence_key(parse_query(text, name="route")))
        except Exception:
            key = text.strip()
        if len(self._route_keys) >= _ROUTE_KEY_CACHE_LIMIT:
            self._route_keys.clear()
        self._route_keys[text] = key
        return key

    async def _wait_for_version(
        self, endpoint: str, client: AsyncGatewayClient, min_version: int
    ) -> bool:
        """True once ``endpoint`` has applied ``min_version``.

        Polls the replica's ``replica_status`` (bounded by
        ``pin_timeout``); a False return means the caller should fail
        over rather than serve a stale read.
        """
        if self._applied.get(endpoint, 0) >= min_version:
            return True
        deadline = time.monotonic() + self.pin_timeout
        stalled = False
        while True:
            try:
                status = await client.request({"op": "replica_status"})
            except (GatewayError, ConnectionError, OSError):
                return False
            applied = status.get("applied_version", status.get("store_version", 0))
            if isinstance(applied, int) and not isinstance(applied, bool):
                self._applied[endpoint] = applied
                if applied >= min_version:
                    return True
            if time.monotonic() >= deadline:
                return False
            if not stalled:
                stalled = True
                self._stats["stalls"] += 1
            await asyncio.sleep(self.pin_poll_interval)
