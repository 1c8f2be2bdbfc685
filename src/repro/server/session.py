"""One client connection to the gateway.

:class:`ClientSession` owns a connected ``(reader, writer)`` pair: it reads
line-delimited JSON frames, dispatches each through the gateway (requests
of one connection are **pipelined** — each frame becomes its own task, so a
slow query never blocks the frames behind it and responses may return out
of order, correlated by ``id``), and writes responses back.

Failure containment:

* a malformed frame gets an error response and the session keeps reading —
  one bad frame never takes down the connection;
* a reply the codec cannot carry is answered by an ``internal`` error
  frame for its request (:func:`~repro.server.protocol.encode_frame`);
* a client disconnect mid-request cancels that client's *waits* only; any
  single-flight work its requests started keeps running for the other
  clients waiting on it (see :meth:`QueryGateway._coalesced`);
* write failures (peer reset) discard the response and close the session.
"""

from __future__ import annotations

import asyncio
import itertools

from .errors import ProtocolError
from .protocol import encode_frame, error_response

#: Monotonic fallback ids for sessions whose peername is unavailable.
_session_ids = itertools.count(1)


class ClientSession:
    """Reads frames from one connection and answers them, pipelined."""

    def __init__(
        self,
        gateway,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.gateway = gateway
        self.reader = reader
        self.writer = writer
        peer = writer.get_extra_info("peername")
        self.client_id = (
            f"{peer[0]}:{peer[1]}"
            if isinstance(peer, tuple) and len(peer) >= 2
            else f"session-{next(_session_ids)}"
        )
        self._tasks: set = set()
        self._closed = False

    async def run(self) -> None:
        """Read frames until EOF/disconnect, answering each concurrently.

        EOF is a *half-close*, not an abort: the client may have finished
        sending and still be reading, so pending responses are flushed
        before the transport closes.  Only transport errors (peer reset)
        abandon in-flight responses.
        """
        clean_eof = False
        try:
            while True:
                try:
                    line = await self.reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # Frame longer than the stream limit: the line is
                    # unrecoverable, so report and drop the connection.
                    await self._send(
                        error_response(None, ProtocolError("request frame too long"))
                    )
                    break
                if not line:  # EOF — the client finished sending
                    clean_eof = True
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(self._respond(line))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            await self.close(flush=clean_eof)

    async def _respond(self, line: bytes) -> None:
        response = await self.gateway.dispatch_line(
            line, self.client_id, subscriber=self
        )
        await self._send(response)

    async def push_frame(self, payload: dict) -> None:
        """Write one server-initiated push frame (subscription diffs)."""
        await self._send(payload)

    async def _send(self, response: dict) -> None:
        if self._closed:
            return
        try:
            self.writer.write(encode_frame(response))
            await self.writer.drain()
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            # Peer vanished between computing and writing; drop quietly.
            pass

    async def close(self, flush: bool = False) -> None:
        """Finish (``flush=True``) or cancel pending waits, then close.

        With ``flush`` the session lets in-flight requests complete and
        writes their responses first (each is bounded by the gateway's
        request timeout, so this cannot hang).  Without it, the
        per-request *waiting* tasks are cancelled; either way, shared
        single-flight work started on the worker pool is resolved by its
        worker thread regardless, so other sessions' identical requests
        still complete.
        """
        if self._closed:
            return
        if flush and self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        self._closed = True
        # A disconnect frees every standing subscription this connection
        # owned — the server must not keep maintaining views nobody reads.
        self.gateway.release_subscriber(self)
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
