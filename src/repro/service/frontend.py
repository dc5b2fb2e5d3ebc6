"""The asyncio TCP front-end that serves the engine to external clients.

:class:`ServiceFrontend` glues three single-purpose pieces together on one
event loop (stdlib ``asyncio`` only — no new dependencies):

* ``asyncio.start_server`` connections, one reader coroutine each, speaking
  the newline-delimited JSON protocol of :mod:`repro.service.protocol`;
* the bounded :class:`~repro.service.queue.RequestQueue` every connection
  funnels into (full queue → immediate ``overloaded`` response);
* the **engine pump**: one background task that drains the queue's two
  lanes in batches of up to ``max_batch`` requests — writes (join/leave)
  as one window through the session's ``begin_window``/``finish_window``,
  reads (:data:`~repro.service.protocol.READ_OPS`) beside it — resolves
  each request's future, then yields to the loop so socket I/O interleaves
  with engine work instead of starving behind it.  The same loop serves
  :class:`~repro.service.session.LiveEngineSession` and
  :class:`~repro.service.sharded.ShardedLiveSession`.

Responses are matched to requests by the echoed ``id``, not by order:
each request gets its own small responder task, so a pipelined connection
receives answers as the engine finishes them.  Per-request latency
(admission to response-ready, ``time.perf_counter``) rides on every
response frame.

Shutdown is graceful by default: new work is refused with
``shutting_down``/``overloaded``, everything already admitted is drained
through the engine, responders finish writing, and the session seals its
trace with the final state hash.  A crashed pump seals the trace through
the abort path instead (flushed, no end frame — the crashed-run shape).

A request line longer than :data:`MAX_FRAME_BYTES` is answered
``bad_request`` and its connection closed.
"""

from __future__ import annotations

import asyncio
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from .protocol import (
    ERROR_BAD_REQUEST,
    ERROR_FAILED,
    ERROR_OVERLOADED,
    ERROR_SHUTTING_DOWN,
    READ_OPS,
    ProtocolError,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
)
from .queue import DEFAULT_MAX_QUEUE, RequestQueue
from .session import LiveEngineSession

#: Default number of queued requests the pump executes per engine batch.
DEFAULT_MAX_BATCH = 64

#: Longest request line a connection may send, newline included (the
#: ``StreamReader`` buffer limit).
MAX_FRAME_BYTES = 64 * 1024

#: Queue lanes: writes are ordered and windowed, reads ride beside them.
WRITE_LANE = 0
READ_LANE = 1


@dataclass
class _Pending:
    """One admitted request awaiting the engine."""

    frame: Dict[str, Any]
    future: asyncio.Future
    enqueued_at: float = field(default_factory=time.perf_counter)


class ServiceFrontend:
    """Serves a live session (classic or sharded) over TCP."""

    def __init__(
        self,
        session: LiveEngineSession,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.session = session
        self.host = host
        self.port = port
        self.max_batch = max_batch
        self.queue = RequestQueue(maxsize=max_queue, lanes=2)
        self.connections_served = 0
        self.responses_sent = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._responders: Set[asyncio.Task] = set()
        self._connections: Set[asyncio.Task] = set()
        self._shutdown = asyncio.Event()
        self._shutdown_reason: Optional[str] = None
        self._pump_error: Optional[BaseException] = None
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start the engine pump."""
        self.session.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port, limit=MAX_FRAME_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._pump_task = asyncio.create_task(self._pump())

    def request_shutdown(self, reason: str = "requested") -> None:
        """Ask the serve loop to stop (signal handlers and `shutdown` op)."""
        if self._shutdown_reason is None:
            self._shutdown_reason = reason
        self._shutdown.set()

    @property
    def shutdown_reason(self) -> Optional[str]:
        """Why the serve loop stopped (``None`` while running)."""
        return self._shutdown_reason

    async def serve_until_shutdown(self) -> None:
        """Block until :meth:`request_shutdown`, then stop gracefully."""
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        """Graceful stop: drain admitted work, seal the trace, close."""
        if self._stopped:
            return
        self._stopped = True
        self._shutdown.set()
        # Refuse new connections first, then new requests: live reader
        # loops see a closed queue and answer ``overloaded``.
        if self._server is not None:
            self._server.close()
        self.queue.close()
        if self._pump_task is not None:
            # The pump re-raises its fatal error; swallow it here (it is
            # kept in _pump_error and re-raised below) so the trace still
            # gets sealed and the responders still finish writing.
            await asyncio.gather(self._pump_task, return_exceptions=True)
        if self._responders:
            await asyncio.gather(*tuple(self._responders), return_exceptions=True)
        # Reader loops still blocked on a client that never hangs up would
        # otherwise be cancelled abruptly at loop teardown (a noisy
        # traceback); cancel them here, after every admitted request has
        # been answered.
        for task in tuple(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*tuple(self._connections), return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        self.session.close(ok=self._pump_error is None)
        if self._pump_error is not None:
            raise self._pump_error

    # ------------------------------------------------------------------
    # Engine pump
    # ------------------------------------------------------------------
    async def _pump(self) -> None:
        """Drain → execute → resolve until the queue closes.

        Each iteration drains both lanes, hands the write batch to the
        session (``begin_window``; the sharded backend only dispatches it
        to the workers), serves whatever reads need no worker round trip
        *while the window executes*, then collects the window
        (``finish_window``) and serves the deferred reads from the new
        state.  An exception on the write path other than a request's
        :class:`ProtocolError` — a shard worker dying is the expected one
        — is fatal: every request of the batch and everything still
        queued is answered ``failed`` (never a hung connection) and the
        serve loop shuts down; :meth:`stop` re-raises it after sealing the
        trace in crashed-run shape.
        """
        session = self.session
        try:
            while True:
                await self.queue.wait()
                writes = self.queue.drain(self.max_batch, lane=WRITE_LANE)
                reads = self.queue.drain(self.max_batch, lane=READ_LANE)
                if not writes and not reads:
                    if self.queue.closed:
                        return
                    continue
                try:
                    handle = session.begin_window([p.frame for p in writes]) if writes else None
                    deferred = []
                    for pending in reads:
                        if handle is not None and not session.read_ready(pending.frame["op"]):
                            deferred.append(pending)
                        else:
                            self._execute_read(pending)
                    if handle is not None:
                        outcomes = session.finish_window(handle)
                        for pending, outcome in zip(writes, outcomes):
                            self._resolve(pending, outcome)
                    for pending in deferred:
                        self._execute_read(pending)
                except Exception as error:
                    self._fail_batch(
                        writes + reads, f"engine failed executing this window: {error}"
                    )
                    raise
                await asyncio.sleep(0)
        except BaseException as error:
            self._pump_error = error
            self.request_shutdown(f"engine pump failed: {error}")
            self._abort_queued(f"engine pump failed: {error}")
            raise

    def _execute_read(self, pending: _Pending) -> None:
        """Serve one read-lane request.

        A read never changes engine state, so an unexpected failure answers
        this request alone and the server keeps serving.
        """
        op = pending.frame["op"]
        try:
            outcome = self.session.execute(pending.frame)
            if op == "status":
                outcome["queue"] = {
                    "depth": len(self.queue),
                    "bound": self.queue.maxsize,
                    "accepted": self.queue.accepted,
                    "rejected": self.queue.rejected,
                }
        except ProtocolError as error:
            outcome = error
        except Exception as error:
            print(f"service: {op} request failed: {error!r}", file=sys.stderr)
            outcome = ProtocolError(ERROR_FAILED, f"internal error: {error}")
        self._resolve(pending, outcome)

    def _resolve(self, pending: _Pending, outcome: Any) -> None:
        """Answer one request with its result dict or :class:`ProtocolError`."""
        if pending.future.done():
            return
        frame = pending.frame
        request_id = frame.get("id")
        op = frame["op"]
        if isinstance(outcome, ProtocolError):
            response = error_response(request_id, op, outcome.code, outcome.message)
        else:
            response = ok_response(request_id, op, outcome)
        response["latency_ms"] = round(
            (time.perf_counter() - pending.enqueued_at) * 1000.0, 3
        )
        pending.future.set_result(response)

    def _fail_batch(self, batch, message: str) -> None:
        """Answer every unresolved request of a batch with ``failed``."""
        for pending in batch:
            self._resolve(pending, ProtocolError(ERROR_FAILED, message))

    def _abort_queued(self, message: str) -> None:
        """Close the queue and fail everything still waiting in it.

        Runs synchronously inside the pump's fatal-error handler (no awaits
        between close and drain), so no request can slip in unanswered:
        later arrivals see the closed queue and get ``shutting_down``.
        """
        self.queue.close()
        leftovers = []
        for lane in range(self.queue.lanes):
            leftovers += self.queue.drain(len(self.queue) + 1, lane=lane)
        self._fail_batch(leftovers, message)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_served += 1
        write_lock = asyncio.Lock()
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The line overran MAX_FRAME_BYTES.  asyncio may have
                    # dropped only part of it, so the stream cannot be
                    # trusted to resynchronise: answer and hang up.
                    await self._write(
                        writer,
                        write_lock,
                        error_response(
                            None,
                            None,
                            ERROR_BAD_REQUEST,
                            f"request line exceeds {MAX_FRAME_BYTES} bytes",
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    frame = parse_request(line.decode("utf-8", errors="replace"))
                except ProtocolError as error:
                    await self._write(
                        writer,
                        write_lock,
                        error_response(error.request_id, error.op, error.code, error.message),
                    )
                    continue
                if frame["op"] == "shutdown":
                    await self._write(
                        writer,
                        write_lock,
                        ok_response(frame.get("id"), "shutdown", {"stopping": True}),
                    )
                    self.request_shutdown("client shutdown request")
                    continue
                if self.queue.closed:
                    await self._write(
                        writer,
                        write_lock,
                        error_response(
                            frame.get("id"),
                            frame["op"],
                            ERROR_SHUTTING_DOWN,
                            "server is shutting down",
                        ),
                    )
                    continue
                pending = _Pending(frame=frame, future=loop.create_future())
                lane = READ_LANE if frame["op"] in READ_OPS else WRITE_LANE
                if not self.queue.offer(pending, lane=lane):
                    # The backpressure fast path: the queue bound was hit, the
                    # client hears about it now instead of waiting in line.
                    await self._write(
                        writer,
                        write_lock,
                        error_response(
                            frame.get("id"),
                            frame["op"],
                            ERROR_OVERLOADED,
                            f"request queue is full ({self.queue.maxsize})",
                        ),
                    )
                    continue
                responder = asyncio.create_task(self._respond(pending, writer, write_lock))
                self._responders.add(responder)
                responder.add_done_callback(self._responders.discard)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancelled this reader while it waited for the next
            # line; every admitted request is already answered, so finishing
            # quietly (and closing the socket below) is the clean exit —
            # propagating would make asyncio log a spurious traceback.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                # stop() may cancel a reader that is already closing here;
                # as above, the connection is done, and a task ending
                # cancelled makes asyncio log a spurious traceback.
                pass

    async def _respond(
        self, pending: _Pending, writer: asyncio.StreamWriter, lock: asyncio.Lock
    ) -> None:
        response = await pending.future
        await self._write(writer, lock, response)

    async def _write(
        self, writer: asyncio.StreamWriter, lock: asyncio.Lock, frame: Dict[str, Any]
    ) -> None:
        async with lock:
            if writer.is_closing():
                return
            try:
                writer.write(encode_frame(frame))
                await writer.drain()
                self.responses_sent += 1
            except (ConnectionResetError, BrokenPipeError):
                # The client went away mid-response; the engine work is done
                # and recorded, dropping the reply is all that is left.
                pass
