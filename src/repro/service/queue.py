"""The bounded request queue between the socket layer and the engine.

The engine is single-threaded by construction (determinism demands one
serialised event stream), so every connection funnels into one queue that
the engine pump drains in batches.  The queue is **bounded with fast-fail
admission**: when it is full, :meth:`RequestQueue.offer` returns ``False``
immediately and the caller answers ``overloaded`` — the client learns about
the overload at enqueue time, within one round trip, instead of discovering
it as an unbounded latency tail while the server buffers itself to death.
Rejecting at admission keeps the worst-case queueing delay at
``maxsize / service_rate`` by design.

Not an :class:`asyncio.Queue`: that class blocks producers when full (the
opposite of fast-fail) and wakes one consumer per item (the pump wants
batches).  This is a plain deque plus one wakeup event, single-consumer by
contract.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, List

from ..errors import ConfigurationError

#: Default bound on queued requests awaiting the engine.
DEFAULT_MAX_QUEUE = 1024


class RequestQueue:
    """Bounded single-consumer FIFO with fast-fail admission.

    ``offer`` never blocks and never grows the queue past ``maxsize``;
    ``drain`` hands the consumer up to ``limit`` items at once; ``wait``
    parks the consumer until items arrive or the queue is closed.

    ``lanes`` splits the queue into that many independent FIFOs behind one
    shared bound and one wakeup (the engine pump's write/read split: lane
    order is preserved *within* a lane; the consumer chooses the drain
    order across lanes).
    """

    def __init__(self, maxsize: int = DEFAULT_MAX_QUEUE, lanes: int = 1) -> None:
        if maxsize < 1:
            raise ConfigurationError("request queue bound must be >= 1")
        if lanes < 1:
            raise ConfigurationError("request queue needs at least one lane")
        self.maxsize = maxsize
        self.lanes = lanes
        self.accepted = 0
        self.rejected = 0
        self._lanes: List[deque] = [deque() for _ in range(lanes)]
        self._size = 0
        self._wakeup = asyncio.Event()
        self._closed = False

    def offer(self, item: Any, lane: int = 0) -> bool:
        """Admit one item; ``False`` (immediately) when full or closed.

        The bound is shared across lanes: a full read lane rejects writes
        too, and vice versa — total queued work stays capped at ``maxsize``.
        """
        if self._closed or self._size >= self.maxsize:
            self.rejected += 1
            return False
        self._lanes[lane].append(item)
        self._size += 1
        self.accepted += 1
        self._wakeup.set()
        return True

    def drain(self, limit: int, lane: int = 0) -> List[Any]:
        """Remove and return up to ``limit`` items of one lane (oldest first)."""
        items: List[Any] = []
        queue = self._lanes[lane]
        while queue and len(items) < limit:
            items.append(queue.popleft())
        self._size -= len(items)
        if not self._size and not self._closed:
            self._wakeup.clear()
        return items

    async def wait(self) -> None:
        """Park until at least one item is queued or the queue is closed."""
        await self._wakeup.wait()

    def close(self) -> None:
        """Stop admitting; wakes the consumer so it can finish draining."""
        self._closed = True
        self._wakeup.set()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called (offers are rejected)."""
        return self._closed

    def __len__(self) -> int:
        return self._size
