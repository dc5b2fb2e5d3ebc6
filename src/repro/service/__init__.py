"""Live service mode: serve the NOW protocol, don't just simulate it.

Everything below :mod:`repro.service` turns the batch engine into a
network service under measured load:

* :mod:`repro.service.protocol` — the newline-delimited JSON wire format
  (operations, error codes, strict pre-engine validation);
* :mod:`repro.service.queue`    — the bounded request queue with fast-fail
  ``overloaded`` admission (the backpressure contract);
* :mod:`repro.service.session`  — :class:`LiveEngineSession`: one engine,
  one observation bus, a private service RNG for reads so recorded
  sessions replay bit-identically through ``repro replay``;
* :mod:`repro.service.sharded`  — :class:`ShardedLiveSession`: the same
  request surface backed by the multi-core shard coordinator — windowed
  write lane, snapshot-served read lane (``repro serve --shards W``);
* :mod:`repro.service.frontend` — :class:`ServiceFrontend`: the asyncio
  TCP server and its engine pump (``repro serve``), pluggable over either
  session backend;
* :mod:`repro.service.loadgen`  — the open-loop load generator and its
  per-operation latency report (``repro load``).

See ``docs/SERVICE.md`` for the protocol, backpressure semantics and the
record/replay workflow.
"""

from .frontend import DEFAULT_MAX_BATCH, ServiceFrontend
from .loadgen import LoadReport, OperationStats, run_load
from .protocol import (
    ERROR_CODES,
    OPERATIONS,
    ProtocolError,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
)
from .queue import DEFAULT_MAX_QUEUE, RequestQueue
from .session import (
    SERVICE_READ_RNG_OFFSET,
    SERVICE_RNG_OFFSET,
    LiveEngineSession,
    live_scenario,
)
from .sharded import ShardedLiveSession, sharded_live_scenario

__all__ = [
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_QUEUE",
    "ERROR_CODES",
    "OPERATIONS",
    "LiveEngineSession",
    "LoadReport",
    "OperationStats",
    "ProtocolError",
    "RequestQueue",
    "SERVICE_READ_RNG_OFFSET",
    "SERVICE_RNG_OFFSET",
    "ServiceFrontend",
    "ShardedLiveSession",
    "sharded_live_scenario",
    "encode_frame",
    "error_response",
    "live_scenario",
    "ok_response",
    "parse_request",
    "run_load",
]
