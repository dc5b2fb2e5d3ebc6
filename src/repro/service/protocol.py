"""Wire protocol of the live service: newline-delimited JSON frames.

One request per line, one response per line, UTF-8, ``\\n``-terminated —
greppable with the same tools as the JSONL traces and speakable from netcat.
Requests are JSON objects::

    {"op": "sample", "id": 7}
    {"op": "join", "id": "c0-3", "role": "byzantine", "contact_cluster": 2}
    {"op": "leave", "id": 8, "node_id": 113}
    {"op": "broadcast", "id": 9, "payload": "hello"}
    {"op": "status", "id": 10}

``op`` selects the operation; ``id`` is an opaque client token echoed back
verbatim so clients may pipeline (responses are matched by ``id``, not by
order — the server answers as the engine gets to each request).  Responses
always carry ``ok``::

    {"id": 7, "ok": true, "op": "sample", "result": {...}, "latency_ms": 1.9}
    {"id": 7, "ok": false, "op": "sample", "error": "overloaded",
     "message": "...", "latency_ms": 0.0}

Error codes are a closed set (:data:`ERROR_CODES`): ``bad_request`` (frame
didn't parse or validate — the connection survives), ``unknown_op``,
``overloaded`` (the bounded request queue was full; the fast-fail
backpressure signal), ``failed`` (a valid request the engine rejected, e.g.
leaving a node that is not active) and ``shutting_down``.

Validation is strict and happens *before* a request reaches the engine:
``apply_event`` advances protocol time before executing the operation, so a
request that failed halfway through would desynchronise the recorded trace
from the engine state.  Everything that can be rejected is rejected here or
in the session's pre-flight checks; by the time an event touches the engine
it cannot fail.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

#: Operations a client may request.
OPERATIONS = frozenset(
    {"join", "leave", "sample", "broadcast", "status", "ping", "shutdown"}
)

#: Operations the front-end queues on the read lane.  They never change
#: engine state and draw only from the session's private read stream, so
#: they may be served beside an in-flight write window on either backend.
#: ``join``/``leave`` form the ordered write lane; ``shutdown`` is answered
#: by the front-end itself.
READ_OPS = frozenset({"sample", "broadcast", "status", "ping"})

#: The closed set of response error codes.
ERROR_BAD_REQUEST = "bad_request"
ERROR_UNKNOWN_OP = "unknown_op"
ERROR_OVERLOADED = "overloaded"
ERROR_FAILED = "failed"
ERROR_SHUTTING_DOWN = "shutting_down"
ERROR_CODES = frozenset(
    {
        ERROR_BAD_REQUEST,
        ERROR_UNKNOWN_OP,
        ERROR_OVERLOADED,
        ERROR_FAILED,
        ERROR_SHUTTING_DOWN,
    }
)

#: Accepted values of a join request's ``role`` field.
JOIN_ROLES = frozenset({"honest", "byzantine"})

#: Request fields every operation accepts.
_COMMON_FIELDS = {"op", "id"}

#: Extra fields each operation accepts beyond the common ones.
_OP_FIELDS: Dict[str, frozenset] = {
    "join": frozenset({"role", "node_id", "contact_cluster"}),
    "leave": frozenset({"node_id"}),
    "sample": frozenset(),
    "broadcast": frozenset({"payload"}),
    "status": frozenset(),
    "ping": frozenset(),
    "shutdown": frozenset(),
}


class ProtocolError(Exception):
    """A request that must be answered with an error, not executed.

    ``code`` is one of :data:`ERROR_CODES`; ``request_id`` and ``op`` carry
    whatever could be salvaged from the offending frame so the error
    response still matches the client's pipeline slot.
    """

    def __init__(
        self,
        code: str,
        message: str,
        request_id: Any = None,
        op: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.request_id = request_id
        self.op = op


def parse_request(line: str) -> Dict[str, Any]:
    """Parse and validate one request line into its frame dict.

    Raises :class:`ProtocolError` (``bad_request`` or ``unknown_op``) on
    anything malformed; the caller answers with the error and keeps the
    connection open — one bad frame must not kill a pipelined client.
    """
    try:
        frame = json.loads(line)
    except ValueError as error:
        raise ProtocolError(ERROR_BAD_REQUEST, f"request is not valid JSON: {error}")
    if not isinstance(frame, dict):
        raise ProtocolError(ERROR_BAD_REQUEST, "request must be a JSON object")
    request_id = frame.get("id")
    if request_id is not None and not isinstance(request_id, (str, int, float, bool)):
        raise ProtocolError(ERROR_BAD_REQUEST, "request id must be a JSON scalar")
    op = frame.get("op")
    if not isinstance(op, str):
        raise ProtocolError(
            ERROR_BAD_REQUEST, "request needs a string 'op' field", request_id=request_id
        )
    if op not in OPERATIONS:
        raise ProtocolError(
            ERROR_UNKNOWN_OP,
            f"unknown operation {op!r}; expected one of {sorted(OPERATIONS)}",
            request_id=request_id,
            op=op,
        )
    unknown = set(frame) - _COMMON_FIELDS - _OP_FIELDS[op]
    if unknown:
        raise ProtocolError(
            ERROR_BAD_REQUEST,
            f"unknown fields for {op!r}: {sorted(unknown)}",
            request_id=request_id,
            op=op,
        )
    _validate_fields(frame, op, request_id)
    return frame


def _validate_fields(frame: Dict[str, Any], op: str, request_id: Any) -> None:
    """Per-operation field validation (types only; liveness checks are the
    session's pre-flight job — they need engine state)."""
    if op == "join":
        role = frame.get("role", "honest")
        if role not in JOIN_ROLES:
            raise ProtocolError(
                ERROR_BAD_REQUEST,
                f"join role must be one of {sorted(JOIN_ROLES)}, not {role!r}",
                request_id=request_id,
                op=op,
            )
        for field in ("node_id", "contact_cluster"):
            value = frame.get(field)
            if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
                raise ProtocolError(
                    ERROR_BAD_REQUEST,
                    f"join {field} must be an integer",
                    request_id=request_id,
                    op=op,
                )
    elif op == "leave":
        value = frame.get("node_id")
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            raise ProtocolError(
                ERROR_BAD_REQUEST,
                "leave node_id must be an integer",
                request_id=request_id,
                op=op,
            )


def ok_response(
    request_id: Any, op: str, result: Dict[str, Any], latency_ms: float = 0.0
) -> Dict[str, Any]:
    """A success response frame."""
    return {
        "id": request_id,
        "ok": True,
        "op": op,
        "result": result,
        "latency_ms": latency_ms,
    }


def error_response(
    request_id: Any,
    op: Optional[str],
    code: str,
    message: str,
    latency_ms: float = 0.0,
) -> Dict[str, Any]:
    """An error response frame (``code`` must be in :data:`ERROR_CODES`)."""
    assert code in ERROR_CODES, code
    return {
        "id": request_id,
        "ok": False,
        "op": op,
        "error": code,
        "message": message,
        "latency_ms": latency_ms,
    }


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """Serialise one frame to its wire form (UTF-8 JSON + newline)."""
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")
