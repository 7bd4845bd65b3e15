"""Line-delimited JSON wire protocol of the streaming service.

One request per line, one response per line — no framing library, no heavy
web framework, trivially scriptable with ``nc`` or a few lines of Python.

Request::

    {"op": "ingest", "stream": "taxi", "records": [[[2, 5], 1.0, 3600.5], ...]}

Response::

    {"ok": true, ...op-specific fields...}
    {"ok": false, "error": "overloaded", "message": "..."}

Records travel as ``[indices, value, time]`` triples.  Error codes are the
machine-readable contract (``unknown_stream``, ``overloaded``,
``stream_cap``, ``bad_request``, ``conflict``, ``internal``, plus the
client-side ``connection``); messages are for humans and may change.

Idempotent ingest: an ``ingest`` / ``advance`` request may carry a
per-stream monotonically increasing integer ``seq``.  The server remembers
the applied high-water mark (persisted in checkpoints) plus a recent-seq
dedup window, and answers an already-seen ``seq`` with
``{"ok": true, "duplicate": true}`` without re-applying — so a client
retrying after an ambiguous "sent but no ack" failure is exactly-once.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.exceptions import ReproError, ServiceError
from repro.stream.events import StreamRecord

#: Codes a response's ``error`` field may carry.  ``connection`` is never
#: sent by the server: the client raises it locally for transport failures
#: (reset, timeout, truncated response) where no server response exists, so
#: retry policy can branch on transport-vs-server faults.
ERROR_CODES = (
    "unknown_stream",
    "overloaded",
    "stream_cap",
    "bad_request",
    "conflict",
    "internal",
    "connection",
)

#: Requests larger than this are refused outright; a malicious or buggy
#: client must not be able to balloon the server's memory with one line.
MAX_REQUEST_BYTES = 8 * 1024 * 1024


def _sanitize(value: Any) -> Any:
    """Replace non-finite floats, which JSON cannot carry portably."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    return value


def encode_message(payload: dict[str, Any]) -> bytes:
    """Serialise one message to a newline-terminated JSON line."""
    return (json.dumps(_sanitize(payload), separators=(",", ":")) + "\n").encode()


def decode_request(line: bytes) -> dict[str, Any]:
    """Parse one request line; raises ``bad_request`` on malformed input."""
    if len(line) > MAX_REQUEST_BYTES:
        raise ServiceError(
            "bad_request",
            f"request of {len(line)} bytes exceeds the "
            f"{MAX_REQUEST_BYTES}-byte limit",
        )
    try:
        payload = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(
            "bad_request", f"request is not valid JSON: {error}"
        ) from error
    if not isinstance(payload, dict) or not isinstance(payload.get("op"), str):
        raise ServiceError(
            "bad_request", 'a request must be a JSON object with an "op" string'
        )
    return payload


def ok_response(**fields: Any) -> dict[str, Any]:
    """Build a success response."""
    return {"ok": True, **fields}


def error_response(code: str, message: str) -> dict[str, Any]:
    """Build a failure response."""
    return {"ok": False, "error": code, "message": message}


def parse_records(payload: Any) -> list[StreamRecord]:
    """Parse the wire form of a record chunk into :class:`StreamRecord` s.

    Fields reach :class:`StreamRecord` as sent, so its type rule refuses a
    float index, a bool or a string (``bad_request`` naming the record).
    """
    if not isinstance(payload, list):
        raise ServiceError(
            "bad_request",
            'records must be a list of "[indices, value, time]" triples',
        )
    records: list[StreamRecord] = []
    for position, item in enumerate(payload):
        try:
            indices, value, time = item
            records.append(StreamRecord(indices=indices, value=value, time=time))
        except (TypeError, ValueError, ReproError) as error:
            raise ServiceError(
                "bad_request", f"record {position} is malformed: {error}"
            ) from error
    return records


def records_to_wire(records: list[StreamRecord]) -> list[list[Any]]:
    """Inverse of :func:`parse_records` (used by the client)."""
    return [
        [list(record.indices), record.value, record.time] for record in records
    ]
