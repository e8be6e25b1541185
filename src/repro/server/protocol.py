"""The session wire protocol: JSON messages over one WebSocket.

One WebSocket connection maps to one server-side
:class:`~repro.session.Session`.  Both directions carry JSON text
frames.  The full grammar is documented in ``docs/server.md``; this
module pins the constants and the request/response envelope so server
and client cannot drift.

Client → server (every request carries a client-chosen ``id``)::

    {"id": 1, "op": "execute",     "sql": "...", "params": {...}}
    {"id": 2, "op": "executemany", "sql": "...", "paramseq": [{...}, ...]}
    {"id": 3, "op": "begin" | "commit" | "rollback" | "ping" | "close"}

Requests may additionally carry ``"traceparent"`` (a W3C
``00-<trace_id>-<span_id>-01`` header the server adopts as the request's
distributed-trace context) and ``"retry": n`` (set by the client when a
reconnect policy re-sends a statement, surfaced as a ``retry`` tag on
the server's request span).  Both are optional and ignorable.

Server → client::

    {"type": "hello", "version": 2, "db": "...", "session": n}
    {"id": 1, "type": "rows", "cells": [[...], ...], "conditions": {...}|null}
    {"id": 1, "type": "done", "ok": true,  "kind": "resultset" | "count"
                | "none", "rowcount": n, "result": {envelope w/o rows},
                "in_transaction": bool, "trace_id": "...",
                "server_timing": {"total": seconds}}
    {"id": 1, "type": "done", "ok": false, "error": {"code": "PIP-...",
                "message": "..."}, "in_transaction": bool}

``trace_id`` and ``server_timing`` appear on successful ``done`` frames
when the server resolved a trace context for the request.

``rows`` frames stream *before* the ``done`` frame, so a large result
never exists on the server as one message; ``cells`` is one array per
output column holding the chunk's cells (:mod:`repro.engine.wire`).
Errors always arrive as a ``done`` frame — after an error there are no
further frames for that id.
"""

import json

from repro.util.errors import ProtocolError, error_code, error_from_code

#: Session protocol version, sent in the hello frame.  Matches the
#: :data:`repro.engine.wire.WIRE_VERSION` envelope major on purpose:
#: results travel inside protocol messages (2: column-major ``cells``).
PROTOCOL_VERSION = 2

#: Operations a client may request.
OPS = ("execute", "executemany", "begin", "commit", "rollback", "ping", "close")


def dumps(message):
    """Compact JSON for the wire (no spaces, stable float repr)."""
    return json.dumps(message, separators=(",", ":"))


def loads(text):
    return json.loads(text)


def error_entry(exc):
    """The ``error`` object for a ``done`` frame."""
    return {"code": error_code(exc), "message": str(exc)}


def raise_wire_error(entry):
    """Client side: re-raise a ``done`` frame's error as the exception
    class a local database would have raised."""
    raise error_from_code(entry.get("code", "PIP-ERROR"),
                          entry.get("message", "remote error"))


def hello(db_name, session_id):
    return {
        "type": "hello",
        "version": PROTOCOL_VERSION,
        "db": db_name,
        "session": session_id,
    }


def done_ok(request_id, kind, rowcount, result=None, in_transaction=False,
            trace_id=None, server_timing=None):
    message = {
        "id": request_id,
        "type": "done",
        "ok": True,
        "kind": kind,
        "rowcount": rowcount,
        "in_transaction": in_transaction,
    }
    if result is not None:
        message["result"] = result
    if trace_id is not None:
        message["trace_id"] = trace_id
    if server_timing is not None:
        message["server_timing"] = server_timing
    return message


def done_error(request_id, exc, in_transaction=False):
    return {
        "id": request_id,
        "type": "done",
        "ok": False,
        "error": error_entry(exc),
        "in_transaction": in_transaction,
    }


def rows_frame(request_id, cells, conditions=None):
    return {
        "id": request_id,
        "type": "rows",
        "cells": cells,
        "conditions": conditions,
    }


def extend_columns(columns, cells):
    """Client side: append one ``rows`` frame's ``cells`` to the columns
    received so far (in place); returns how many rows those held."""
    if (
        not isinstance(cells, list)
        or not all(isinstance(column, list) for column in cells)
        or len(cells) != len(columns or cells)
    ):
        raise ProtocolError("a rows frame needs one array per result column")
    base = len(columns[0]) if columns else 0
    for column, more in zip(columns, cells):
        column.extend(more)
    if not columns:
        columns.extend(cells)
    return base
