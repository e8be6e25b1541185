"""The remote session: DB-API over the wire.

:func:`repro.client.connect` returns a :class:`RemoteSession` whose
surface mirrors the in-process :class:`~repro.session.Session` —
``execute``/``executemany``, ``fetchone``/``fetchmany``/``fetchall``,
``description``/``rowcount``, ``cursor()``, ``sql()``, and explicit
transactions (``begin()``/``commit()``/``rollback()`` or
``with session.transaction():``) — so code written against a local
database runs unchanged against a server.  Errors come back as the same
exception classes (:class:`TransactionError` on a commit conflict,
:class:`SchemaError` on an unknown table, …) via their stable wire codes.

Results stream in: large ``SELECT``s arrive as chunked ``rows`` frames
whose columns the session appends to one another, and ``cursor.result``
is a full :class:`~repro.engine.results.ResultSet` — rows, estimate
metadata, confidence intervals and :class:`QueryStats` bit-identical to
what the same statement returns in-process.  The cells stay in their
columns until somebody fetches: ``fetchall()`` zips them into tuples.

Reconnection: with a :class:`~repro.client.reconnect.ReconnectPolicy`
(on by default), a dropped connection is re-dialed with exponential
backoff + jitter and the failed request retried — but **only in
autocommit**: a connection lost inside an explicit transaction loses the
server-side session and its staged writes (the server rolls them back),
so the client raises :class:`TransactionError` instead of silently
starting over.
"""

from repro.client.reconnect import ReconnectPolicy
from repro.client.wsclient import BlockingWebSocket
from repro.engine.results import ResultSet
from repro.obs.trace import IdAllocator, format_traceparent
from repro.server import protocol, wsproto
from repro.session.session import Cursor
from repro.util.errors import (
    ProtocolError,
    SessionError,
    TransactionError,
    WireFormatError,
)


class RemoteCursor(Cursor):
    """A DB-API-shaped cursor over one remote session.

    The local :class:`repro.session.session.Cursor` with its statements
    sent over the wire: fetch position is cursor-local, everything else
    lives on the session/server.  ``chunks_received`` counts the streamed
    ``rows`` frames behind the last result — >1 means the server never
    sent the result whole.
    """

    chunks_received = 0

    def execute(self, text, params=None):
        """Run one SQL statement on the server; returns the cursor."""
        self._check_open()
        done, cells, conditions, chunks = self.session._call(
            "execute", sql=text, params=params
        )
        self.chunks_received = chunks
        if done.get("kind") != "resultset":
            self._reset(done.get("rowcount", -1))
            return self
        payload = dict(done["result"])
        if chunks:
            payload["cells"] = cells
        if conditions:
            payload["conditions"] = conditions
        self._reset(result=ResultSet.from_payload(payload))
        stats = self.result.stats
        if stats is not None:
            # Correlate the client-side result with the distributed
            # trace: the server's trace id (ours, when it adopted our
            # traceparent) and its coarse timing breakdown.
            if stats.trace_id is None:
                stats.trace_id = done.get("trace_id")
            stats.server_timing = done.get("server_timing")
        return self

    def executemany(self, text, param_seq):
        """Run one statement once per parameter mapping (server-prepared)."""
        self._check_open()
        done, _cells, _conditions, _chunks = self.session._call(
            "executemany", sql=text, paramseq=list(param_seq)
        )
        self._reset(done.get("rowcount", -1))
        self.chunks_received = 0
        return self


class RemoteTransaction:
    """Context-manager handle matching the local ``Transaction`` shape:
    commit on clean exit, roll back when the body raises."""

    def __init__(self, session):
        self.session = session

    @property
    def is_active(self):
        return self.session.in_transaction

    def commit(self):
        self.session.commit()

    def rollback(self):
        self.session.rollback()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        if not self.is_active:
            return False  # committed/rolled back explicitly inside the body
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False


class RemoteSession:
    """One client's handle on a served database — see the module doc.

    Create with :func:`repro.client.connect`; usable as a context
    manager (closing rolls back any open transaction server-side).
    """

    def __init__(self, host, port, *, token=None, db=None, timeout=30.0,
                 reconnect=True, trace_rng=None, telemetry=None):
        self.host = host
        self.port = port
        self.token = token
        self.db_name = db
        self.timeout = timeout
        if reconnect is True:
            reconnect = ReconnectPolicy()
        elif reconnect is False:
            reconnect = None
        self.reconnect_policy = reconnect
        self.reconnects = 0  # successful re-dials over this session's life
        # Distributed tracing: every request carries a W3C traceparent.
        # ``telemetry`` (a client-side Telemetry with tracing on) wraps
        # each statement in a ``client.wire`` span whose ids seed the
        # header; without it, ids are minted directly — ``trace_rng``
        # (a seeded random.Random) makes them deterministic for tests.
        self._trace_ids = IdAllocator(trace_rng)
        self.telemetry = telemetry
        self._ws = None
        self._closed = False
        self._in_transaction = False
        self._next_id = 1
        self._hello = None
        self._dial()
        self._cursor = RemoteCursor(self)

    # -- connection management ----------------------------------------------------

    def _resource(self):
        resource = "/v1/session"
        if self.db_name:
            resource += "?db=%s" % (self.db_name,)
        return resource

    def _dial(self):
        headers = []
        if self.token is not None:
            headers.append(("Authorization", "Bearer %s" % (self.token,)))
        ws = BlockingWebSocket(
            self.host, self.port, self._resource(),
            headers=headers, timeout=self.timeout,
        )
        opcode, payload = ws.recv_message()
        if opcode != wsproto.OP_TEXT:
            ws.close()
            raise ProtocolError("expected a hello frame, got opcode %d" % opcode)
        hello = protocol.loads(payload)
        if hello.get("type") != "hello":
            ws.close()
            raise ProtocolError("expected a hello frame, got %r" % (hello,))
        if hello.get("version") != protocol.PROTOCOL_VERSION:
            ws.close()
            raise ProtocolError(
                "server speaks protocol version %r, this client speaks %d"
                % (hello.get("version"), protocol.PROTOCOL_VERSION))
        self._hello = hello
        self._ws = ws

    def _redial(self, cause):
        """Backoff-and-retry dial loop after a dropped connection."""
        policy = self.reconnect_policy
        if policy is None:
            raise cause
        last = cause
        for attempt in range(policy.max_retries):
            policy.wait(attempt)
            try:
                self._dial()
                self.reconnects += 1
                return
            except (OSError, ConnectionError) as exc:
                last = exc
        raise ConnectionError(
            "could not re-establish the connection after %d attempts"
            % (policy.max_retries,)) from last

    def _check_open(self):
        if self._closed:
            raise SessionError(
                "session is closed; open a new one with repro.client.connect()"
            )

    @property
    def closed(self):
        return self._closed

    def close(self):
        """Close the session (idempotent).  An open transaction is rolled
        back server-side, exactly like closing a local session."""
        if self._closed:
            return
        self._closed = True
        self._in_transaction = False
        ws, self._ws = self._ws, None
        if ws is None or ws.closed:
            return
        try:
            ws.send_text(protocol.dumps({"id": 0, "op": "close"}))
        except OSError:
            pass
        ws.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    # -- the request/response engine ----------------------------------------------

    def _call(self, op, **fields):
        """One request → ``(done_message, cells, conditions, chunk_count)``.

        Streamed ``rows`` frames are folded column by column into one
        list per column (chunk-local condition indices re-based to global
        row indices).  A wire error
        re-raises as the matching :class:`PIPError` subclass.  A dropped
        connection triggers the reconnect path (autocommit only).

        Every request carries a ``traceparent`` minted client-side; one
        logical statement keeps one trace id across reconnect retries
        (the retried request is tagged ``retry``), so a distributed trace
        never splits mid-statement.
        """
        self._check_open()
        tracer = self.telemetry.tracer if self.telemetry is not None else None
        if tracer is not None and tracer.enabled:
            # The client-side wire span is the trace root: the server's
            # ``server.request`` span becomes its child.
            with tracer.span(
                "client.wire", op=op, db=self.db_name or "-"
            ) as wire_span:
                return self._request_loop(
                    op, fields, wire_span.trace_id, wire_span.span_id, wire_span
                )
        return self._request_loop(
            op, fields, self._trace_ids.trace_id(), self._trace_ids.span_id(),
            None,
        )

    def _request_loop(self, op, fields, trace_id, span_id, wire_span):
        attempts = 0
        while True:
            request_id = self._next_id
            self._next_id += 1
            message = {
                "id": request_id,
                "op": op,
                "traceparent": format_traceparent(trace_id, span_id),
            }
            if attempts:
                message["retry"] = attempts
                if wire_span is not None:
                    wire_span.tags["retry"] = attempts
            message.update(fields)
            try:
                text = protocol.dumps(message)
            except (TypeError, ValueError) as exc:
                raise WireFormatError(
                    "request is not JSON-serializable (parameters must be "
                    "plain values): %s" % (exc,)) from exc
            try:
                if self._ws is None:
                    raise ConnectionError("connection is down")
                return self._roundtrip(request_id, text)
            except (OSError, ConnectionError) as exc:
                if self._ws is not None:
                    self._ws.close()
                    self._ws = None
                if self._in_transaction:
                    # The server rolled our transaction back when the
                    # connection died; resuming silently would commit
                    # half a unit of work.
                    self._in_transaction = False
                    raise TransactionError(
                        "connection lost inside an open transaction; the "
                        "server rolled it back — reconnect and retry the "
                        "whole transaction") from exc
                self._redial(exc)  # raises when reconnection is off/exhausted
                attempts += 1

    def _roundtrip(self, request_id, text):
        ws = self._ws
        ws.send_text(text)
        cells, conditions, chunks = [], {}, 0
        while True:
            _opcode, payload = ws.recv_message()
            frame = protocol.loads(payload)
            if frame.get("id") != request_id:
                continue  # stale frames from an abandoned request
            kind = frame.get("type")
            if kind == "rows":
                base = protocol.extend_columns(cells, frame.get("cells"))
                for offset, condition in (frame.get("conditions") or {}).items():
                    conditions[str(base + int(offset))] = condition
                chunks += 1
                continue
            if kind == "done":
                self._in_transaction = bool(frame.get("in_transaction"))
                if not frame.get("ok"):
                    protocol.raise_wire_error(frame.get("error", {}))
                return frame, cells, conditions, chunks
            raise ProtocolError("unexpected frame type %r" % (kind,))

    # -- transactions ---------------------------------------------------------------

    @property
    def in_transaction(self):
        return self._in_transaction

    def begin(self):
        """Open a transaction on the server; returns a context-manager
        handle (nested transactions raise :class:`TransactionError`)."""
        self._call("begin")
        return RemoteTransaction(self)

    def transaction(self):
        """``with session.transaction():`` — begin now, commit on clean
        exit, roll back when the body raises."""
        return self.begin()

    def commit(self):
        self._call("commit")

    def rollback(self):
        self._call("rollback")

    # -- the cursor surface ---------------------------------------------------------

    def cursor(self):
        """A fresh :class:`RemoteCursor` (independent fetch position)."""
        self._check_open()
        return RemoteCursor(self)

    def execute(self, text, params=None):
        """Run one SQL statement on the default cursor; returns it."""
        self._check_open()
        return self._cursor.execute(text, params)

    def executemany(self, text, param_seq):
        self._check_open()
        return self._cursor.executemany(text, param_seq)

    def fetchone(self):
        return self._cursor.fetchone()

    def fetchmany(self, size=None):
        return self._cursor.fetchmany(size)

    def fetchall(self):
        return self._cursor.fetchall()

    @property
    def description(self):
        return self._cursor.description

    @property
    def rowcount(self):
        return self._cursor.rowcount

    @property
    def result(self):
        """The last statement's :class:`ResultSet` (or ``None``)."""
        return self._cursor.result

    # -- conveniences ---------------------------------------------------------------

    def sql(self, text, params=None):
        """Like :meth:`Session.sql`: run one statement, return its
        :class:`ResultSet` (``None`` for non-queries)."""
        cursor = RemoteCursor(self)
        cursor.execute(text, params)
        return cursor.result

    def ping(self):
        """Round-trip liveness probe; returns True when the server answered."""
        done, _cells, _conditions, _chunks = self._call("ping")
        return bool(done.get("ok"))

    def __repr__(self):
        state = "closed" if self._closed else (
            "in transaction" if self._in_transaction else "autocommit")
        return "<RemoteSession %s:%d db=%r (%s)>" % (
            self.host, self.port, self.db_name, state)
