"""The PIP network server: databases behind an asyncio front end.

:class:`PIPServer` hosts one or more :class:`~repro.core.database.PIPDatabase`
instances (multi-tenant: many databases, one process) and exposes them
two ways:

* **HTTP/JSON** — ``GET /healthz``, ``GET /metrics`` (Prometheus text,
  server-level; ``GET /metrics/{db}`` for a hosted database),
  ``GET /v1/dbs``, and ``POST /v1/query`` for one-shot statements.
* **WebSocket** — ``GET /v1/session?db=NAME`` upgrades to a long-lived
  connection that maps onto one snapshot-isolated
  :class:`~repro.session.Session`: ``execute``/``executemany``,
  ``BEGIN``/``COMMIT``/``ROLLBACK``, and chunked streaming of large
  results (the server never materialises a result as one message).

Every statement passes through token auth and the
:class:`~repro.server.admission.AdmissionController` (bounded queue,
per-tenant concurrency caps), then runs on a thread pool — sessions are
single-threaded by contract, and each connection's loop processes
requests sequentially, so a session only ever executes one statement at
a time.  Server telemetry (requests, latency histogram, open-connection
gauge, ``server.request`` spans) lives on the server's own
:class:`~repro.obs.Telemetry`, separate from any database's.

Graceful shutdown (:meth:`PIPServer.shutdown`): stop accepting, let
in-flight statements drain (bounded), roll back every connection's open
transaction, checkpoint durable databases, close.  See ``docs/server.md``.
"""

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

from repro.core.database import PIPDatabase
from repro.obs import Telemetry
from repro.obs import trace as obs_trace
from repro.server import http, protocol, wsproto
from repro.server.admission import AdmissionController
from repro.util.errors import (
    AdmissionError,
    AuthError,
    PIPError,
    ProtocolError,
    ShutdownError,
    error_code,
)


class Connection:
    """One live WebSocket session connection."""

    __slots__ = ("session", "tenant", "db_name", "reader", "writer",
                 "idle", "session_id", "closed")

    def __init__(self, session, tenant, db_name, reader, writer, session_id):
        self.session = session
        self.tenant = tenant
        self.db_name = db_name
        self.reader = reader
        self.writer = writer
        self.session_id = session_id
        self.idle = asyncio.Event()
        self.idle.set()
        self.closed = False


class PIPServer:
    """Serve PIP databases over HTTP/JSON + WebSocket (stdlib-only).

    Parameters
    ----------
    dbs:
        One :class:`PIPDatabase`, or a ``{name: PIPDatabase}`` mapping.
        A single database is hosted as ``"default"``.
    tokens:
        Auth configuration: ``{token: tenant_name}`` (several tokens may
        share a tenant and its concurrency cap), an iterable of tokens
        (each its own tenant), or ``None`` to disable auth — loopback
        development only; every client then shares one tenant.
    host, port:
        Listen address; ``port=0`` picks a free port (see :attr:`port`).
    max_concurrent, max_pending, per_tenant, queue_timeout:
        Admission control — see :class:`AdmissionController`.  The
        executor thread pool is sized to ``max_concurrent``.
    chunk_rows:
        Rows per streamed ``rows`` frame.
    drain_seconds:
        Default bound on waiting for in-flight statements at shutdown.
    own_databases:
        When True the server closes its databases on shutdown (the
        ``python -m repro.server`` entry point opens and owns its own).
    """

    def __init__(self, dbs, tokens=None, host="127.0.0.1", port=8470, *,
                 telemetry=None, max_concurrent=8, max_pending=64,
                 per_tenant=4, queue_timeout=30.0, chunk_rows=512,
                 drain_seconds=5.0, own_databases=False):
        if isinstance(dbs, PIPDatabase):
            dbs = {"default": dbs}
        if not dbs:
            raise ValueError("PIPServer needs at least one database")
        self.dbs = dict(dbs)
        if tokens is None:
            self.tokens = None
        elif isinstance(tokens, dict):
            self.tokens = dict(tokens)
        else:
            self.tokens = {token: token for token in tokens}
        self.host = host
        self.port = port
        self.chunk_rows = chunk_rows
        self.drain_seconds = drain_seconds
        self.own_databases = own_databases
        self._owns_telemetry = telemetry is None
        self.telemetry = telemetry if telemetry is not None else Telemetry.from_env()
        self.admission = AdmissionController(
            max_concurrent=max_concurrent,
            max_pending=max_pending,
            per_tenant=per_tenant,
            queue_timeout=queue_timeout,
        )
        self.telemetry.bind_server(self)
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrent, thread_name_prefix="pip-server"
        )
        self._server = None
        self._connections = set()
        self._tasks = set()
        self._closing = False
        self._next_session_id = 1

    # -- lifecycle ----------------------------------------------------------------

    @property
    def connections_open(self):
        return len(self._connections)

    @property
    def url(self):
        """``ws://host:port`` — accepted by :func:`repro.client.connect`."""
        return "ws://%s:%d" % (self.host, self.port)

    @property
    def closing(self):
        return self._closing

    async def start(self):
        """Bind and start accepting; resolves :attr:`port` when 0."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self):
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self, drain_seconds=None):
        """Graceful stop: drain, roll back, checkpoint, close.

        1. Refuse new connections and new statements (``PIP-SHUTDOWN``).
        2. Wait up to ``drain_seconds`` for in-flight statements.
        3. Close every session — an open transaction **rolls back**
           (staged writes discarded, never half-committed).
        4. Checkpoint durable databases, so the directory recovers
           instantly and the WAL tail is empty.
        5. Close transports, the thread pool and (when the server owns
           its databases) the databases.
        """
        if drain_seconds is None:
            drain_seconds = self.drain_seconds
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + drain_seconds
        for conn in list(self._connections):
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            try:
                await asyncio.wait_for(conn.idle.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                break
        for conn in list(self._connections):
            await self._close_connection(conn, code=1001, reason="server shutdown")
        for task in list(self._tasks):
            task.cancel()
        for db in self.dbs.values():
            if db.is_durable and not db.is_closed:
                await loop.run_in_executor(self._executor, db.checkpoint)
            if self.own_databases and not db.is_closed:
                await loop.run_in_executor(self._executor, db.close)
        self._executor.shutdown(wait=True, cancel_futures=True)
        if self._owns_telemetry:
            # Flush the exporter the server built for itself (from env):
            # queued server.request spans must not die with the process.
            self.telemetry.shutdown()

    async def _close_connection(self, conn, code=1000, reason=""):
        if conn.closed:
            return
        conn.closed = True
        self._connections.discard(conn)
        loop = asyncio.get_running_loop()
        try:
            # close() rolls back any open transaction — run it on the
            # pool, like every other session call.
            await loop.run_in_executor(self._executor, conn.session.close)
        except Exception:
            pass
        try:
            conn.writer.write(
                wsproto.encode_frame(
                    wsproto.OP_CLOSE, wsproto.close_payload(code, reason)
                )
            )
            await conn.writer.drain()
        except Exception:
            pass
        try:
            conn.writer.close()
        except Exception:
            pass

    # -- auth ---------------------------------------------------------------------

    def _authenticate(self, request):
        """The tenant name for a request; raises :class:`AuthError`."""
        if self.tokens is None:
            return "anonymous"
        token = None
        header = request.header("authorization")
        if header and header.lower().startswith("bearer "):
            token = header[7:].strip()
        if token is None:
            token = request.query.get("token")
        if token is None:
            raise AuthError("missing credentials: pass Authorization: Bearer "
                            "<token> (or ?token= on the WebSocket URL)")
        tenant = self.tokens.get(token)
        if tenant is None:
            raise AuthError("unknown auth token")
        return tenant

    # -- distributed tracing ------------------------------------------------------

    def _trace_context(self, traceparent):
        """``(trace_id, parent_span_id)`` for one request.

        Adopts the client's W3C ``traceparent`` when present and valid;
        otherwise mints a fresh trace id so server-local spans (and
        ``GET /v1/traces/{id}``) still correlate.  Malformed headers are
        ignored, never fatal.
        """
        parsed = obs_trace.parse_traceparent(traceparent)
        if parsed is not None:
            return parsed
        return self.telemetry.tracer.ids.trace_id(), None

    @contextmanager
    def _request_span(self, trace_id, parent_id, tenant, retry, **tags):
        """Adopted trace context + a ``server.request`` span around one
        statement (the span is a no-op when server tracing is off, but
        the context still propagates the trace id into the engine)."""
        with obs_trace.activate(trace_id, parent_id, tenant=tenant):
            with self.telemetry.tracer.span("server.request", **tags) as span:
                if retry and isinstance(span, obs_trace.Span):
                    span.tags["retry"] = retry
                yield

    def _resolve_db(self, name):
        if name is None:
            if len(self.dbs) == 1:
                return next(iter(self.dbs.items()))
            raise ProtocolError(
                "this server hosts %d databases; pass db=<name> (have: %s)"
                % (len(self.dbs), ", ".join(sorted(self.dbs)))
            )
        db = self.dbs.get(name)
        if db is None:
            raise ProtocolError(
                "no database %r on this server (have: %s)"
                % (name, ", ".join(sorted(self.dbs)))
            )
        return name, db

    # -- connection handling ------------------------------------------------------

    async def _handle_client(self, reader, writer):
        task = asyncio.current_task()
        self._tasks.add(task)
        try:
            await self._route(reader, writer)
        except (asyncio.CancelledError, asyncio.IncompleteReadError,
                ConnectionError):
            pass
        except Exception:
            try:
                writer.write(http.json_response(
                    500, {"error": {"code": "PIP-INTERNAL",
                                    "message": "internal server error"}}
                ))
                await writer.drain()
            except Exception:
                pass
        finally:
            self._tasks.discard(task)
            try:
                writer.close()
            except Exception:
                pass

    async def _route(self, reader, writer):
        request = await http.read_request(reader)
        if request is None:
            return
        if self._closing:
            writer.write(http.json_response(
                503, {"error": {"code": ShutdownError.code,
                                "message": "server is shutting down"}}
            ))
            await writer.drain()
            return
        path, method = request.path, request.method
        if path == "/healthz" and method == "GET":
            writer.write(http.json_response(200, {
                "status": "ok",
                "dbs": sorted(self.dbs),
                "connections": self.connections_open,
            }))
        elif path == "/metrics" and method == "GET":
            writer.write(http.response(
                200, self.telemetry.registry.prometheus(),
                content_type="text/plain; version=0.0.4",
            ))
        elif path.startswith("/metrics/") and method == "GET":
            name = path[len("/metrics/"):]
            db = self.dbs.get(name)
            if db is None:
                writer.write(http.json_response(404, {"error": {
                    "code": "PIP-PROTOCOL", "message": "no database %r" % name}}))
            else:
                writer.write(http.response(
                    200, db.metrics(text=True),
                    content_type="text/plain; version=0.0.4",
                ))
        elif path == "/v1/session":
            await self._upgrade_session(request, reader, writer)
            return
        elif path == "/v1/dbs" and method == "GET":
            try:
                self._authenticate(request)
            except AuthError as exc:
                self.telemetry.on_server_rejected()
                writer.write(http.json_response(401, {"error": protocol.error_entry(exc)}))
            else:
                writer.write(http.json_response(200, {"dbs": sorted(self.dbs)}))
        elif path == "/v1/query" and method == "POST":
            await self._http_query(request, writer)
        elif path.startswith("/v1/traces/") and method == "GET":
            self._http_traces(request, writer, path[len("/v1/traces/"):])
        elif path == "/v1/history" and method == "GET":
            self._http_history(request, writer)
        else:
            writer.write(http.json_response(404, {"error": {
                "code": "PIP-PROTOCOL",
                "message": "no route %s %s" % (method, path)}}))
        await writer.drain()

    async def _http_query(self, request, writer):
        """One-shot statement: a throwaway session, the full envelope back."""
        start = time.perf_counter()
        try:
            tenant = self._authenticate(request)
        except AuthError as exc:
            self.telemetry.on_server_rejected()
            writer.write(http.json_response(401, {"error": protocol.error_entry(exc)}))
            return
        try:
            body = request.json()
            sql = body.get("sql")
            if not isinstance(sql, str):
                raise ProtocolError('POST /v1/query body needs {"sql": "..."}')
            db_name, db = self._resolve_db(body.get("db"))
            params = body.get("params")
            trace_id, parent_id = self._trace_context(
                request.header("traceparent") or body.get("traceparent"))

            def work():
                started = time.perf_counter()
                with self._request_span(
                    trace_id, parent_id, tenant, None,
                    op="http.query", db=db_name,
                ):
                    session = db.connect()
                    try:
                        cursor = session.execute(sql, params)
                        result = cursor.result
                        payload = (
                            result.to_payload() if result is not None else None
                        )
                        rowcount = cursor.rowcount
                    finally:
                        session.close()
                return payload, rowcount, time.perf_counter() - started

            async with self.admission.admit(tenant):
                loop = asyncio.get_running_loop()
                payload, rowcount, elapsed = await loop.run_in_executor(
                    self._executor, work
                )
            response = {"ok": True, "rowcount": rowcount,
                        "kind": "resultset" if payload is not None else "count",
                        "trace_id": trace_id,
                        "server_timing": {"total": elapsed}}
            if payload is not None:
                response["result"] = payload
            writer.write(http.json_response(200, response))
            self.telemetry.on_server_request(time.perf_counter() - start)
        except AdmissionError as exc:
            self.telemetry.on_server_rejected()
            writer.write(http.json_response(429, {"error": protocol.error_entry(exc)}))
        except Exception as exc:
            status = 400 if isinstance(exc, PIPError) else 500
            writer.write(http.json_response(status, {"error": protocol.error_entry(exc)}))
            self.telemetry.on_server_request(time.perf_counter() - start, ok=False)

    def _http_traces(self, request, writer, trace_id):
        """``GET /v1/traces/{trace_id}`` — every retained span tree of a
        distributed trace, across the server tracer and each hosted
        database's tracer (a trace shows up as several local roots —
        ``client.wire`` stays client-side, ``server.request`` and
        ``query`` land here — linked by ``parent_id``)."""
        try:
            self._authenticate(request)
        except AuthError as exc:
            self.telemetry.on_server_rejected()
            writer.write(http.json_response(
                401, {"error": protocol.error_entry(exc)}))
            return
        tracers = {id(self.telemetry.tracer): self.telemetry.tracer}
        for db in self.dbs.values():
            tracer = db.telemetry.tracer
            tracers.setdefault(id(tracer), tracer)
        spans = []
        for tracer in tracers.values():
            spans.extend(
                span.to_dict() for span in tracer.find_trace(trace_id))
        if not spans:
            writer.write(http.json_response(404, {"error": {
                "code": "PIP-PROTOCOL",
                "message": "no retained spans for trace %r" % (trace_id,)}}))
            return
        writer.write(http.json_response(
            200, {"trace_id": trace_id, "spans": spans}))

    def _http_history(self, request, writer):
        """``GET /v1/history?db=NAME[&limit=N]`` — the database's
        query-profile history, newest-bounded, as plain JSON records."""
        try:
            self._authenticate(request)
        except AuthError as exc:
            self.telemetry.on_server_rejected()
            writer.write(http.json_response(
                401, {"error": protocol.error_entry(exc)}))
            return
        try:
            db_name, db = self._resolve_db(request.query.get("db"))
        except ProtocolError as exc:
            writer.write(http.json_response(
                404, {"error": protocol.error_entry(exc)}))
            return
        limit = request.query.get("limit")
        try:
            limit = int(limit) if limit is not None else None
        except ValueError:
            limit = None
        writer.write(http.json_response(200, {
            "db": db_name,
            "records": db.history.records(limit=limit),
        }))

    # -- the WebSocket session path ----------------------------------------------

    async def _upgrade_session(self, request, reader, writer):
        if request.header("upgrade", "").lower() != "websocket":
            writer.write(http.json_response(400, {"error": {
                "code": "PIP-PROTOCOL",
                "message": "/v1/session requires a WebSocket upgrade"}}))
            await writer.drain()
            return
        key = request.header("sec-websocket-key")
        if not key:
            writer.write(http.json_response(400, {"error": {
                "code": "PIP-PROTOCOL", "message": "missing Sec-WebSocket-Key"}}))
            await writer.drain()
            return
        try:
            tenant = self._authenticate(request)
            db_name, db = self._resolve_db(request.query.get("db"))
        except (AuthError, ProtocolError) as exc:
            self.telemetry.on_server_rejected()
            status = 401 if isinstance(exc, AuthError) else 404
            writer.write(http.json_response(status, {"error": protocol.error_entry(exc)}))
            await writer.drain()
            return
        session = db.connect()
        session_id = self._next_session_id
        self._next_session_id += 1
        writer.write(http.response(
            101, b"", content_type="application/octet-stream",
            headers=(
                ("Upgrade", "websocket"),
                ("Connection", "Upgrade"),
                ("Sec-WebSocket-Accept", wsproto.accept_key(key)),
            ),
        ))
        await writer.drain()
        conn = Connection(session, tenant, db_name, reader, writer, session_id)
        self._connections.add(conn)
        try:
            await self._send(conn, protocol.hello(db_name, session_id))
            await self._session_loop(conn)
        finally:
            await self._close_connection(conn)

    async def _send(self, conn, message):
        conn.writer.write(
            wsproto.encode_frame(wsproto.OP_TEXT, protocol.dumps(message))
        )
        await conn.writer.drain()

    async def _session_loop(self, conn):
        assembler = wsproto.MessageAssembler()
        while not conn.closed:
            try:
                frame = await wsproto.read_frame(conn.reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            fed = assembler.feed(*frame)
            if fed is None:
                continue
            opcode, payload = fed
            if opcode == wsproto.OP_CLOSE:
                return
            if opcode == wsproto.OP_PING:
                conn.writer.write(wsproto.encode_frame(wsproto.OP_PONG, payload))
                await conn.writer.drain()
                continue
            if opcode == wsproto.OP_PONG:
                continue
            conn.idle.clear()
            try:
                await self._dispatch(conn, payload)
            finally:
                conn.idle.set()

    async def _dispatch(self, conn, payload):
        request_id = None
        start = time.perf_counter()
        try:
            try:
                message = protocol.loads(payload)
                if not isinstance(message, dict):
                    raise ValueError("message must be a JSON object")
            except ValueError as exc:
                raise ProtocolError("unparseable message: %s" % exc) from exc
            request_id = message.get("id")
            op = message.get("op")
            if op not in protocol.OPS:
                raise ProtocolError("unknown op %r (have: %s)"
                                    % (op, ", ".join(protocol.OPS)))
            if op == "ping":
                await self._send(conn, protocol.done_ok(
                    request_id, "pong", -1,
                    in_transaction=conn.session.in_transaction))
                return
            if op == "close":
                await self._send(conn, protocol.done_ok(
                    request_id, "closed", -1))
                await self._close_connection(conn)
                return
            if self._closing:
                raise ShutdownError(
                    "server is draining; no further statements accepted"
                )
            async with self.admission.admit(conn.tenant):
                await self._run_statement_op(conn, request_id, op, message)
            self.telemetry.on_server_request(time.perf_counter() - start)
        except (ConnectionError, asyncio.IncompleteReadError):
            raise
        except AdmissionError as exc:
            self.telemetry.on_server_rejected()
            await self._send_error(conn, request_id, exc)
        except Exception as exc:
            self.telemetry.on_server_request(
                time.perf_counter() - start, ok=False
            )
            await self._send_error(conn, request_id, exc)

    async def _send_error(self, conn, request_id, exc):
        if not isinstance(exc, PIPError):
            # Unexpected server-side failure: degrade to a generic entry
            # (the code tells the client it was not a library error).
            entry = {"code": error_code(exc),
                     "message": "%s: %s" % (type(exc).__name__, exc)}
            message = {"id": request_id, "type": "done", "ok": False,
                       "error": entry,
                       "in_transaction": conn.session.in_transaction}
            await self._send(conn, message)
            return
        await self._send(conn, protocol.done_error(
            request_id, exc, in_transaction=conn.session.in_transaction))

    async def _run_statement_op(self, conn, request_id, op, message):
        loop = asyncio.get_running_loop()
        session = conn.session
        # Adopt the client's trace context (or mint one) for the whole
        # statement; the ids ride back on the done frame.
        trace_id, parent_id = self._trace_context(message.get("traceparent"))
        retry = message.get("retry")

        def scope():
            return self._request_span(
                trace_id, parent_id, conn.tenant, retry,
                op=op, db=conn.db_name, session=conn.session_id,
            )

        if op == "execute":
            sql = message.get("sql")
            if not isinstance(sql, str):
                raise ProtocolError('"execute" needs a "sql" string')
            params = message.get("params")

            def work():
                started = time.perf_counter()
                with scope():
                    cursor = session.execute(sql, params)
                    result, rowcount = cursor.result, cursor.rowcount
                return result, rowcount, time.perf_counter() - started

            result, rowcount, elapsed = await loop.run_in_executor(
                self._executor, work)
            timing = {"total": elapsed}
            if result is not None:
                for cells, conditions in result.iter_row_chunks(self.chunk_rows):
                    # One chunk per frame, drained per frame: the full
                    # result never exists as a single wire message, and a
                    # slow client backpressures the stream.
                    await self._send(conn, protocol.rows_frame(
                        request_id, cells, conditions))
                await self._send(conn, protocol.done_ok(
                    request_id, "resultset", rowcount,
                    result=result.to_payload(include_rows=False),
                    in_transaction=session.in_transaction,
                    trace_id=trace_id, server_timing=timing))
            else:
                await self._send(conn, protocol.done_ok(
                    request_id, "count", rowcount,
                    in_transaction=session.in_transaction,
                    trace_id=trace_id, server_timing=timing))
            return

        if op == "executemany":
            sql = message.get("sql")
            paramseq = message.get("paramseq")
            if not isinstance(sql, str) or not isinstance(paramseq, list):
                raise ProtocolError(
                    '"executemany" needs "sql" and a "paramseq" list')

            def work():
                started = time.perf_counter()
                with scope():
                    rowcount = session.executemany(sql, paramseq).rowcount
                return rowcount, time.perf_counter() - started

            rowcount, elapsed = await loop.run_in_executor(self._executor, work)
            await self._send(conn, protocol.done_ok(
                request_id, "count", rowcount,
                in_transaction=session.in_transaction,
                trace_id=trace_id, server_timing={"total": elapsed}))
            return

        # begin / commit / rollback
        def work():
            started = time.perf_counter()
            with scope():
                getattr(session, op)()
            return time.perf_counter() - started

        elapsed = await loop.run_in_executor(self._executor, work)
        await self._send(conn, protocol.done_ok(
            request_id, "txn", -1, in_transaction=session.in_transaction,
            trace_id=trace_id, server_timing={"total": elapsed}))
