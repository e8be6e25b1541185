"""The network service layer end to end (ISSUE 7 tentpole).

Real sockets throughout: every test starts a :class:`PIPServer` on a
daemon thread via :func:`repro.server.testing.run_server` and talks to
it through :func:`repro.client.connect` (WebSocket) or stdlib
``urllib`` (the HTTP endpoints).  The headline contract — remote
results bit-identical to in-process results, including estimates and
confidence intervals, including inside explicit transactions — is
asserted against a second same-seed database executing the identical
statement sequence locally.
"""

import asyncio
import json
import math
import threading
import urllib.error
import urllib.request

import pytest

from repro.client import connect
from repro.core.database import PIPDatabase
from repro.sampling.options import SamplingOptions
from repro.server.admission import AdmissionController
from repro.server.testing import run_server
from repro.util.errors import (
    AdmissionError,
    AuthError,
    ParseError,
    ProtocolError,
    SchemaError,
    SessionError,
    TransactionError,
)


def _options():
    return SamplingOptions(n_samples=64)


def _db(seed=7):
    return PIPDatabase(seed=seed, options=_options())


def _http(server, path, data=None, token=None, method=None):
    """One stdlib HTTP request; returns (status, parsed_json_or_text)."""
    url = "http://127.0.0.1:%d%s" % (server.port, path)
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    if token is not None:
        request.add_header("Authorization", "Bearer %s" % token)
    try:
        with urllib.request.urlopen(request, timeout=10) as reply:
            status, body = reply.status, reply.read()
            content_type = reply.headers.get("Content-Type", "")
    except urllib.error.HTTPError as exc:
        status, body = exc.code, exc.read()
        content_type = exc.headers.get("Content-Type", "")
    if content_type.startswith("application/json"):
        return status, json.loads(body.decode("utf-8"))
    return status, body.decode("utf-8")


class TestHTTPEndpoints:
    def test_healthz(self):
        with run_server(_db()) as server:
            status, body = _http(server, "/healthz")
            assert status == 200
            assert body["status"] == "ok"
            assert body["dbs"] == ["default"]

    def test_metrics_exposes_server_series(self):
        with run_server(_db()) as server:
            with connect(server.url) as session:
                session.execute("CREATE TABLE t (v float)")
            status, text = _http(server, "/metrics")
            assert status == 200
            assert "pip_server_requests_total" in text
            assert "pip_server_connections" in text
            assert "pip_server_request_seconds" in text

    def test_metrics_per_database(self):
        with run_server({"alpha": _db()}) as server:
            status, text = _http(server, "/metrics/alpha")
            assert status == 200 and "pip_" in text
            status, body = _http(server, "/metrics/nope")
            assert status == 404
            assert body["error"]["code"] == "PIP-PROTOCOL"

    def test_dbs_listing_requires_auth(self):
        with run_server(_db(), tokens={"tok": "t1"}) as server:
            status, body = _http(server, "/v1/dbs")
            assert status == 401 and body["error"]["code"] == "PIP-AUTH"
            status, body = _http(server, "/v1/dbs", token="tok")
            assert status == 200 and body["dbs"] == ["default"]

    def test_unknown_route_is_404(self):
        with run_server(_db()) as server:
            status, body = _http(server, "/nope")
            assert status == 404 and body["error"]["code"] == "PIP-PROTOCOL"

    def test_one_shot_query(self):
        db = _db()
        db.sql("CREATE TABLE t (k str, v float)")
        db.sql("INSERT INTO t VALUES ('a', 1.5), ('b', 2.5)")
        with run_server(db, tokens={"tok": "t1"}) as server:
            payload = json.dumps({"sql": "SELECT k, v FROM t"}).encode()
            status, body = _http(server, "/v1/query", data=payload, token="tok")
            assert status == 200 and body["ok"]
            from repro.engine.results import ResultSet

            result = ResultSet.from_payload(body["result"])
            assert result.rows() == [("a", 1.5), ("b", 2.5)]

    def test_one_shot_query_error_maps_code(self):
        with run_server(_db(), tokens={"tok": "t1"}) as server:
            payload = json.dumps({"sql": "SELECT * FROM missing"}).encode()
            status, body = _http(server, "/v1/query", data=payload, token="tok")
            assert status == 400
            assert body["error"]["code"] == SchemaError.code


class TestAuth:
    def test_bad_token_raises_auth_error(self):
        with run_server(_db(), tokens={"tok": "t1"}) as server:
            with pytest.raises(AuthError):
                connect(server.url, token="wrong")
            with pytest.raises(AuthError):
                connect(server.url)  # missing credentials

    def test_good_token_connects(self):
        with run_server(_db(), tokens={"tok": "t1"}) as server:
            with connect(server.url, token="tok") as session:
                assert session.ping()


def _seeded_db(seed=7):
    """A database with deterministic *and* symbolic rows — built
    identically on the local and the served side, so same-seed runs of
    the same statements must agree bit for bit."""
    db = _db(seed=seed)
    db.sql("CREATE TABLE t (k str, v float)")
    db.sql("INSERT INTO t VALUES ('a', 1.0), ('a', 2.0), ('b', 3.5)")
    x = db.create_variable_expr("normal", (10.0, 2.0))
    y = db.create_variable_expr("exponential", (0.5,))
    db.insert("t", ("a", x))
    db.insert("t", ("b", x * y))  # nonlinear: forces sampled estimates
    return db


SCRIPT = (
    ("INSERT INTO t VALUES ('c', 4.0)", None),
    ("SELECT k, v FROM t WHERE v > :floor", {"floor": 1.5}),
    ("SELECT k, expected_sum(v) AS s FROM t GROUP BY k", None),
    ("SELECT k, expectation(v * v) AS e FROM t", None),
    ("SELECT k, conf() AS c FROM t WHERE v > 9.0", None),
)


def _run_script(session, begin_at=None, commit_at=None):
    """Run SCRIPT on any session-shaped object; returns per-statement
    (row reprs, estimate reprs, stats rows) snapshots.  Rows compare by
    ``repr`` because symbolic cells overload ``==`` symbolically."""
    captured = []
    for index, (sql, params) in enumerate(SCRIPT):
        if begin_at == index:
            session.begin()
        cursor = session.execute(sql, params)
        result = cursor.result
        captured.append(
            (
                repr(result.rows()) if result is not None else None,
                [repr(e) for e in result.estimates] if result is not None else [],
                result.stats.rows if result is not None and result.stats else None,
            )
        )
        if commit_at == index:
            session.commit()
    return captured


class TestBitIdenticalResults:
    def test_remote_matches_local(self):
        local = _seeded_db(seed=7).connect()
        expected = _run_script(local)
        with run_server(_seeded_db(seed=7)) as server:
            with connect(server.url) as session:
                actual = _run_script(session)
        assert actual == expected
        # The aggregate statements really did carry sampled estimates
        # with confidence intervals — the comparison above was not
        # trivially exact-only.
        assert any("ci=(" in r for r in expected[2][1] + expected[3][1])

    def test_remote_matches_local_inside_transaction(self):
        local = _seeded_db(seed=7).connect()
        expected = _run_script(local, begin_at=0, commit_at=4)
        with run_server(_seeded_db(seed=7)) as server:
            with connect(server.url) as session:
                actual = _run_script(session, begin_at=0, commit_at=4)
                assert not session.in_transaction
        assert actual == expected

    def test_description_and_rowcount_match(self):
        local = _db(seed=7).connect()
        local.execute("CREATE TABLE t (k str, v float)")
        local.execute("INSERT INTO t VALUES ('a', 1.0)")
        local.execute("SELECT k, v FROM t")
        with run_server(_db(seed=7)) as server:
            with connect(server.url) as session:
                session.execute("CREATE TABLE t (k str, v float)")
                cursor = session.execute("INSERT INTO t VALUES ('a', 1.0)")
                assert cursor.rowcount == 1
                session.execute("SELECT k, v FROM t")
                assert session.description == local.description
                assert session.rowcount == local.rowcount
                assert session.fetchone() == ("a", 1.0)
                assert session.fetchone() is None


class TestStreaming:
    def test_large_result_arrives_in_many_chunks(self):
        db = _db()
        db.create_table("big", [("k", "int"), ("v", "float")])
        n = 10_000
        db.insert_many("big", [(i, i / 7.0) for i in range(n)])
        with run_server(db) as server:  # chunk_rows default: 512
            with connect(server.url) as session:
                cursor = session.execute("SELECT k, v FROM big")
                rows = cursor.fetchall()
        assert len(rows) == n
        assert rows[0] == (0, 0.0) and rows[-1] == (n - 1, (n - 1) / 7.0)
        assert cursor.chunks_received == math.ceil(n / 512)
        assert cursor.chunks_received > 1

    def test_chunk_rows_is_configurable(self):
        db = _db()
        db.create_table("t", [("v", "int")])
        db.insert_many("t", [(i,) for i in range(10)])
        with run_server(db, chunk_rows=3) as server:
            with connect(server.url) as session:
                cursor = session.execute("SELECT v FROM t")
                assert cursor.chunks_received == 4
                assert len(cursor.fetchall()) == 10


class TestErrorMapping:
    def test_remote_errors_arrive_as_the_local_classes(self):
        with run_server(_db()) as server:
            with connect(server.url) as session:
                with pytest.raises(SchemaError):
                    session.execute("SELECT * FROM missing")
                with pytest.raises(ParseError):
                    session.execute("SELEKT broken")
                with pytest.raises(TransactionError):
                    session.commit()  # no open transaction
                # the session survives all of the above
                session.execute("CREATE TABLE t (v float)")
                assert session.ping()

    def test_unknown_op_is_protocol_error(self):
        with run_server(_db()) as server:
            with connect(server.url) as session:
                # "shard_jobs" took a pickled payload on worker servers of
                # an earlier build; no server accepts it now.
                for op in ("frobnicate", "shard_jobs"):
                    with pytest.raises(ProtocolError):
                        session._call(op, jobs="gASVBQAAAAAAAABdlC4=")

    def test_closed_session_raises_locally(self):
        with run_server(_db()) as server:
            session = connect(server.url)
            session.close()
            session.close()  # idempotent
            with pytest.raises(SessionError):
                session.execute("SELECT 1 AS one")


class TestTransactions:
    def test_close_rolls_back_open_transaction(self):
        db = _db()
        db.sql("CREATE TABLE t (v float)")
        with run_server(db) as server:
            session = connect(server.url)
            session.begin()
            session.execute("INSERT INTO t VALUES (1.0)")
            assert session.in_transaction
            session.close()
            with connect(server.url) as fresh:
                fresh.execute("SELECT v FROM t")
                assert fresh.fetchall() == []

    def test_transaction_context_manager(self):
        db = _db()
        db.sql("CREATE TABLE t (v float)")
        with run_server(db) as server:
            with connect(server.url) as session:
                with session.transaction():
                    session.execute("INSERT INTO t VALUES (1.0)")
                with pytest.raises(RuntimeError):
                    with session.transaction():
                        session.execute("INSERT INTO t VALUES (2.0)")
                        raise RuntimeError("abort")
                session.execute("SELECT v FROM t")
                assert session.fetchall() == [(1.0,)]


class TestMultiDatabase:
    def test_routing_by_name(self):
        db_a, db_b = _db(seed=1), _db(seed=2)
        db_a.sql("CREATE TABLE t (v float)")
        db_a.sql("INSERT INTO t VALUES (1.0)")
        db_b.sql("CREATE TABLE t (v float)")
        db_b.sql("INSERT INTO t VALUES (2.0)")
        with run_server({"a": db_a, "b": db_b}) as server:
            with connect(server.url, db="a") as session:
                assert session.sql("SELECT v FROM t").rows() == [(1.0,)]
            with connect(server.url, db="b") as session:
                assert session.sql("SELECT v FROM t").rows() == [(2.0,)]

    def test_ambiguous_and_unknown_names_rejected(self):
        with run_server({"a": _db(), "b": _db()}) as server:
            with pytest.raises(ProtocolError):
                connect(server.url)  # two databases, no db= given
            with pytest.raises(ProtocolError):
                connect(server.url, db="zzz")

    def test_single_database_needs_no_name(self):
        with run_server({"only": _db()}) as server:
            with connect(server.url) as session:
                assert session.ping()


class TestGracefulShutdown:
    def test_durable_db_recovers_committed_not_staged(self, tmp_path):
        root = tmp_path / "served"
        db = PIPDatabase.open(root, seed=5, options=_options())
        try:
            db.sql("CREATE TABLE t (v float)")
            with run_server(db) as server:
                with connect(server.url) as session:
                    with session.transaction():
                        session.execute("INSERT INTO t VALUES (1.0)")
                # now stage writes in an open transaction and leave it
                # open across the server's shutdown
                hanging = connect(server.url)
                hanging.begin()
                hanging.execute("INSERT INTO t VALUES (99.0)")
                assert hanging.in_transaction
            # run_server's exit performed the graceful shutdown: the open
            # transaction was rolled back and the database checkpointed.
        finally:
            if not db.is_closed:
                db.close()
        with PIPDatabase.open(root, options=_options()) as recovered:
            result = recovered.sql("SELECT v FROM t")
            assert result.rows() == [(1.0,)]

    def test_shutdown_under_inflight_load(self, tmp_path):
        root = tmp_path / "busy"
        db = PIPDatabase.open(root, seed=5, options=_options())
        db.sql("CREATE TABLE t (v float)")
        db.sql("INSERT INTO t VALUES (1.0)")
        errors, completed = [], [0]

        def hammer(url, stop):
            try:
                with connect(url, reconnect=False) as session:
                    while not stop.is_set():
                        session.execute("SELECT expected_sum(v) AS s FROM t")
                        completed[0] += 1
            except Exception as exc:  # shutdown kicks the connection out
                errors.append(exc)

        stop = threading.Event()
        try:
            with run_server(db) as server:
                threads = [
                    threading.Thread(target=hammer, args=(server.url, stop))
                    for _ in range(3)
                ]
                for thread in threads:
                    thread.start()
                deadline = 50
                while completed[0] < 5 and deadline > 0:
                    threading.Event().wait(0.05)
                    deadline -= 1
                assert completed[0] > 0
            stop.set()
            for thread in threads:
                thread.join(10)
        finally:
            stop.set()
            if not db.is_closed:
                db.close()
        # every kicked client saw a clean, classified failure
        assert all(
            isinstance(exc, (ConnectionError, OSError, SessionError))
            for exc in errors
        ), errors
        # and the directory recovers
        with PIPDatabase.open(root, options=_options()) as recovered:
            assert recovered.sql("SELECT v FROM t").rows() == [(1.0,)]

    def test_server_refuses_http_while_draining(self):
        db = _db()
        with run_server(db) as server:
            pass  # shut down on exit
        assert server.closing


class TestAdmissionController:
    """Direct asyncio unit tests — no sockets, no timing races."""

    def test_pass_through_when_free(self):
        async def main():
            admission = AdmissionController(max_concurrent=2, max_pending=0)
            async with admission.admit("t1"):
                assert admission.active == 1 and admission.pending == 0
            assert admission.active == 0

        asyncio.run(main())

    def test_max_pending_zero_means_never_queue(self):
        async def main():
            admission = AdmissionController(
                max_concurrent=1, max_pending=0, per_tenant=4
            )
            await admission.acquire("t1")  # takes the only slot
            with pytest.raises(AdmissionError):
                await admission.acquire("t2")  # would need to queue
            admission.release("t1")
            await admission.acquire("t2")  # slot free again: admitted
            admission.release("t2")

        asyncio.run(main())

    def test_queue_bound_rejects_excess_waiters(self):
        async def main():
            admission = AdmissionController(
                max_concurrent=1, max_pending=1, per_tenant=4,
                queue_timeout=5.0,
            )
            await admission.acquire("t1")
            waiter = asyncio.ensure_future(admission.acquire("t2"))
            await asyncio.sleep(0.01)  # let the waiter enter the queue
            assert admission.pending == 1
            with pytest.raises(AdmissionError):
                await admission.acquire("t3")  # queue already full
            admission.release("t1")
            await waiter  # the queued request got the freed slot
            admission.release("t2")

        asyncio.run(main())

    def test_per_tenant_cap_does_not_starve_others(self):
        async def main():
            admission = AdmissionController(
                max_concurrent=4, max_pending=4, per_tenant=1,
                queue_timeout=0.05,
            )
            await admission.acquire("greedy")
            # the capped tenant times out in its own queue...
            with pytest.raises(AdmissionError):
                await admission.acquire("greedy")
            # ...without ever blocking another tenant
            await admission.acquire("polite")
            admission.release("polite")
            admission.release("greedy")

        asyncio.run(main())

    def test_queue_timeout_on_global_cap(self):
        async def main():
            admission = AdmissionController(
                max_concurrent=1, max_pending=2, per_tenant=1,
                queue_timeout=0.05,
            )
            await admission.acquire("t1")
            with pytest.raises(AdmissionError):
                await admission.acquire("t2")  # waits, then times out
            # the timed-out waiter must not leak its tenant slot
            admission.release("t1")
            await admission.acquire("t2")
            admission.release("t2")

        asyncio.run(main())

    def test_server_rejects_when_saturated(self):
        # The wire-level counterpart of the unit tests above: a server
        # with zero queue and one slot per tenant rejects the second
        # concurrent statement of the same tenant with PIP-BUSY.
        db = _db()
        db.create_table("big", [("v", "int")])
        db.insert_many("big", [(i,) for i in range(50_000)])
        barrier = threading.Barrier(3)
        outcomes = []

        def query(url):
            with connect(url, token="tok", reconnect=False) as session:
                barrier.wait(timeout=10)
                try:
                    session.execute("SELECT v FROM big")
                    outcomes.append("ok")
                except AdmissionError:
                    outcomes.append("busy")

        with run_server(
            db, tokens={"tok": "t1"}, max_pending=0, per_tenant=1,
            max_concurrent=1,
        ) as server:
            threads = [
                threading.Thread(target=query, args=(server.url,))
                for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        assert len(outcomes) == 3
        assert "ok" in outcomes  # someone always gets through


class TestCLIHelpers:
    """The ``python -m repro.server`` argument plumbing."""

    def _args(self, argv):
        from repro.server.__main__ import build_parser

        return build_parser().parse_args(argv)

    def test_reopen_keeps_recorded_seed(self, tmp_path):
        # Regression: the CLI must not force seed=0 onto an existing
        # durable directory (PIPDatabase.open refuses a seed mismatch).
        from repro.server.__main__ import open_databases

        path = str(tmp_path / "plant")
        with PIPDatabase.open(path, seed=5) as db:
            db.sql("CREATE TABLE m (site str, mw float)")
        dbs = open_databases(self._args(["--db", f"plant={path}"]))
        try:
            assert list(dbs) == ["plant"]
            assert dbs["plant"].seed == 5
        finally:
            for db in dbs.values():
                db.close()

    def test_explicit_seed_still_checked(self, tmp_path):
        from repro.server.__main__ import open_databases
        from repro.util.errors import StorageError

        path = str(tmp_path / "plant")
        with PIPDatabase.open(path, seed=5):
            pass
        with pytest.raises(StorageError):
            open_databases(self._args(["--db", path, "--seed", "9"]))

    def test_memory_db_default_seed(self):
        from repro.server.__main__ import open_databases

        dbs = open_databases(self._args(["--memory", "scratch"]))
        try:
            assert dbs["scratch"].seed == 0
        finally:
            for db in dbs.values():
                db.close()

    def test_parse_tokens(self):
        from repro.server.__main__ import parse_tokens

        assert parse_tokens([]) is None
        assert parse_tokens(["alice:tokA", "bare"]) == {
            "tokA": "alice",
            "bare": "bare",
        }
