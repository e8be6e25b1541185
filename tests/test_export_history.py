"""Telemetry export and the query-profile history (ISSUE 9).

The outbound pipeline (:mod:`repro.obs.export`) and the persistent
``pip_query_history`` store (:mod:`repro.obs.history`): NDJSON export
matching the checked-in schema, drop-and-count backpressure, the SQL /
HTTP / gauge read paths over the history, its durable segments, and —
the contract everything above rests on — bit-identity between a fully
instrumented run and a disabled one.
"""

import json
import os
import random
import urllib.error
import urllib.request

import pytest

from repro.client import connect
from repro.core.database import PIPDatabase
from repro.obs import (
    QueryHistory,
    Telemetry,
    TelemetryExporter,
    validate_record,
)
from repro.obs.export import otlp_envelope
from repro.sampling.options import SamplingOptions
from repro.server.testing import run_server
from repro.util.errors import SchemaError

SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "schemas", "trace_export.schema.json"
)


def _schema():
    with open(SCHEMA_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _workload(db):
    db.sql("CREATE TABLE t (k int, v float)")
    db.insert_many("t", [(i, i / 2.0) for i in range(8)])
    x = db.create_variable_expr("normal", (3.0, 1.0))
    db.create_table("risky", [("v", "any")])
    db.insert("risky", (x,))
    out = []
    out.append(db.sql("SELECT v FROM t WHERE k > 4").rows())
    out.append(db.sql("SELECT expected_sum(v) FROM risky").rows())
    out.append(db.sql("SELECT k, v FROM t WHERE v >= 2.0").rows())
    return out


class TestFileExport:
    def test_exported_ndjson_matches_checked_in_schema(self, tmp_path):
        path = str(tmp_path / "spans.ndjson")
        db = PIPDatabase(
            seed=5, options=SamplingOptions(n_samples=64),
            telemetry=Telemetry(export="file:%s" % path),
        )
        _workload(db)
        db.close()  # shutdown flushes spans + a final metrics snapshot

        schema = _schema()
        records = [json.loads(line)
                   for line in open(path, encoding="utf-8")
                   if line.strip()]
        assert records, "export produced no records"
        for record in records:
            validate_record(record, schema)
        kinds = {record["kind"] for record in records}
        assert kinds == {"span", "metrics"}
        # One root span per SQL statement, carrying the statement tag.
        spans = [r for r in records if r["kind"] == "span"
                 and r["name"] == "query"]
        assert len(spans) == 4  # CREATE TABLE + the three SELECTs
        statements = {span["tags"]["statement"] for span in spans}
        assert any("expected_sum" in s for s in statements)

    def test_validator_rejects_malformed_records(self):
        schema = _schema()
        with pytest.raises(ValueError):
            validate_record({"kind": "span", "ts": 0.0}, schema)
        with pytest.raises(ValueError):
            validate_record(
                {"kind": "span", "ts": 0.0, "name": "q",
                 "trace_id": "nothex", "span_id": "0" * 16,
                 "wall": 0.0, "cpu": 0.0},
                schema,
            )

    def test_env_knob_builds_a_file_exporter(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env.ndjson")
        monkeypatch.setenv("PIP_TRACE_EXPORT", "file:%s" % path)
        telemetry = Telemetry.from_env()
        assert telemetry.tracer.enabled  # export implies tracing
        db = PIPDatabase(seed=5, options=SamplingOptions(n_samples=64),
                         telemetry=telemetry)
        db.sql("CREATE TABLE t (v float)")
        db.close()
        lines = [l for l in open(path, encoding="utf-8") if l.strip()]
        assert lines


class TestBackpressure:
    def test_full_queue_drops_and_counts_without_blocking(self):
        emitted = []

        class Sink:
            def emit(self, records):
                emitted.extend(records)

        exporter = TelemetryExporter(Sink(), max_queue=4, autostart=False)
        for n in range(10):
            exporter.enqueue({"kind": "metrics", "ts": float(n),
                              "metrics": {}})
        assert exporter.pending == 4
        assert exporter.dropped == 6
        exporter.shutdown()
        assert len(emitted) == 4
        # After shutdown further records are dropped, not queued.
        exporter.enqueue({"kind": "metrics", "ts": 99.0, "metrics": {}})
        assert exporter.dropped == 7

    def test_sink_failures_drop_the_batch(self):
        class BrokenSink:
            def emit(self, records):
                raise OSError("disk full")

        exporter = TelemetryExporter(BrokenSink(), autostart=False)
        exporter.enqueue({"kind": "metrics", "ts": 0.0, "metrics": {}})
        exporter.shutdown()
        assert exporter.pending == 0
        assert exporter.dropped >= 1

    def test_otlp_envelope_shapes_spans_and_metrics(self):
        envelope = otlp_envelope([
            {"kind": "span", "ts": 1.0, "name": "query",
             "trace_id": "a" * 32, "span_id": "b" * 16, "parent_id": None,
             "wall": 0.5, "cpu": 0.25, "tags": {"db": "x"},
             "children": [{"name": "plan", "trace_id": "a" * 32,
                           "span_id": "c" * 16, "parent_id": "b" * 16,
                           "wall": 0.1, "cpu": 0.1}]},
            {"kind": "metrics", "ts": 1.0,
             "metrics": {"pip_queries_total": 3}},
        ])
        spans = envelope["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert [s["name"] for s in spans] == ["query", "plan"]
        assert spans[1]["parentSpanId"] == "b" * 16
        metrics = envelope["resourceMetrics"][0]["scopeMetrics"][0]["metrics"]
        assert metrics[0]["name"] == "pip_queries_total"


class TestQueryHistory:
    def test_history_readable_through_sql(self):
        db = PIPDatabase(seed=5, options=SamplingOptions(n_samples=64))
        _workload(db)
        rows = db.sql(
            "SELECT statement, rows FROM pip_query_history"
        ).rows()
        statements = [r[0] for r in rows]
        # Relational statements only, collapsed, oldest first.
        assert any("SELECT v FROM t WHERE k > 4" in s for s in statements)
        assert any("expected_sum" in s for s in statements)
        # Reading the history is itself a statement — but a virtual-scan
        # one, which must not record (else the history feeds on itself).
        before = len(db.history)
        db.sql("SELECT statement FROM pip_query_history").rows()
        assert len(db.history) == before
        db.close()

    def test_mutating_a_virtual_table_is_refused(self):
        db = PIPDatabase(seed=5)
        with pytest.raises(SchemaError):
            db.create_table("pip_query_history", [("v", "float")])
        with pytest.raises(SchemaError):
            db.insert("pip_query_history", (1.0,))
        with pytest.raises(SchemaError):
            db.drop_table("pip_query_history")
        db.close()

    def test_ring_buffer_bound_drops_oldest(self):
        history = QueryHistory(max_records=3)
        for n in range(5):
            history.record({"statement": "q%d" % n})
        assert [r["statement"] for r in history.records()] == \
            ["q2", "q3", "q4"]
        assert history.dropped == 2
        assert history.records(limit=1) == [{"statement": "q4"}]

    def test_disabled_history_records_nothing(self, monkeypatch):
        monkeypatch.setenv("PIP_QUERY_HISTORY", "0")
        db = PIPDatabase(seed=5)
        db.sql("CREATE TABLE t (v float)")
        db.sql("SELECT v FROM t")
        assert len(db.history) == 0
        assert db.sql("SELECT statement FROM pip_query_history").rows() == []
        db.close()

    def test_durable_history_survives_reopen(self, tmp_path):
        root = str(tmp_path / "db")
        db = PIPDatabase.open(root, seed=5,
                              options=SamplingOptions(n_samples=64))
        _workload(db)
        recorded = [r["statement"] for r in db.history.records()]
        db.close()  # flushes the open segment

        segments = os.listdir(os.path.join(root, "obs"))
        assert any(name.startswith("history-") for name in segments)

        db2 = PIPDatabase.open(root, options=SamplingOptions(n_samples=64))
        reloaded = [r["statement"] for r in db2.history.records()]
        assert reloaded == recorded
        db2.close()

    def test_segment_with_a_column_this_build_lacks_loads(self, tmp_path):
        """A segment as the previous commit wrote it (it had a ``shards``
        column) reloads and reads through SQL; the extra key is ignored."""
        obs = tmp_path / "db" / "obs"
        obs.mkdir(parents=True)
        (obs / "history-000001.json").write_text(
            '[{"ts":1790959871.390475,"statement":"SELECT v FROM t",'
            '"plan":"feef9dd8","trace_id":"","elapsed":8.11829995654989e-05,'
            '"rows":1,"bank_hits":0,"bank_misses":0,"samples_drawn":0,'
            '"samples_reused":0,"operators":"","shards":""}]')
        with PIPDatabase.open(str(tmp_path / "db"), seed=5) as db:
            assert db.sql(
                "SELECT statement, plan, rows FROM pip_query_history"
            ).rows() == [("SELECT v FROM t", "feef9dd8", 1)]

    def test_segment_pruning_keeps_the_store_bounded(self, tmp_path):
        history = QueryHistory(max_records=64, segment_records=2,
                               max_segments=3)
        history.attach_dir(str(tmp_path / "obs"))
        for n in range(20):
            history.record({"statement": "q%d" % n})
        history.flush()
        assert history.segment_count() <= 3
        assert history.bytes_on_disk() > 0


class TestServerSurfaces:
    def test_history_endpoint_and_gauges(self):
        db = PIPDatabase(seed=5, options=SamplingOptions(n_samples=64))
        _workload(db)
        with run_server({"main": db}, tokens={"tok": "t1"}) as server:
            def get(path, token="tok"):
                request = urllib.request.Request(
                    "http://127.0.0.1:%d%s" % (server.port, path))
                if token:
                    request.add_header("Authorization", "Bearer %s" % token)
                try:
                    with urllib.request.urlopen(request, timeout=10) as r:
                        return r.status, r.read().decode("utf-8")
                except urllib.error.HTTPError as exc:
                    return exc.code, exc.read().decode("utf-8")

            status, body = get("/v1/history?db=main&limit=2")
            assert status == 200
            payload = json.loads(body)
            assert payload["db"] == "main"
            assert len(payload["records"]) == 2
            assert all("statement" in r for r in payload["records"])

            status, _ = get("/v1/history?db=nope")
            assert status == 404
            status, _ = get("/v1/history?db=main", token=None)
            assert status == 401

            # /metrics/{db}: history gauges and the columnar pruning
            # counters are part of the exposition (zero until exercised).
            status, text = get("/metrics/main")
            assert status == 200
            assert "pip_history_records %d" % len(db.history) in text
            assert "pip_history_segments" in text
            assert "pip_history_bytes_on_disk" in text
            assert "pip_history_dropped" in text
            assert "pip_columnar_chunks_scanned_total" in text
            assert "pip_columnar_chunks_pruned_zonemap_total" in text
        db.close()

    def test_columnar_counters_move_on_metrics_page(self):
        db = PIPDatabase(seed=5, options=SamplingOptions(n_samples=64))
        db.sql("CREATE TABLE t (k int, v float)")
        db.insert_many("t", [(i, float(i)) for i in range(4096)])
        db.sql("SELECT v FROM t WHERE k = 17").rows()  # warm + scan
        db.sql("SELECT v FROM t WHERE k = 17").rows()
        with run_server({"main": db}) as server:
            with urllib.request.urlopen(
                "http://127.0.0.1:%d/metrics/main" % server.port,
                timeout=10,
            ) as reply:
                text = reply.read().decode("utf-8")
        scanned = [line for line in text.splitlines()
                   if line.startswith("pip_columnar_chunks_scanned_total")]
        assert scanned and float(scanned[0].split()[-1]) > 0
        db.close()


class TestBitIdentity:
    def test_instrumented_run_is_bit_identical_to_disabled(self, tmp_path):
        def run(telemetry, history_on):
            if not history_on:
                os.environ["PIP_QUERY_HISTORY"] = "0"
            try:
                db = PIPDatabase(
                    seed=17, options=SamplingOptions(n_samples=128),
                    telemetry=telemetry,
                )
                rows = _workload(db)
                bank = db.sample_bank.stats()
                db.close()
                return rows, bank
            finally:
                os.environ.pop("PIP_QUERY_HISTORY", None)

        base_rows, base_bank = run(Telemetry.disabled(), False)
        path = "file:%s" % (tmp_path / "spans.ndjson")
        full_rows, full_bank = run(
            Telemetry(export=path, trace_rng=random.Random(3)), True)

        assert full_rows == base_rows  # estimates, CIs and all
        for key in ("hits", "misses", "samples_drawn", "samples_served"):
            assert full_bank[key] == base_bank[key], key
