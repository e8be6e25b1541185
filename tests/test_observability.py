"""Observability layer: tracing, metrics, EXPLAIN ANALYZE, slow-query log.

The layer's one hard contract is that telemetry *observes* and never
*steers*: with tracing and metrics fully enabled, every query result,
sample-bank counter and WAL byte must be identical to a fully disabled
run — serial and parallel alike.  These tests pin that contract on a
sampling workload (the fig7 rejection shape), then cover the instruments
themselves: histogram bucket semantics, Prometheus text exposition,
span trees, per-operator EXPLAIN ANALYZE annotations, per-statement
:class:`~repro.engine.results.QueryStats`, the bank's ``hit_rate``, and
the threshold-gated slow-query log.
"""

import logging
import re

import pytest

from repro.core.database import PIPDatabase
from repro.obs import (
    NULL_SPAN,
    MetricsRegistry,
    SlowQueryLog,
    Telemetry,
    Tracer,
    collapse_statement,
    plan_digest,
)
from repro.sampling.options import SamplingOptions
from repro.symbolic.conditions import conjunction_of
from repro.symbolic.expression import var
from repro.util.errors import PlanError

from tests.differential.generator import row_path


# ---------------------------------------------------------------------------
# Workload: the fig7 rejection shape through the SQL front end
# ---------------------------------------------------------------------------


def _build_db(telemetry, workers=0, seed=23, n_samples=200):
    db = PIPDatabase(
        seed=seed,
        options=SamplingOptions(n_samples=n_samples, parallel_workers=workers),
        telemetry=telemetry,
    )
    db.create_table("supply", [("suppkey", "int"), ("shortfall", "any")])
    for suppkey in range(12):
        demand = db.create_variable("poisson", (2.0 + suppkey % 4,))
        supply = db.create_variable("exponential", (0.4,))
        condition = conjunction_of(var(demand) > var(supply))
        db.insert("supply", (suppkey, var(demand) - var(supply)), condition)
    return db


QUERY = (
    "SELECT suppkey, expected_sum(shortfall) AS short FROM supply "
    "GROUP BY suppkey ORDER BY suppkey"
)


def _run_workload(telemetry, workers=0):
    db = _build_db(telemetry, workers=workers)
    result = db.sql(QUERY)
    rows = result.rows()
    stats = db.sample_bank.stats()
    db.close()
    return rows, stats, result


# ---------------------------------------------------------------------------
# The bit-identity contract
# ---------------------------------------------------------------------------


def test_enabled_vs_disabled_results_bit_identical_serial():
    rows_off, bank_off, _ = _run_workload(Telemetry.disabled())
    rows_on, bank_on, _ = _run_workload(
        Telemetry(tracing=True, metrics=True, slow_query_seconds=0.0)
    )
    assert rows_on == rows_off
    assert bank_on == bank_off


def test_enabled_vs_disabled_results_bit_identical_parallel():
    rows_serial, bank_serial, _ = _run_workload(Telemetry.disabled(), workers=0)
    for telemetry in (Telemetry.disabled(), Telemetry(tracing=True)):
        rows, bank, _ = _run_workload(telemetry, workers=4)
        assert rows == rows_serial
        for name in ("hits", "misses", "topups", "samples_served",
                     "samples_drawn", "entries", "hit_rate"):
            assert bank[name] == bank_serial[name], name


def test_enabled_vs_disabled_wal_bytes_identical(tmp_path):
    def run(root, telemetry):
        with PIPDatabase.open(str(root), seed=5, telemetry=telemetry) as db:
            db.sql("CREATE TABLE t (k str, v float)")
            db.sql("INSERT INTO t VALUES ('a', 1.0), ('b', 2.0)")
            db.sql("UPDATE t SET v = v * 2 WHERE k = 'b'")
            db.sql("DELETE FROM t WHERE k = 'a'")
        return (root / "wal.log").read_bytes()

    wal_off = run(tmp_path / "off", Telemetry.disabled())
    wal_on = run(tmp_path / "on", Telemetry(tracing=True, metrics=True,
                                            slow_query_seconds=0.0))
    assert wal_on == wal_off


def test_wal_byte_metric_matches_file_growth(tmp_path):
    telemetry = Telemetry()
    from repro.storage.wal import _HEADER

    with PIPDatabase.open(str(tmp_path), seed=5, telemetry=telemetry) as db:
        db.sql("CREATE TABLE t (k str, v float)")
        db.sql("INSERT INTO t VALUES ('a', 1.0)")
        metrics = db.metrics()
    size = (tmp_path / "wal.log").stat().st_size
    assert metrics["pip_wal_bytes_total"] == size - _HEADER.size
    assert metrics["pip_wal_appends_total"] == 2
    assert metrics["pip_wal_fsyncs_total"] >= 2


# ---------------------------------------------------------------------------
# Metrics: instruments and exposition
# ---------------------------------------------------------------------------


def test_counter_monotonic():
    registry = MetricsRegistry()
    counter = registry.counter("pip_things_total", "Things.")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_set_and_callback():
    registry = MetricsRegistry()
    gauge = registry.gauge("pip_level", "Level.")
    gauge.set(3.5)
    gauge.inc()
    assert gauge.value == 4.5
    reading = registry.gauge("pip_live", "Live.", fn=lambda: 7)
    assert reading.value == 7
    with pytest.raises(ValueError):
        reading.set(1)


def test_histogram_bucket_placement():
    registry = MetricsRegistry()
    hist = registry.histogram("pip_lat", "Latency.", buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.01, 0.05, 0.5, 5.0):
        hist.observe(value)
    # Cumulative counts: <=0.01 catches 0.005 and the boundary 0.01.
    assert hist.cumulative() == [
        (0.01, 2), (0.1, 3), (1.0, 4), (float("inf"), 5),
    ]
    assert hist.count == 5
    assert hist.sum == pytest.approx(5.565)
    snap = hist.snapshot()
    assert snap["buckets"]["+Inf"] == 5
    assert snap["buckets"][0.1] == 3


def test_registry_idempotent_and_kind_checked():
    registry = MetricsRegistry()
    first = registry.counter("pip_x_total", "X.")
    again = registry.counter("pip_x_total", "X.")
    assert again is first
    with pytest.raises(ValueError):
        registry.gauge("pip_x_total")
    with pytest.raises(ValueError):
        registry.counter("bad name")


def test_prometheus_exposition_format():
    registry = MetricsRegistry()
    registry.counter("pip_q_total", "Queries.").inc(2)
    registry.histogram("pip_lat_seconds", "Latency.", buckets=(0.1, 1.0)).observe(0.25)
    text = registry.prometheus()
    assert text.splitlines() == [
        "# HELP pip_lat_seconds Latency.",
        "# TYPE pip_lat_seconds histogram",
        'pip_lat_seconds_bucket{le="0.1"} 0',
        'pip_lat_seconds_bucket{le="1.0"} 1',
        'pip_lat_seconds_bucket{le="+Inf"} 1',
        "pip_lat_seconds_sum 0.25",
        "pip_lat_seconds_count 1",
        "# HELP pip_q_total Queries.",
        "# TYPE pip_q_total counter",
        "pip_q_total 2",
    ]


_SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?[0-9.einf+-]+$'
)


def test_database_prometheus_export_is_well_formed():
    rows, _bank, _ = _run_workload(Telemetry())
    db = _build_db(Telemetry())
    db.sql(QUERY)
    text = db.metrics(text=True)
    names = set()
    for line in text.splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            names.add(line.split()[2])
            continue
        assert _SAMPLE_LINE.match(line), line
    assert "pip_queries_total" in names
    assert "pip_query_seconds" in names
    assert "pip_bank_hit_rate" in names
    metrics = db.metrics()
    hist = metrics["pip_query_seconds"]
    assert hist["count"] == metrics["pip_queries_total"]
    # Cumulative buckets are monotone and end at the total count.
    counts = list(hist["buckets"].values())
    assert counts == sorted(counts)
    assert hist["buckets"]["+Inf"] == hist["count"]
    db.close()


def test_bound_gauges_read_live_state():
    db = _build_db(Telemetry())
    db.sql(QUERY)
    metrics = db.metrics()
    assert metrics["pip_bank_entries"] == db.sample_bank.stats()["entries"]
    assert metrics["pip_bank_samples_drawn"] > 0
    assert metrics["pip_rows_scanned_total"] > 0
    session = db.connect()
    assert db.metrics()["pip_sessions_open"] == 1
    session.close()
    db.close()


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def test_disabled_tracer_returns_null_span():
    tracer = Tracer(enabled=False)
    assert tracer.span("anything") is NULL_SPAN
    tracer.count("ignored")  # must not raise
    assert tracer.take() == []


def test_span_nesting_counters_and_attach():
    tracer = Tracer(enabled=True)
    with tracer.span("outer", tag="t"):
        tracer.count("n", 2)
        with tracer.span("inner"):
            tracer.count("n", 3)
    (root,) = tracer.take()
    assert root.name == "outer" and root.tags == {"tag": "t"}
    assert [child.name for child in root.children] == ["inner"]
    assert root.counters["n"] == 2 and root.total("n") == 5
    assert root.wall >= root.children[0].wall >= 0.0


def test_traced_query_produces_operator_spans():
    telemetry = Telemetry(tracing=True)
    db = _build_db(telemetry)
    db.sql(QUERY)
    roots = telemetry.tracer.take()
    query_roots = [r for r in roots if r.name == "query"]
    assert query_roots, [r.name for r in roots]
    names = [span.name for span in query_roots[-1].walk()]
    assert "execute.Aggregate" in names
    assert "execute.Scan" in names
    # The bank counted its activity onto the spans.
    assert query_roots[-1].total("samples.drawn") > 0
    db.close()


def test_traced_parallel_prefetch_spans_are_deterministic():
    def span_shape():
        telemetry = Telemetry(tracing=True)
        db = _build_db(telemetry, workers=4)
        db.sql(QUERY)
        roots = [r for r in telemetry.tracer.take() if r.name == "query"]
        shape = [
            (span.name, span.tags.get("key"))
            for span in roots[-1].walk()
            if span.name in ("parallel.prefetch", "parallel.job")
        ]
        db.close()
        return shape

    first, second = span_shape(), span_shape()
    assert first and first[0][0] == "parallel.prefetch"
    assert [name for name, _key in first].count("parallel.job") > 0
    assert first == second  # submission-order attach: same tree every run


# ---------------------------------------------------------------------------
# EXPLAIN / EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


def test_explain_renders_without_executing():
    telemetry = Telemetry()
    db = _build_db(telemetry)
    plan_text = db.sql("EXPLAIN " + QUERY)
    assert isinstance(plan_text, str)
    assert "Aggregate" in plan_text and "actual" not in plan_text
    assert db.metrics()["pip_rows_scanned_total"] == 0  # nothing ran
    db.close()


def test_explain_analyze_annotates_operators():
    db = _build_db(Telemetry())
    rendered = db.sql("EXPLAIN ANALYZE " + QUERY)
    assert rendered.startswith("EXPLAIN ANALYZE (total ")
    assert "(actual: wall=" in rendered
    aggregate_line = next(
        line for line in rendered.splitlines() if "Aggregate" in line
    )
    assert "rows=12" in aggregate_line
    assert "samples drawn=" in aggregate_line  # sampling effort surfaced
    # The analyzed child really executed: same sampling as a plain run.
    assert db.sample_bank.stats()["samples_drawn"] > 0
    db.close()


def test_sql_analyze_kwarg_matches_sql_explain_analyze():
    db = _build_db(Telemetry())
    rendered = db.sql(QUERY, analyze=True)
    assert rendered.startswith("EXPLAIN ANALYZE (total ")
    assert "(actual: wall=" in rendered
    with pytest.raises(PlanError):
        db.sql("CREATE TABLE nope (k str)", analyze=True)
    db.close()


def test_explain_analyze_does_not_change_later_results():
    rows_plain, _, _ = _run_workload(Telemetry.disabled())
    db = _build_db(Telemetry.disabled())
    db.sql("EXPLAIN ANALYZE " + QUERY)
    db.sample_bank.clear()  # cold again, as in the reference run
    assert db.sql(QUERY).rows() == rows_plain
    db.close()


def _monitoring_model():
    """warm_monitoring's model: 8 regions x 24 sites, two Normals a row."""
    db = PIPDatabase(seed=5, options=SamplingOptions(n_samples=50))
    db.sql("CREATE TABLE sites (site int, region int, mu float)")
    db.insert_many("sites", [(i, i % 8, 5.0 + i % 3) for i in range(192)])
    db.register("model", db.sql(
        "SELECT site, region, create_variable('normal', mu, 1.0) AS a,"
        " create_variable('normal', mu, 2.0) AS b FROM sites"))
    return db


def test_explain_analyze_reads_rows_bound_by_a_mixed_where():
    """σ binds a condition on the rows its deterministic atoms keep — 48 of
    192 — and the Filter line says so; the row executor binds them all."""
    query = ("EXPLAIN ANALYZE SELECT site, conf() FROM model"
             " WHERE a > b AND region >= 2 AND region < 4")
    for columnar, bound in ((True, 48), (False, 192)):
        with row_path(not columnar):
            db = _monitoring_model()
            assert len(db.table("model").rows) == 192
            text = db.sql(query)
        line = next(l for l in text.splitlines() if "Filter" in l)
        assert "rows=48 " in line
        assert "rows bound=%d" % bound in line
        db.close()


def test_filter_constructs_one_conjunction_per_surviving_row(monkeypatch):
    """Counted from outside: widening the window by 48 rows costs 48 more
    ``Conjunction`` constructions (by atoms or by shape), not 48 x (one per
    atom, and again)."""
    from repro.symbolic.conditions import Conjunction

    db = _monitoring_model()
    statement = db.prepare(
        "SELECT site, a FROM model WHERE a > b AND region >= :lo AND region < :hi"
    )
    statement.run(lo=0, hi=1).rows()  # plan, store and mask arrays exist
    built = []
    original, shaped = Conjunction.__init__, Conjunction.shaped

    def counted(self, atoms=()):
        built.append(1)
        original(self, atoms)

    def counted_shaped(shape, terms):
        built.append(1)
        return shaped(shape, terms)

    monkeypatch.setattr(Conjunction, "__init__", counted)
    monkeypatch.setattr(Conjunction, "shaped", counted_shaped)
    counts = []
    for hi in (4, 6):
        del built[:]
        table = statement.run(lo=2, hi=hi).to_ctable()
        assert len(table.rows) == 24 * (hi - 2)
        assert all(repr(row.condition).count(" > ") == 1 for row in table.rows)
        counts.append(len(built))
    assert counts[1] - counts[0] == 48
    assert counts[0] < 48 + 8  # the rows, and a handful for the statement
    db.close()


def test_plan_memo_counts_sit_beside_the_bank_counts():
    """A repeated prepared statement plans nothing the second time, and the
    span tree says so where it says the bank was warm."""
    db = _build_db(Telemetry(tracing=True))
    statement = db.prepare(QUERY)
    tracer = db.telemetry.tracer
    statement.run().rows()
    cold = tracer.last_root()
    assert cold.total("plan.miss") == cold.total("bank.miss") == 12
    assert cold.total("plan.hit") == 0
    statement.run().rows()
    warm = tracer.last_root()
    assert warm.total("plan.miss") == 0
    assert warm.total("plan.hit") == warm.total("bank.hit") == 12
    db.sql("EXPLAIN ANALYZE " + QUERY)
    aggregate = next(line for line in tracer.last_root().render().splitlines()
                     if "execute.Aggregate" in line)
    assert "bank.hit=12 plan.hit=12" in aggregate
    db.close()


def test_plan_memo_counting_never_steers():
    """Untraced, the same two runs return the same rows and bank counters."""
    rows, stats = [], []
    for telemetry in (Telemetry.disabled(), Telemetry(tracing=True)):
        db = _build_db(telemetry)
        statement = db.prepare(QUERY)
        rows.append([statement.run().rows(), statement.run().rows()])
        stats.append(db.sample_bank.stats())
        db.close()
    assert rows[0] == rows[1] and stats[0] == stats[1]


# ---------------------------------------------------------------------------
# ResultSet.stats and the bank hit rate
# ---------------------------------------------------------------------------


def test_result_stats_report_sampling_effort_and_reuse():
    db = _build_db(Telemetry())
    first = db.sql(QUERY)
    assert first.stats is not None
    assert first.stats.rows == 12
    assert first.stats.elapsed > 0.0
    assert first.stats.samples_drawn > 0
    assert first.stats.bank_misses > 0 and first.stats.bank_hits == 0
    second = db.sql(QUERY)
    assert second.stats.samples_drawn == 0  # warm bank: pure reuse
    assert second.stats.samples_reused > 0
    assert second.stats.bank_hits > 0 and second.stats.bank_misses == 0
    assert second.stats.as_dict()["rows"] == 12
    db.close()


def test_bank_hit_rate_property():
    db = _build_db(Telemetry())
    assert db.sample_bank.hit_rate is None  # 0/0 is no data, not 0%
    db.sql(QUERY)  # all misses
    assert db.sample_bank.hit_rate == 0.0
    db.sql(QUERY)  # all hits
    rate = db.sample_bank.hit_rate
    assert rate == pytest.approx(0.5)
    assert db.sample_bank.stats()["hit_rate"] == rate
    assert db.metrics()["pip_bank_hit_rate"] == pytest.approx(rate)
    db.close()


# ---------------------------------------------------------------------------
# Transactions and parallel metrics
# ---------------------------------------------------------------------------


def test_txn_metrics_count_lifecycle_events():
    telemetry = Telemetry()
    db = PIPDatabase(seed=3, telemetry=telemetry)
    db.create_table("t", [("k", "str")])
    session = db.connect()
    with session.transaction():
        session.execute("INSERT INTO t VALUES ('a')")
    session.begin()
    session.rollback()
    metrics = db.metrics()
    assert metrics["pip_txn_begun_total"] == 2
    assert metrics["pip_txn_committed_total"] == 1
    assert metrics["pip_txn_rolled_back_total"] == 1
    assert metrics["pip_txn_conflicts_total"] == 0
    assert metrics["pip_txn_conflict_rate"] == 0.0
    session.close()
    db.close()


def test_txn_conflict_counted():
    from repro.util.errors import TransactionError

    db = PIPDatabase(seed=3, telemetry=Telemetry())
    db.create_table("t", [("k", "str")])
    s1, s2 = db.connect(), db.connect()
    s1.begin()
    s1.execute("INSERT INTO t VALUES ('one')")
    s2.begin()
    s2.execute("INSERT INTO t VALUES ('two')")
    s1.commit()
    with pytest.raises(TransactionError):
        s2.commit()
    s2.rollback()
    metrics = db.metrics()
    assert metrics["pip_txn_conflicts_total"] == 1
    assert metrics["pip_txn_conflict_rate"] == pytest.approx(0.5)
    s1.close(), s2.close()
    db.close()


def test_parallel_prefetch_metrics():
    telemetry = Telemetry()
    db = _build_db(telemetry, workers=4)
    db.sql(QUERY)
    metrics = db.metrics()
    assert metrics["pip_parallel_batches_total"] >= 1
    assert metrics["pip_parallel_jobs_total"] > 0
    assert metrics["pip_parallel_merged_total"] > 0
    assert metrics["pip_parallel_merged_total"] <= metrics["pip_parallel_jobs_total"]
    db.close()


# ---------------------------------------------------------------------------
# Slow-query log
# ---------------------------------------------------------------------------


def test_slow_query_log_emits_above_threshold(caplog):
    db = _build_db(Telemetry(slow_query_seconds=0.0))  # everything is slow
    with caplog.at_level(logging.WARNING, logger="repro.slowquery"):
        db.sql(QUERY)
    slow = [r for r in caplog.records if "slow query" in r.message]
    assert slow, caplog.records
    message = slow[-1].message
    assert "expected_sum(shortfall)" in message
    assert re.search(r"plan=[0-9a-f]{8}", message)
    assert "samples_drawn=" in message
    assert db.metrics()["pip_slow_queries_total"] >= 1
    db.close()


def test_slow_query_log_silent_below_threshold(caplog):
    db = _build_db(Telemetry(slow_query_seconds=3600.0))
    with caplog.at_level(logging.WARNING, logger="repro.slowquery"):
        db.sql(QUERY)
    assert not [r for r in caplog.records if "slow query" in r.message]
    assert db.metrics()["pip_slow_queries_total"] == 0
    db.close()


def test_slow_query_log_units():
    log = SlowQueryLog(threshold=0.5)
    assert log.enabled
    assert not log.observe("SELECT 1", elapsed=0.4)
    assert log.observe("SELECT 1", elapsed=0.6)
    assert not SlowQueryLog(threshold=None).enabled
    assert collapse_statement("SELECT\n  1   FROM t") == "SELECT 1 FROM t"
    assert plan_digest(None) == "-"


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------


def test_from_env_reads_flags(monkeypatch):
    monkeypatch.setenv("PIP_TRACE", "1")
    monkeypatch.setenv("PIP_METRICS", "0")
    monkeypatch.setenv("PIP_SLOW_QUERY_MS", "250")
    telemetry = Telemetry.from_env()
    assert telemetry.tracer.enabled
    assert not telemetry.metrics_enabled
    assert telemetry.slow_log.threshold == pytest.approx(0.25)
    monkeypatch.delenv("PIP_TRACE")
    monkeypatch.delenv("PIP_METRICS")
    monkeypatch.delenv("PIP_SLOW_QUERY_MS")
    default = Telemetry.from_env()
    assert not default.tracer.enabled and default.metrics_enabled
    assert not default.slow_log.enabled


def test_metrics_disabled_registry_stays_quiet():
    db = _build_db(Telemetry.disabled())
    db.sql(QUERY)
    metrics = db.metrics()
    assert metrics["pip_queries_total"] == 0
    # Callback gauges still read live state — they are scrape-time reads,
    # not recorded updates.
    assert metrics["pip_bank_entries"] > 0
    db.close()
