"""The :class:`Telemetry` facade: one object carrying a database's
tracer, metrics registry and slow-query log.

Every :class:`~repro.core.database.PIPDatabase` owns exactly one
``Telemetry`` (``db.telemetry``); instrumentation points across the
engine, sample bank, parallel scheduler, WAL and transaction layer call
its ``on_*`` hooks, each of which is a no-op after one flag check when
the corresponding signal is off.  Nothing here ever touches RNG streams,
sampling order, lock scopes or WAL record contents — telemetry observes
execution, it never steers it — which is what makes the
enabled-vs-disabled bit-identity guarantee structural rather than
incidental (``tests/test_observability.py`` enforces it).

Configuration is constructor-first with an environment overlay for CI
and operations:

* ``PIP_TRACE=1`` — enable span collection.
* ``PIP_METRICS=0`` — disable the metrics counters (they are cheap and
  on by default).
* ``PIP_SLOW_QUERY_MS=250`` — arm the slow-query log at 250 ms.
* ``PIP_TRACE_EXPORT=file:<path>`` or ``http(s)://<url>`` — ship
  finished root spans and periodic metric snapshots to a sink (implies
  tracing on; see :mod:`repro.obs.export`).

Example
-------
>>> telemetry = Telemetry(tracing=True)
>>> telemetry.tracer.enabled, telemetry.metrics_enabled
(True, True)
>>> Telemetry.disabled().active
False
>>> "pip_queries_total" in Telemetry().registry.names()
True
"""

import os
import weakref

from repro.obs import trace as _trace
from repro.obs.export import TelemetryExporter, parse_target
from repro.obs.logs import SlowQueryLog, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def _env_flag(name, default=False):
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("", "0", "false", "no", "off")


class Telemetry:
    """Tracing + metrics + slow-query logging for one database."""

    def __init__(self, tracing=False, metrics=True, slow_query_seconds=None,
                 export=None, trace_rng=None):
        # Export implies tracing: the exporter is fed by root-span
        # completion, so spans must be collected for anything to ship.
        if export:
            tracing = True
        self.tracer = Tracer(enabled=tracing, rng=trace_rng)
        self.metrics_enabled = metrics
        self.registry = MetricsRegistry()
        self.slow_log = SlowQueryLog(slow_query_seconds)
        self.log = get_logger()
        self._define_instruments()
        self.exporter = self._build_exporter(export)
        exporter = self.exporter
        if exporter is not None:
            self.tracer.on_root = exporter.export_root
            registry = self.registry
            # Gauge callbacks close over what they read, never over
            # ``self``: the registry belongs to this object, and a cycle
            # would keep a closed database's telemetry resident until a
            # full collection happens to run.
            registry.gauge(
                "pip_export_queue",
                "Telemetry records waiting in the export queue.",
                fn=lambda: exporter.pending,
            )
            registry.gauge(
                "pip_export_dropped",
                "Telemetry records dropped by export backpressure.",
                fn=lambda: exporter.dropped,
            )

    def _build_exporter(self, export):
        """``export`` may be None, a ``file:``/``http(s)://`` target
        string, a sink (anything with ``emit``), or a ready-made
        :class:`TelemetryExporter`."""
        if not export:
            return None
        if isinstance(export, TelemetryExporter):
            return export
        sink = parse_target(export) if isinstance(export, str) else export
        if sink is None:
            return None
        return TelemetryExporter(sink, metrics_fn=self.registry.snapshot)

    def shutdown(self):
        """Flush and stop the exporter (idempotent; no-op without one)."""
        if self.exporter is not None:
            self.exporter.shutdown()

    @classmethod
    def from_env(cls):
        """The default build: constructor defaults + environment overlay."""
        threshold_ms = os.environ.get("PIP_SLOW_QUERY_MS")
        return cls(
            tracing=_env_flag("PIP_TRACE", False),
            metrics=_env_flag("PIP_METRICS", True),
            slow_query_seconds=(
                float(threshold_ms) / 1000.0 if threshold_ms else None
            ),
            export=os.environ.get("PIP_TRACE_EXPORT") or None,
        )

    @classmethod
    def disabled(cls):
        """Everything off: the bit-identity reference configuration."""
        return cls(tracing=False, metrics=False, slow_query_seconds=None)

    @property
    def active(self):
        """Whether any signal is being collected at all."""
        return (
            self.tracer.enabled or self.metrics_enabled or self.slow_log.enabled
        )

    # -- instruments -------------------------------------------------------------

    def _define_instruments(self):
        registry = self.registry
        self.queries_total = registry.counter(
            "pip_queries_total", "Statements executed through the SQL pipeline."
        )
        self.query_seconds = registry.histogram(
            "pip_query_seconds", "Statement wall time in seconds."
        )
        self.rows_returned_total = registry.counter(
            "pip_rows_returned_total", "Result rows returned by queries."
        )
        self.rows_scanned_total = registry.counter(
            "pip_rows_scanned_total", "Rows read by Scan operators."
        )
        self.slow_queries_total = registry.counter(
            "pip_slow_queries_total", "Statements that crossed the slow-query threshold."
        )
        self.wal_appends_total = registry.counter(
            "pip_wal_appends_total", "Records appended to the write-ahead log."
        )
        self.wal_bytes_total = registry.counter(
            "pip_wal_bytes_total", "Encoded bytes appended to the write-ahead log."
        )
        self.wal_fsyncs_total = registry.counter(
            "pip_wal_fsyncs_total", "fsync() calls issued by the write-ahead log."
        )
        self.checkpoints_total = registry.counter(
            "pip_checkpoints_total", "Snapshot checkpoints written."
        )
        self.txn_begun_total = registry.counter(
            "pip_txn_begun_total", "Transactions begun."
        )
        self.txn_committed_total = registry.counter(
            "pip_txn_committed_total", "Transactions committed."
        )
        self.txn_conflicts_total = registry.counter(
            "pip_txn_conflicts_total", "Commits refused by first-committer-wins."
        )
        self.txn_rolled_back_total = registry.counter(
            "pip_txn_rolled_back_total", "Transactions rolled back."
        )
        self.parallel_batches_total = registry.counter(
            "pip_parallel_batches_total", "Parallel prefetch batches dispatched."
        )
        self.parallel_jobs_total = registry.counter(
            "pip_parallel_jobs_total", "Group sampling jobs dispatched to workers."
        )
        self.parallel_merged_total = registry.counter(
            "pip_parallel_merged_total", "Worker bundles merged into the sample bank."
        )
        self.columnar_chunks_scanned_total = registry.counter(
            "pip_columnar_chunks_scanned_total",
            "Column chunks evaluated by vectorized filters.",
        )
        self.columnar_chunks_pruned_zonemap_total = registry.counter(
            "pip_columnar_chunks_pruned_zonemap_total",
            "Column chunks skipped by zone-map (min/max) pruning.",
        )
        conflicted, committed = self.txn_conflicts_total, self.txn_committed_total

        def conflict_rate():
            conflicts = conflicted.value
            attempts = conflicts + committed.value
            return (conflicts / attempts) if attempts else 0.0

        registry.gauge(
            "pip_txn_conflict_rate",
            "Conflicted commits / attempted commits (0 with no commits).",
            fn=conflict_rate,
        )

    def bind(self, db):
        """Register the live gauges that read database state at scrape
        time (bank hit rate and counters, pool size, open sessions).

        Holds the database weakly: telemetry must never keep a closed
        database alive just because a registry snapshot might ask.
        """
        ref = weakref.ref(db)

        def bank_counter(name):
            def read():
                live = ref()
                return getattr(live.sample_bank.stats_counters, name) if live else 0
            return read

        def hit_rate():
            live = ref()
            if live is None:
                return 0.0
            return live.sample_bank.hit_rate or 0.0

        def bank_entries():
            live = ref()
            return live.sample_bank.stats()["entries"] if live else 0

        def bank_bytes():
            live = ref()
            return live.sample_bank.stats()["bytes_in_memory"] if live else 0

        def pool_workers():
            live = ref()
            if live is None or live.scheduler.pool is None:
                return 0
            return live.scheduler.pool.workers

        def sessions_open():
            live = ref()
            return len(live._sessions) if live else 0

        registry = self.registry
        registry.gauge(
            "pip_bank_hit_rate",
            "Sample-bank lookup hit rate (0 before any lookup).",
            fn=hit_rate,
        )
        registry.gauge(
            "pip_bank_entries", "Sample bundles held in memory.", fn=bank_entries
        )
        registry.gauge(
            "pip_bank_bytes_in_memory",
            "In-memory sample-bundle footprint in bytes.",
            fn=bank_bytes,
        )
        for name, help_text in (
            ("hits", "Sample-bank lookups served from cache."),
            ("misses", "Sample-bank lookups that materialised a bundle."),
            ("topups", "Incremental extensions of cached bundles."),
            ("samples_drawn", "Conditional samples freshly materialised."),
            ("samples_served", "Conditional samples handed to queries."),
            ("invalidated", "Bundles dropped by mutation invalidation."),
        ):
            registry.gauge("pip_bank_" + name, help_text, fn=bank_counter(name))
        registry.gauge(
            "pip_pool_workers",
            "Live parallel sampling workers (0 when the pool is idle).",
            fn=pool_workers,
        )
        registry.gauge(
            "pip_sessions_open", "Sessions currently open.", fn=sessions_open
        )

        def history_value(reader):
            def read():
                live = ref()
                if live is None:
                    return 0
                return reader(live.history)
            return read

        registry.gauge(
            "pip_history_records",
            "Query-profile records retained in the history ring buffer.",
            fn=history_value(len),
        )
        registry.gauge(
            "pip_history_segments",
            "Query-history segment files on disk.",
            fn=history_value(lambda h: h.segment_count()),
        )
        registry.gauge(
            "pip_history_bytes_on_disk",
            "Bytes of query-history segments on disk.",
            fn=history_value(lambda h: h.bytes_on_disk()),
        )
        registry.gauge(
            "pip_history_dropped",
            "Query-profile records evicted from the history ring buffer.",
            fn=history_value(lambda h: h.dropped),
        )
        return self

    def bind_server(self, server):
        """Register the network-service instruments (ROADMAP item 1).

        Called once by :class:`~repro.server.app.PIPServer` on the
        telemetry it owns — separate from any hosted database's
        telemetry, so per-database counters never mix with per-endpoint
        ones.  Holds the server weakly, mirroring :meth:`bind`.
        """
        ref = weakref.ref(server)

        def connections_open():
            live = ref()
            return live.connections_open if live else 0

        def queue_depth():
            live = ref()
            return live.admission.pending if live else 0

        def requests_active():
            live = ref()
            return live.admission.active if live else 0

        registry = self.registry
        self.server_requests_total = registry.counter(
            "pip_server_requests_total", "Requests handled by the server."
        )
        self.server_errors_total = registry.counter(
            "pip_server_errors_total", "Requests that finished with a wire error."
        )
        self.server_rejected_total = registry.counter(
            "pip_server_rejected_total",
            "Requests refused by admission control or auth.",
        )
        self.server_request_seconds = registry.histogram(
            "pip_server_request_seconds", "Server request wall time in seconds."
        )
        registry.gauge(
            "pip_server_connections",
            "Open client connections.",
            fn=connections_open,
        )
        registry.gauge(
            "pip_server_queue_depth",
            "Requests waiting in the admission queue.",
            fn=queue_depth,
        )
        registry.gauge(
            "pip_server_requests_active",
            "Requests currently executing.",
            fn=requests_active,
        )
        return self

    def on_server_request(self, elapsed, ok=True):
        """One served request finished (``ok=False``: with a wire error)."""
        if self.metrics_enabled:
            self.server_requests_total.inc()
            self.server_request_seconds.observe(elapsed)
            if not ok:
                self.server_errors_total.inc()

    def on_server_rejected(self):
        """A request was refused before execution (auth / admission)."""
        if self.metrics_enabled:
            self.server_rejected_total.inc()

    # -- instrumentation hooks ---------------------------------------------------
    #
    # Each hook is the single point its subsystem calls; the flag checks
    # live here so call sites stay one line and the disabled path stays
    # one comparison.

    def finish_statement(self, text, plan, elapsed, stats=None, trace_id=None):
        """Statement epilogue: latency metrics + slow-query log."""
        if self.metrics_enabled:
            self.queries_total.inc()
            self.query_seconds.observe(elapsed)
            if stats is not None:
                self.rows_returned_total.inc(stats.rows)
        if self.slow_log.enabled:
            span = self.tracer.last_root() if self.tracer.enabled else None
            if self.slow_log.observe(
                text, elapsed, plan=plan, stats=stats, span=span,
                trace_id=trace_id or _trace.current_trace_id(),
                tenant=_trace.current_tenant(),
            ) and self.metrics_enabled:
                self.slow_queries_total.inc()

    def on_rows_scanned(self, n):
        if self.metrics_enabled:
            self.rows_scanned_total.inc(n)
        self.tracer.count("rows.scanned", n)

    def on_columnar_scan(self, scanned, pruned_zone):
        if self.metrics_enabled:
            self.columnar_chunks_scanned_total.inc(scanned)
            self.columnar_chunks_pruned_zonemap_total.inc(pruned_zone)
        tracer = self.tracer
        if tracer.enabled:
            tracer.count("columnar.chunks_scanned", scanned)
            tracer.count("columnar.chunks_pruned", pruned_zone)

    def on_wal_append(self, nbytes, fsynced):
        if self.metrics_enabled:
            self.wal_appends_total.inc()
            self.wal_bytes_total.inc(nbytes)
            if fsynced:
                self.wal_fsyncs_total.inc()
        tracer = self.tracer
        if tracer.enabled:
            tracer.count("wal.appends")
            tracer.count("wal.bytes", nbytes)
            if fsynced:
                tracer.count("wal.fsyncs")

    def on_wal_fsync(self):
        if self.metrics_enabled:
            self.wal_fsyncs_total.inc()
        self.tracer.count("wal.fsyncs")

    def on_checkpoint(self):
        if self.metrics_enabled:
            self.checkpoints_total.inc()

    def on_txn_event(self, event):
        """``event`` is one of ``begin``/``commit``/``conflict``/``rollback``."""
        if self.metrics_enabled:
            counter = {
                "begin": self.txn_begun_total,
                "commit": self.txn_committed_total,
                "conflict": self.txn_conflicts_total,
                "rollback": self.txn_rolled_back_total,
            }[event]
            counter.inc()
        self.tracer.count("txn." + event)

    def on_parallel_prefetch(self, dispatched, merged):
        if self.metrics_enabled:
            self.parallel_batches_total.inc()
            self.parallel_jobs_total.inc(dispatched)
            self.parallel_merged_total.inc(merged)

    def __repr__(self):
        flags = []
        if self.tracer.enabled:
            flags.append("tracing")
        if self.metrics_enabled:
            flags.append("metrics")
        if self.slow_log.enabled:
            flags.append("slowlog")
        return "<Telemetry %s>" % ("+".join(flags) if flags else "off",)
