"""Query results: the :class:`ResultSet` wrapper and estimate metadata.

``db.sql()`` and ``PreparedStatement.run()`` return a :class:`ResultSet`
instead of a bare c-table: the result rows plus everything the sampling
back end knows about how each probability-removing cell was computed —
estimator method, sample counts, exactness, and a confidence interval
when the engine produced a standard error.  The underlying c-table stays
one call away (:meth:`ResultSet.to_ctable`), so symbolic workflows
(registering views, inspecting row conditions) lose nothing.
"""

import math


class CellEstimate:
    """Provenance for one probability-removing output cell.

    ``method`` is the estimator the back end chose (``linearity``,
    ``sorted-scan``, ``conf-sum``, ``exact``, ``monte-carlo``, …);
    ``interval`` is a two-sided 95% normal interval when a standard error
    was available, else ``None``.
    """

    __slots__ = ("column", "row_index", "method", "n_samples", "exact", "interval")

    def __init__(self, column, row_index, method, n_samples, exact, interval=None):
        self.column = column
        self.row_index = row_index
        self.method = method
        self.n_samples = n_samples
        self.exact = exact
        self.interval = interval

    def __repr__(self):
        core = "CellEstimate(%s[%d]: %s, n=%s, %s" % (
            self.column,
            self.row_index,
            self.method,
            self.n_samples,
            "exact" if self.exact else "sampled",
        )
        if self.interval is not None:
            core += ", ci=(%.6g, %.6g)" % self.interval
        return core + ")"


def normal_interval(mean, stderr, z=1.96):
    """Two-sided 95% interval, or None when the stderr is unusable."""
    if stderr is None or not math.isfinite(stderr):
        return None
    return (mean - z * stderr, mean + z * stderr)


class OpStats:
    """Actual execution stats for one plan node (EXPLAIN ANALYZE).

    Times and counters are **inclusive** of the node's children — the
    PostgreSQL ``actual time`` convention — and the sampling-effort
    fields are deltas of the sample bank's counters across the node's
    execution, so a probability-removing operator shows exactly the
    sampling work its subtree triggered.
    """

    __slots__ = (
        "calls",
        "wall",
        "rows",
        "samples_drawn",
        "samples_served",
        "bank_hits",
        "bank_misses",
        "bank_topups",
        "chunks_scanned",
        "chunks_pruned_zone",
        "rows_bound",
    )

    def __init__(self):
        self.calls = 0
        self.wall = 0.0
        self.rows = 0
        self.samples_drawn = 0
        self.samples_served = 0
        self.bank_hits = 0
        self.bank_misses = 0
        self.bank_topups = 0
        self.chunks_scanned = 0
        self.chunks_pruned_zone = 0
        self.rows_bound = 0

    def render(self):
        """The ``(actual: ...)`` annotation for one EXPLAIN ANALYZE line."""
        parts = ["wall=%.3fms" % (self.wall * 1000.0,), "rows=%d" % (self.rows,)]
        if self.calls > 1:
            parts.append("calls=%d" % (self.calls,))
        if self.samples_drawn or self.samples_served:
            parts.append(
                "samples drawn=%d served=%d"
                % (self.samples_drawn, self.samples_served)
            )
        if self.bank_hits or self.bank_misses or self.bank_topups:
            parts.append(
                "bank hits=%d misses=%d topups=%d"
                % (self.bank_hits, self.bank_misses, self.bank_topups)
            )
        scan = (self.chunks_scanned, self.chunks_pruned_zone, self.rows_bound)
        if any(scan):
            parts.append("chunks scanned=%d pruned_zone=%d rows bound=%d" % scan)
        return " ".join(parts)


class PlanProfile:
    """Per-node :class:`OpStats`, keyed by plan-node identity.

    Filled by the executor when an :class:`ExecContext` carries a
    profile; read back by ``PlanNode.explain(profile=...)`` which looks
    nodes up by ``id()`` — safe because the profile never outlives the
    bound plan it annotates.
    """

    __slots__ = ("stats",)

    def __init__(self):
        self.stats = {}

    def record(self, node, wall, rows, counters, before, chunks=(0, 0, 0)):
        """Fold one node execution in.  ``counters`` is the live
        :class:`~repro.samplebank.bank.BankStats`; ``before`` its
        ``(samples_drawn, samples_served, hits, misses, topups)`` snapshot
        from just before the node ran.  ``chunks`` is the columnar scan
        delta ``(scanned, pruned_zone, rows_bound)`` —
        inclusive of children, like every other counter here."""
        entry = self.stats.get(id(node))
        if entry is None:
            entry = self.stats[id(node)] = OpStats()
        entry.calls += 1
        entry.wall += wall
        entry.rows += rows
        entry.samples_drawn += counters.samples_drawn - before[0]
        entry.samples_served += counters.samples_served - before[1]
        entry.bank_hits += counters.hits - before[2]
        entry.bank_misses += counters.misses - before[3]
        entry.bank_topups += counters.topups - before[4]
        entry.chunks_scanned += chunks[0]
        entry.chunks_pruned_zone += chunks[1]
        entry.rows_bound += chunks[2]

    def lookup(self, node):
        return self.stats.get(id(node))


class QueryStats:
    """Per-statement execution stats, carried on :attr:`ResultSet.stats`.

    ``samples_drawn`` counts conditional samples freshly materialised
    during the statement; ``samples_reused`` counts draws served from
    bundles that already existed (bank amplification at work).  Values
    are deltas of the database-wide bank counters across the statement,
    so overlapping statements on other threads can inflate them — they
    are exact under single-statement execution, which is what benchmarks
    measure.
    """

    __slots__ = (
        "elapsed",
        "rows",
        "bank_hits",
        "bank_misses",
        "samples_drawn",
        "samples_reused",
        "trace_id",
        "server_timing",
    )

    def __init__(self, elapsed, rows, bank_hits=0, bank_misses=0,
                 samples_drawn=0, samples_reused=0, trace_id=None,
                 server_timing=None):
        self.elapsed = elapsed
        self.rows = rows
        self.bank_hits = bank_hits
        self.bank_misses = bank_misses
        self.samples_drawn = samples_drawn
        self.samples_reused = samples_reused
        # Distributed-tracing correlation: the statement's trace id, and
        # (for remote statements) the server's coarse timing breakdown.
        self.trace_id = trace_id
        self.server_timing = server_timing

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return (
            "<QueryStats %.3fms rows=%d bank_hits=%d bank_misses=%d "
            "samples_drawn=%d samples_reused=%d>"
            % (
                self.elapsed * 1000.0,
                self.rows,
                self.bank_hits,
                self.bank_misses,
                self.samples_drawn,
                self.samples_reused,
            )
        )


class ExecContext:
    """Per-execution scratch state threaded through ``execute_plan``.

    Collects one :class:`CellEstimate` per probability-removing cell as
    the sampling operators run.  Operators above them that subset or
    reorder rows (ORDER BY, LIMIT, HAVING, outer filters) re-map the
    indices to the final result order — or drop estimates they can no
    longer attribute unambiguously — so ``ResultSet.estimate(column, row)``
    addresses the rows the caller actually sees.

    ``profile`` is ``None`` except under EXPLAIN ANALYZE, when it holds
    the :class:`PlanProfile` the executor's per-operator wrapper fills.
    """

    __slots__ = (
        "estimates",
        "profile",
        "chunks_scanned",
        "chunks_pruned_zone",
        "rows_bound",
    )

    def __init__(self):
        self.estimates = []
        self.profile = None
        # Columnar scan accounting (repro.columnar.ops.select_vectorized):
        # chunks masked vs zone-pruned, rows σ bound a condition on.
        self.chunks_scanned = 0
        self.chunks_pruned_zone = 0
        self.rows_bound = 0

    def scan_counts(self):
        return (self.chunks_scanned, self.chunks_pruned_zone, self.rows_bound)

    def record(self, column, row_index, method, n_samples, exact, interval=None):
        self.estimates.append(
            CellEstimate(column, row_index, method, n_samples, exact, interval)
        )


class ResultSet:
    """A query result: deterministic-or-symbolic rows + estimate metadata.

    Thin and lossless — it wraps the result c-table and answers the
    questions callers actually ask:

    * :meth:`rows` — plain value tuples.
    * :meth:`scalar` — the single value of a 1×1 result (aggregates).
    * :meth:`to_ctable` — the underlying c-table (conditions intact).
    * :meth:`pretty` — formatted table, with an estimate footer.
    * :meth:`explain` — the logical plan that produced it.
    * :meth:`estimate` / :attr:`estimates` — per-cell estimator metadata.
    * :attr:`stats` — per-statement :class:`QueryStats` (elapsed time,
      rows, bank hits/misses, samples drawn vs reused); ``None`` on
      results built outside the statement pipeline.
    """

    __slots__ = ("_table", "plan", "estimates", "stats")

    def __init__(self, table, plan=None, estimates=(), stats=None):
        self._table = table
        self.plan = plan
        self.estimates = list(estimates)
        self.stats = stats

    # -- row access ---------------------------------------------------------------

    def rows(self):
        """Row values as a list of plain tuples.

        Cells of probability-removing queries (``conf``, ``expected_*``)
        are plain floats; cells of condition-rewriting queries may still
        be symbolic expressions.

        **Row-ordering contract.**  Without ORDER BY, row order is the
        operator-pipeline order: base-table insertion order, transformed
        deterministically by each operator (filters keep the surviving
        rows in input order, projections are 1:1, DNF filters concatenate
        their disjunct branches, GROUP BY emits first-seen key order).
        The vectorized columnar executor honours the same contract — a
        mask-based filter over a mixed table re-merges its deterministic
        and symbolic partitions back into input order, so columnar and
        row-path execution return **identical rows in identical order**
        (asserted query-by-query in ``tests/differential/``).

        Example
        -------
        >>> from repro import PIPDatabase
        >>> db = PIPDatabase()
        >>> _ = db.sql("CREATE TABLE t (k str, v float)")
        >>> _ = db.sql("INSERT INTO t VALUES ('a', 1.0), ('b', 2.0)")
        >>> db.sql("SELECT k, v FROM t").rows()
        [('a', 1.0), ('b', 2.0)]
        """
        return self._table.value_tuples()

    def scalar(self):
        """The single cell of a one-row, one-column result.

        Raises ``ValueError`` with the actual shape otherwise — the
        guard-rail for aggregate queries that grew a GROUP BY.

        Example
        -------
        >>> from repro import PIPDatabase
        >>> db = PIPDatabase()
        >>> _ = db.sql("CREATE TABLE t (k str, v float)")
        >>> _ = db.sql("INSERT INTO t VALUES ('a', 1.0), ('b', 2.0)")
        >>> db.sql("SELECT expected_sum(v) FROM t").scalar()
        3.0
        """
        table = self._table
        if len(table) != 1 or len(table.schema) != 1:
            raise ValueError(
                "scalar() needs a 1x1 result, have %d row(s) x %d column(s)"
                % (len(table), len(table.schema))
            )
        return table.value_tuples()[0][0]

    def to_ctable(self):
        """The underlying c-table, row conditions intact.

        Use this to keep working symbolically: ``db.register(name,
        result)`` and ``db.materialize(name, result)`` accept the
        ResultSet directly and unwrap it through this method.  (A result
        whose cells are still held as columns builds its rows here.)
        """
        return self._table.materialize()

    @property
    def schema(self):
        """The result's :class:`~repro.ctables.schema.Schema`."""
        return self._table.schema

    @property
    def columns(self):
        """Output column names, in declaration order."""
        return self._table.schema.names

    def column_values(self, name):
        """All values of one column, as a list (row order preserved)."""
        return self._table.column_values(name)

    def __len__(self):
        return len(self._table)

    def __iter__(self):
        return iter(self._table.rows)

    def __bool__(self):
        return True  # empty results are still results

    # -- metadata ------------------------------------------------------------------

    def estimate(self, column=None, row=0):
        """The :class:`CellEstimate` for one cell.

        Parameters
        ----------
        column:
            Output column name; default: the only estimated column of the
            row (first recorded wins when several exist).
        row:
            Result row index (default 0), addressing the *final* row
            order the caller sees.

        Returns
        -------
        CellEstimate or None
            ``None`` when the cell has no recorded estimate (deterministic
            cells, or provenance dropped by an ambiguous operator above).

        Example
        -------
        >>> from repro import PIPDatabase
        >>> db = PIPDatabase()
        >>> _ = db.sql("CREATE TABLE t (k str, v float)")
        >>> _ = db.sql("INSERT INTO t VALUES ('a', 1.0)")
        >>> result = db.sql("SELECT expected_sum(v) AS s FROM t")
        >>> result.estimate("s").exact
        True
        """
        candidates = [e for e in self.estimates if e.row_index == row]
        if column is not None:
            candidates = [e for e in candidates if e.column == column]
        if not candidates:
            return None
        return candidates[0]

    # -- rendering -----------------------------------------------------------------

    def pretty(self, max_rows=25, with_estimates=False):
        """A formatted table string.

        Parameters
        ----------
        max_rows:
            Truncate the rendering after this many rows.
        with_estimates:
            Append an ``-- estimates --`` footer listing the recorded
            :class:`CellEstimate` entries.
        """
        text = self._table.pretty(max_rows=max_rows)
        if with_estimates and self.estimates:
            lines = [text, "-- estimates --"]
            lines.extend("  %r" % (e,) for e in self.estimates[:max_rows])
            text = "\n".join(lines)
        return text

    def explain(self):
        """Render the logical plan that produced this result (the same
        operator tree ``db.sql(..., explain=True)`` shows)."""
        if self.plan is None:
            return "<no plan recorded>"
        return self.plan.explain()

    # -- wire format ---------------------------------------------------------------

    def to_payload(self, include_rows=True):
        """This result as a versioned, JSON-serializable envelope.

        The inverse of :meth:`from_payload`; the round trip is
        bit-identical for rows, row conditions, estimate metadata
        (including confidence intervals) and :attr:`stats` — the
        contract the network service layer (``docs/server.md``) is built
        on.  The logical plan is *not* carried (it references live
        database objects); :meth:`from_payload` results render
        ``explain()`` as unrecorded.

        ``cells`` is one JSON array per output column; ``conditions`` maps
        a row index to its non-TRUE condition.  ``include_rows=False`` omits
        both — the server sends those separately, in chunks, so a large
        result is never materialised as one message.

        Example
        -------
        >>> from repro import PIPDatabase
        >>> db = PIPDatabase()
        >>> _ = db.sql("CREATE TABLE t (k str, v float)")
        >>> _ = db.sql("INSERT INTO t VALUES ('a', 1.0), ('b', 2.5)")
        >>> payload = db.sql("SELECT k, v FROM t").to_payload()
        >>> payload["version"], payload["cells"]
        (2, [['a', 'b'], [1.0, 2.5]])
        >>> ResultSet.from_payload(payload).rows()
        [('a', 1.0), ('b', 2.5)]
        """
        from repro.engine import wire

        payload = {
            "version": wire.WIRE_VERSION,
            "columns": [
                [column.name, column.ctype]
                for column in self._table.schema.columns
            ],
            "estimates": [wire.encode_estimate(e) for e in self.estimates],
            "stats": wire.encode_stats(self.stats),
        }
        if include_rows:
            payload["cells"], conditions = self._chunk(0, len(self._table))
            if conditions:
                payload["conditions"] = conditions
        return payload

    def _chunk(self, start, stop):
        """Rows ``[start, stop)`` in wire form (:meth:`iter_row_chunks`)."""
        from repro.engine import wire

        table = self._table
        cells = list(map(wire.encode_column, table.cell_columns(start, stop)))
        if table.held:
            return cells, None
        conditions = {
            str(offset): wire.encode_value(row.condition)
            for offset, row in enumerate(table.rows[start:stop])
            if not row.condition.is_true
        }
        return cells, conditions or None

    def iter_row_chunks(self, chunk_size=512):
        """Yield ``(cells, conditions)`` wire chunks of at most
        ``chunk_size`` rows — the streaming half of :meth:`to_payload`.

        ``cells`` is one encoded list per column; ``conditions`` maps the
        *chunk-local* row index (as a string, JSON keys) to the encoded
        non-TRUE row condition, or is ``None`` when all are TRUE.
        """
        chunk_size = max(1, int(chunk_size))
        for start in range(0, len(self._table), chunk_size):
            yield self._chunk(start, start + chunk_size)

    @classmethod
    def from_payload(cls, payload):
        """Rebuild a :class:`ResultSet` from :meth:`to_payload` output.

        Raises :class:`~repro.util.errors.WireFormatError` on an
        unsupported envelope version or cells that are not one array per
        column, ``SchemaError`` where adding the rows one by one would.
        Only decode payloads from a trusted peer (symbolic cells travel as
        pickle blobs).
        """
        from repro.ctables.schema import Schema
        from repro.ctables.table import CTable
        from repro.engine import wire
        from repro.symbolic.conditions import TRUE

        wire.check_version(payload)
        table = CTable(Schema([tuple(pair) for pair in payload["columns"]]))
        columns = wire.decode_columns(
            payload.get("cells", [[] for _ in table.schema.columns])
        )
        table.check_columns(columns)
        conditions = payload.get("conditions")
        if conditions:
            for index, values in enumerate(zip(*columns)):
                condition = conditions.get(str(index))
                table.add_row(
                    values, TRUE if condition is None else wire.decode_value(condition)
                )
        else:
            table = CTable.from_columns(table.schema, columns)
        return cls(
            table,
            plan=None,
            estimates=[
                wire.decode_estimate(e) for e in payload.get("estimates", ())
            ],
            stats=wire.decode_stats(payload.get("stats")),
        )

    def __repr__(self):
        return "<ResultSet %d row(s) x %d column(s)%s>" % (
            len(self._table),
            len(self._table.schema),
            (", %d estimate(s)" % len(self.estimates)) if self.estimates else "",
        )
