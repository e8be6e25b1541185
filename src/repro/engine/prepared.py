"""Prepared statements: parse + plan once, re-bind and execute many times.

The monitoring workloads the sample bank was built for (PR 1) issue the
same query shape over and over with different bindings — exactly the
Υ-DB hypothesis-management pattern.  ``db.prepare()`` moves the whole
front half of the pipeline (lex, parse, DNF rewrite, lowering, the
optimizer passes) out of the loop::

    stmt = db.prepare("SELECT expected_sum(mw) FROM output WHERE site = :site")
    for site in sites:
        result = stmt.run(site=site)          # bind + execute only

Re-execution re-folds constants after binding (a bound parameter can
decide a predicate) but never re-parses or re-plans; together with a
warm sample bank this is the amortized fast path measured by
``benchmarks/test_prepared_reuse.py``.
"""

from time import perf_counter, time

from repro.engine.plan import (
    CreateTable,
    DeleteRows,
    DropTable,
    Explain,
    InsertRows,
    Scan,
    TransactionControl,
    UpdateRows,
    bind_params,
    collect_params,
)
from repro.engine.planner import plan_sql
from repro.engine.results import ExecContext, QueryStats, ResultSet
from repro.obs.history import VIRTUAL_TABLES
from repro.obs.logs import collapse_statement, plan_digest
from repro.obs.trace import current_trace_id


def is_relational(plan):
    """Whether a plan produces a query result (vs DDL/DML side effects).

    EXPLAIN is excluded: it yields a rendered string, not a c-table, so
    wrapping it in a :class:`ResultSet` would lie about its shape.
    """
    return not isinstance(
        plan,
        (
            CreateTable,
            InsertRows,
            DropTable,
            DeleteRows,
            UpdateRows,
            TransactionControl,
            Explain,
        ),
    )


def _scans_virtual(plan):
    """Whether any Scan in the plan reads a virtual-catalog table."""
    return any(
        isinstance(node, Scan) and node.table_name in VIRTUAL_TABLES
        for node in plan.walk()
    )


class PreparedStatement:
    """A cached logical plan with ``:name`` parameter slots.

    Instances are immutable and reusable; each :meth:`run` binds a fresh
    parameter set against the cached plan and executes.  Statements
    without parameters simply skip the binding step.
    """

    __slots__ = ("db", "text", "plan", "param_names")

    def __init__(self, db, text):
        self.db = db
        self.text = text
        telemetry = getattr(db, "telemetry", None)
        if telemetry is not None and telemetry.tracer.enabled:
            # Split the front half into spans; plan_sql() is exactly this
            # composition, so both paths produce the same plan object.
            from repro.engine.parser import parse_sql
            from repro.engine.planner import optimize, plan_statement

            tracer = telemetry.tracer
            with tracer.span("parse"):
                statement = parse_sql(text, allow_unbound=True)
            with tracer.span("plan"):
                plan = plan_statement(statement)
            with tracer.span("rewrite"):
                plan = optimize(plan)
            self.plan = plan
        else:
            self.plan = plan_sql(text)
        self.param_names = frozenset(collect_params(self.plan))

    def bind(self, params=None, **named):
        """The executable plan for one parameter set.

        One tree walk (see :func:`bind_params`): parameter substitution
        and predicate re-folding fuse into a single bottom-up pass, with
        the cached parameter-name set skipping the collection walk.

        Parameters
        ----------
        params:
            Mapping of parameter name → value (no leading colon).
        named:
            The same bindings as keyword arguments; they override
            ``params`` on collision.

        Returns
        -------
        PlanNode
            A bound plan, ready for the executor (missing or unknown
            names raise ``PlanError``).
        """
        merged = dict(params or {})
        merged.update(named)
        return bind_params(self.plan, merged, param_names=self.param_names)

    def run(self, params=None, **named):
        """Bind and execute against the cached plan.

        Parameters
        ----------
        params / named:
            ``:name`` bindings, as in :meth:`bind`.

        Returns
        -------
        ResultSet, CTable, int, or None
            A :class:`~repro.engine.results.ResultSet` for queries, the
            stored table for CREATE/INSERT, the removed-row count for
            DELETE, ``None`` for DROP.

        Example
        -------
        >>> from repro import PIPDatabase
        >>> db = PIPDatabase(seed=1)
        >>> _ = db.sql("CREATE TABLE t (k str, v float)")
        >>> _ = db.sql("INSERT INTO t VALUES ('a', 2.0), ('b', 3.0)")
        >>> stmt = db.prepare("SELECT expected_sum(v) FROM t WHERE k = :k")
        >>> stmt.run(k="a").scalar(), stmt.run(k="b").scalar()
        (2.0, 3.0)
        """
        out, _bound = self.run_with_plan(params, **named)
        return out

    def run_with_plan(self, params=None, **named):
        """Like :meth:`run`, also returning the bound plan that executed.

        The session cursor layer uses the plan to classify outcomes
        (e.g. INSERT row counts) without re-parsing; everyone shares this
        one execute pipeline so ``db.sql`` and ``Session.execute`` can
        never diverge.
        """
        bound = self.bind(params, **named)
        from repro.engine.executor import execute_plan

        db = self.db
        telemetry = getattr(db, "telemetry", None)
        counters = db.sample_bank.stats_counters
        before = (
            counters.hits,
            counters.misses,
            counters.samples_drawn,
            counters.samples_served,
        )
        context = ExecContext()
        qspan = None
        start = perf_counter()
        # Statement-level isolation: read statements share the database's
        # RW lock, autocommit mutations hold it exclusively, transaction
        # control manages its own locking (see PIPDatabase.statement_scope).
        if telemetry is not None and telemetry.tracer.enabled:
            with telemetry.tracer.span(
                "query", statement=self.text.strip()[:120]
            ) as qspan:
                with db.statement_scope(bound):
                    out = execute_plan(db, bound, context)
        else:
            with db.statement_scope(bound):
                out = execute_plan(db, bound, context)
        elapsed = perf_counter() - start
        # The statement's trace id: from the query span when tracing is
        # on, else from any ambient remote context (a server that adopted
        # the client's traceparent with db tracing off).
        trace_id = qspan.trace_id if qspan is not None else current_trace_id()
        if is_relational(bound):
            drawn = counters.samples_drawn - before[2]
            served = counters.samples_served - before[3]
            stats = QueryStats(
                elapsed,
                len(out),
                bank_hits=counters.hits - before[0],
                bank_misses=counters.misses - before[1],
                samples_drawn=drawn,
                samples_reused=max(0, served - drawn),
                trace_id=trace_id,
            )
            if telemetry is not None:
                telemetry.finish_statement(
                    self.text, bound, elapsed, stats, trace_id=trace_id
                )
            self._record_history(db, bound, elapsed, stats, trace_id, qspan)
            return (
                ResultSet(out, plan=bound, estimates=context.estimates, stats=stats),
                bound,
            )
        if telemetry is not None:
            telemetry.finish_statement(
                self.text, bound, elapsed, None, trace_id=trace_id
            )
        return out, bound

    def _record_history(self, db, bound, elapsed, stats, trace_id, qspan):
        """File the finished statement in ``db.history`` (best-effort)."""
        history = getattr(db, "history", None)
        if history is None or not history.enabled:
            return
        if _scans_virtual(bound):
            return  # reading the history must not grow the history
        history.record({
            "ts": time(),
            "statement": collapse_statement(self.text),
            "plan": plan_digest(bound),
            "trace_id": trace_id or "",
            "elapsed": elapsed,
            "rows": stats.rows,
            "bank_hits": stats.bank_hits,
            "bank_misses": stats.bank_misses,
            "samples_drawn": stats.samples_drawn,
            "samples_reused": stats.samples_reused,
            "operators": qspan.summary() if qspan is not None else "",
        })

    __call__ = run

    def explain(self, params=None, **named):
        """Render the cached operator tree.

        With bindings the bound (re-folded) plan is shown — a parameter
        can decide a predicate and change the tree; without, the template
        with its ``:name`` slots.
        """
        if params or named:
            return self.bind(params, **named).explain()
        return self.plan.explain()

    def analyze(self, params=None, **named):
        """Execute with per-operator profiling; returns the rendered tree.

        The bound plan is wrapped in (or re-tagged as) an ANALYZE
        :class:`~repro.engine.plan.Explain` node, so the child executes
        exactly as :meth:`run` would — same locks, same sampling — with a
        :class:`~repro.engine.results.PlanProfile` observing each node.
        """
        from repro.util.errors import PlanError

        bound = self.bind(params, **named)
        if isinstance(bound, Explain):
            bound = Explain(bound.child, analyze=True)
        elif is_relational(bound):
            bound = Explain(bound, analyze=True)
        else:
            raise PlanError("EXPLAIN ANALYZE applies to queries only")
        from repro.engine.executor import execute_plan

        context = ExecContext()
        with self.db.statement_scope(bound):
            return execute_plan(self.db, bound, context)

    def __repr__(self):
        params = ", ".join(sorted(self.param_names)) or "no params"
        return "<PreparedStatement %r (%s)>" % (self.text.strip()[:48], params)
