"""Fluent relational-algebra query builder.

The Python-side alternative to the SQL front end.  Since the plan-IR
redesign the builder is **lazy**: every chained call extends a logical
plan (:mod:`repro.engine.plan`) — the *same* IR the SQL planner lowers
into — and nothing touches data until a terminal operator or the
:attr:`QueryBuilder.table` property forces execution.  Built plans run
through the standard rewrite passes (predicate pushdown, projection
pruning, constant folding), so fluent queries and SQL queries optimize
and execute identically.

Debuggability is preserved: ``builder.table.pretty()`` materialises (and
caches) the current intermediate result, and ``builder.explain()`` shows
the operator tree with per-node classification.

Example::

    result = (
        db.query("orders", alias="o")
          .join(db.query("shipping", alias="s"), on=[col("o.shipto").eq_(col("s.dest"))])
          .where(col("o.cust").eq_("Joe"), col("s.duration") >= 7)
          .select(("price", col("o.price")))
          .expected_sum("price")
    )
"""

from repro.core import operators as ops
from repro.ctables.table import CTable
from repro.engine import plan as P
from repro.symbolic.atoms import Atom
from repro.symbolic.conditions import Condition, conjunction_of
from repro.util.errors import PlanError


class QueryBuilder:
    """A chainable wrapper around (database, logical plan).

    ``session`` is optional: builders created through
    :meth:`~repro.session.Session.query` carry their session so that lazy
    execution (which may happen long after the creating call returned)
    still runs inside the session's context — reading the session's
    transaction overlay and snapshot instead of the shared state.
    """

    def __init__(self, db, plan, session=None):
        self.db = db
        self.plan = plan
        self.session = session
        self._cached = None

    # -- construction -----------------------------------------------------------

    @classmethod
    def scan(cls, db, name, alias=None, session=None):
        """A builder rooted at stored table ``name`` (what ``db.query``
        calls); ``alias`` prefixes column names (``"o"`` → ``o.price``)."""
        if session is not None:
            with db.activate(session):
                db.table(name)  # fail fast, resolving through the session
        else:
            db.table(name)  # fail fast on unknown names, as the eager API did
        return cls(db, P.Scan(name, alias), session=session)

    @classmethod
    def from_table(cls, db, table):
        """A builder over an in-memory c-table that is not registered."""
        return cls(db, P.TableValue(table))

    def _chain(self, plan):
        return QueryBuilder(self.db, plan, session=self.session)

    # -- execution --------------------------------------------------------------

    @property
    def table(self):
        """The current intermediate result (lossless c-table), cached.

        Execution is lazy: the plan runs (through the standard rewrite
        passes) on first access and the result is cached on this builder.
        """
        if self._cached is None:
            from contextlib import nullcontext

            from repro.engine.executor import execute_plan
            from repro.engine.planner import optimize

            if self.session is not None:
                # Lazy execution may happen long after the creating call:
                # a builder from a closed session must raise SessionError,
                # not silently read whatever state exists now.
                self.session._check_open()
            plan = optimize(self.plan)
            activation = (
                self.db.activate(self.session)
                if self.session is not None
                else nullcontext()
            )
            with activation, self.db.statement_scope(plan):
                self._cached = execute_plan(self.db, plan).materialize()
        return self._cached

    def explain(self):
        """Render the (optimized) operator tree for this chain."""
        from repro.engine.planner import optimize

        return optimize(self.plan).explain()

    # -- relational operators ------------------------------------------------------

    def where(self, *predicates):
        """Conjunctive selection; accepts Atoms and Conditions.

        Predicates over random variables are rewritten into the rows'
        presence conditions (condition-rewriting, never row-dropping —
        unless a deterministic predicate already decides).

        Example
        -------
        >>> from repro import PIPDatabase
        >>> from repro.symbolic import col
        >>> db = PIPDatabase()
        >>> _ = db.sql("CREATE TABLE t (k str, v float)")
        >>> _ = db.sql("INSERT INTO t VALUES ('a', 1.0), ('b', 2.0)")
        >>> db.query("t").where(col("v") >= 2).select("k").table.rows[0].values
        ('b',)
        """
        atoms = []
        condition = None
        for predicate in predicates:
            if isinstance(predicate, Atom):
                atoms.append(predicate)
            elif isinstance(predicate, Condition):
                condition = predicate if condition is None else condition.conjoin(predicate)
            else:
                raise PlanError("where() expects atoms or conditions")
        if condition is None:
            # Pure-atom filters take the DNF form the rewrite passes
            # (pushdown, folding) understand.
            return self._chain(P.Filter(self.plan, disjuncts=(tuple(atoms),)))
        combined = conjunction_of(*atoms)
        return self._chain(P.Filter(self.plan, condition=combined.conjoin(condition)))

    def where_fn(self, fn):
        """Deterministic selection by Python callable on the row mapping
        (column name → value dict); the callable must return a bool."""
        return self._chain(P.Filter(self.plan, fn=fn))

    def join(self, other, on):
        """θ-join against ``other`` (builder, table name, c-table, or
        ResultSet) with ``on`` a sequence of join atoms, e.g.
        ``[col("o.shipto").eq_(col("s.dest"))]``."""
        return self._chain(P.Join(self.plan, self._coerce(other), tuple(on)))

    def product(self, other):
        """Cartesian product with ``other`` (same coercions as join)."""
        return self._chain(P.Product(self.plan, self._coerce(other)))

    def select(self, *items):
        """Projection: column names or ``(alias, expression)`` pairs."""
        return self._chain(P.Project(self.plan, items))

    def distinct(self):
        """Coalesce duplicate rows; their conditions merge into a DNF
        disjunction (the paper's re-entry point for ``aconf``)."""
        return self._chain(P.Distinct(self.plan))

    def union(self, other):
        """Bag union (left schema's column names win)."""
        return self._chain(P.Union(self.plan, self._coerce(other)))

    def difference(self, other):
        """Set difference; right-side matches negate into the left rows'
        conditions (distinct-coalescing)."""
        return self._chain(P.Difference(self.plan, self._coerce(other)))

    def rename(self, mapping):
        """Rename columns by ``{old: new}`` mapping."""
        return self._chain(P.Rename(self.plan, mapping))

    def order_by(self, column, descending=False):
        """Stable sort by a deterministic column; chain calls minor-first
        (the first declared key is primary)."""
        return self._chain(P.OrderBy(self.plan, [(column, descending)]))

    def limit(self, count, offset=0):
        """Keep ``count`` rows starting at ``offset``."""
        return self._chain(P.Limit(self.plan, count, offset))

    def _coerce(self, other):
        if isinstance(other, QueryBuilder):
            return other.plan
        if isinstance(other, str):
            if self.session is not None:
                with self.db.activate(self.session):
                    self.db.table(other)
            else:
                self.db.table(other)
            return P.Scan(other)
        if isinstance(other, CTable):
            return P.TableValue(other)
        if isinstance(other, P.PlanNode):
            return other
        if hasattr(other, "to_ctable"):
            return P.TableValue(other.to_ctable())  # e.g. a ResultSet
        return P.TableValue(other)

    # -- sampling operators (terminal) ------------------------------------------------

    def conf(self, column_name="conf"):
        """Per-row confidence; strips conditions (probability-removing)."""
        return ops.confidence(
            self.table, engine=self.db.engine, options=self.db.options,
            column_name=column_name,
        )

    def aconf(self, column_name="aconf"):
        """Joint probability of duplicate rows (coalesces via distinct
        first — Section V-C's general integration)."""
        return ops.aconf_distinct(
            self.table, engine=self.db.engine, options=self.db.options,
            column_name=column_name,
        )

    def expectation(self, target, column_name="expectation", with_confidence=False):
        """Per-row conditional expectation of ``target`` (column name or
        expression); ``with_confidence`` also emits each row's ``conf``
        and makes the result fully deterministic."""
        return ops.expectation_column(
            self.table,
            target,
            engine=self.db.engine,
            options=self.db.options,
            column_name=column_name,
            with_confidence=with_confidence,
        )

    def expected_sum(self, target, **kwargs):
        """E[Σ target] by linearity; returns an ``AggregateResult``
        (use ``.value`` or ``float(...)``).  Accepts ``options=`` and
        ``scale_by_rows=`` passthroughs.

        Example
        -------
        >>> from repro import PIPDatabase
        >>> db = PIPDatabase()
        >>> _ = db.sql("CREATE TABLE t (k str, v float)")
        >>> _ = db.sql("INSERT INTO t VALUES ('a', 1.0), ('b', 2.0)")
        >>> float(db.query("t").expected_sum("v"))
        3.0
        """
        return ops.expected_sum(
            self.table, target, engine=self.db.engine,
            options=kwargs.pop("options", self.db.options), **kwargs
        )

    def expected_count(self, **kwargs):
        """E[count] = Σ P[row present]."""
        return ops.expected_count(
            self.table, engine=self.db.engine,
            options=kwargs.pop("options", self.db.options), **kwargs
        )

    def expected_avg(self, target, **kwargs):
        """Ratio-of-expectations estimator E[Σ target]/E[count]."""
        return ops.expected_avg(
            self.table, target, engine=self.db.engine,
            options=kwargs.pop("options", self.db.options), **kwargs
        )

    def expected_max(self, target, **kwargs):
        """E[max target] via Example 4.4's sorted scan (world-parallel
        fallback for dependent rows or uncertain targets)."""
        return ops.expected_max(
            self.table, target, engine=self.db.engine,
            options=kwargs.pop("options", self.db.options), **kwargs
        )

    def expected_min(self, target, **kwargs):
        """Mirror of :meth:`expected_max` (ascending scan)."""
        return ops.expected_min(
            self.table, target, engine=self.db.engine,
            options=kwargs.pop("options", self.db.options), **kwargs
        )

    def expected_sum_hist(self, target, n, **kwargs):
        """``n`` sampled values of Σ target (ndarray, per-row semantics)."""
        return ops.expected_sum_hist(
            self.table, target, n, engine=self.db.engine,
            options=kwargs.pop("options", self.db.options), **kwargs
        )

    def expected_max_hist(self, target, n, **kwargs):
        """``n`` sampled values of the table-wide max (ndarray)."""
        return ops.expected_max_hist(
            self.table, target, n, engine=self.db.engine,
            options=kwargs.pop("options", self.db.options), **kwargs
        )

    def group_by(self, *columns):
        """GROUP BY continuation: ``.group_by("k").expected_sum("v")``
        returns a result c-table with one row per group."""
        return GroupedQuery(self.db, self, columns)

    # -- misc --------------------------------------------------------------------------

    def to_ctable(self):
        """The current intermediate result (lossless c-table)."""
        return self.table

    def materialize(self, name):
        """Store the current result as a named view (Section III-A).

        Session-routed: from a `Session.query()` chain inside an open
        transaction, the registration is staged with the transaction (and
        discarded by rollback) instead of applying immediately.
        """
        table = self.table  # execute first (honours session/transaction)
        if self.session is not None:
            with self.db.activate(self.session):
                return self.db.materialize(name, table)
        return self.db.materialize(name, table)

    def __len__(self):
        return len(self.table)

    def __repr__(self):
        return "<QueryBuilder over %r>" % (self.plan,)


class GroupedQuery:
    """GROUP BY continuation: aggregate methods produce result c-tables."""

    def __init__(self, db, source, group_columns):
        self.db = db
        self.source = source
        self.group_columns = list(group_columns)

    @property
    def table(self):
        if isinstance(self.source, QueryBuilder):
            return self.source.table
        return self.source  # bare c-table (legacy construction)

    def _agg(self, kind, target, **kwargs):
        return ops.grouped_aggregate(
            self.table,
            self.group_columns,
            kind,
            target,
            engine=self.db.engine,
            options=kwargs.pop("options", self.db.options),
            **kwargs
        )

    def expected_sum(self, target, **kwargs):
        return self._agg("expected_sum", target, **kwargs)

    def expected_count(self, **kwargs):
        return self._agg("expected_count", None, **kwargs)

    def expected_avg(self, target, **kwargs):
        return self._agg("expected_avg", target, **kwargs)

    def expected_max(self, target, **kwargs):
        return self._agg("expected_max", target, **kwargs)

    def expected_min(self, target, **kwargs):
        return self._agg("expected_min", target, **kwargs)
