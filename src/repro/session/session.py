"""Sessions: the per-caller unit of concurrency and the cursor surface.

``db.connect()`` returns a :class:`Session`.  A session is *not* a new
database — it shares tables, variables, the sample bank and the WAL with
every other session on the same :class:`~repro.core.database.PIPDatabase`
— it is the scope that owns:

* a **DB-API-shaped cursor surface** (:meth:`Session.execute`,
  :meth:`executemany`, :meth:`fetchone` / :meth:`fetchmany` /
  :meth:`fetchall`, :attr:`description`, :attr:`rowcount`), familiar to
  anyone who has used ``sqlite3``;
* the existing conveniences — :meth:`sql`, :meth:`prepare`,
  :meth:`query` — plus the Python mutation API, all routed through the
  session so they participate in its transaction;
* **transactions**: ``with session.transaction():`` (or ``begin()`` /
  ``commit()`` / ``rollback()``, also reachable as SQL ``BEGIN`` /
  ``COMMIT`` / ``ROLLBACK`` statements) with buffered writes, snapshot
  reads, and atomic WAL-framed commits (see
  :mod:`repro.session.transaction`).

Thread discipline: one session per thread (DB-API threadsafety level 1
in spirit) — the *database* is safe to share across threads through
multiple sessions, a single session object is not.  Closed sessions, and
sessions on a closed database, raise
:class:`~repro.util.errors.SessionError` — never ``AttributeError``.
"""

from repro.util.errors import SessionError, TransactionError


class Cursor:
    """A DB-API-shaped cursor over one session.

    Lightweight: all execution state lives in the session/database; the
    cursor only tracks its own fetch position so several cursors on one
    session don't clobber each other's iteration.  ``Session`` itself
    exposes the same surface through an implicit default cursor.
    """

    arraysize = 1

    def __init__(self, session):
        self.session = session
        self._fetched = None  # the result's row tuples, built by the first fetch
        self._position = 0
        self._description = None
        self._rowcount = -1
        self.result = None  # the full ResultSet (estimates, plan) for queries
        self._closed = False

    # -- execution ----------------------------------------------------------------

    def _check_open(self):
        if self._closed:
            raise SessionError("cursor is closed")
        self.session._check_open()

    def execute(self, text, params=None):
        """Run one SQL statement; returns the cursor (chain ``fetch*``)."""
        self._check_open()
        out, plan = self.session._run_statement(text, params)
        self._install(out, plan)
        return self

    def executemany(self, text, param_seq):
        """Run one statement once per parameter set (prepared once).

        ``rowcount`` accumulates across executions for DML — inserted
        rows for INSERT, affected rows for UPDATE/DELETE (the DB-API
        contract); result rows are not retained.
        """
        from repro.engine import plan as P

        self._check_open()
        statement = self.session.prepare(text)
        template = statement.plan
        total = 0
        counted = False
        for params in param_seq:
            out = statement.run(params)
            if isinstance(out, int):
                total += out
                counted = True
            elif isinstance(template, P.InsertRows):
                total += len(template.rows)
                counted = True
        self._reset(total if counted else -1)
        return self

    def _install(self, out, plan):
        from repro.engine import plan as P
        from repro.engine.results import ResultSet

        if isinstance(out, ResultSet):
            self._reset(result=out)
        elif isinstance(out, int):
            self._reset(out)  # DELETE / UPDATE affected-row count
        elif isinstance(plan, P.InsertRows):
            self._reset(len(plan.rows))
        else:
            self._reset()
        return self

    def _reset(self, rowcount=-1, result=None):
        """Forget the last statement; install ``result`` (a ResultSet), or
        just the affected-row count of a statement that returned none."""
        self._fetched = None
        self._position = 0
        self._description = None
        self._rowcount = rowcount
        self.result = result
        if result is not None:
            self._rowcount = len(result)
            self._description = [
                (column.name, column.ctype, None, None, None, None, None)
                for column in result.schema.columns
            ]

    # -- fetching ------------------------------------------------------------------

    @property
    def _rows(self):
        """The last result's rows as tuples — built when first fetched, so
        a statement whose rows are streamed or never read builds none."""
        if self._fetched is None:
            self._fetched = [] if self.result is None else self.result.rows()
        return self._fetched

    @property
    def description(self):
        """DB-API 7-tuples (name, type, …) for the last query, else None."""
        return self._description

    @property
    def rowcount(self):
        """Rows returned (SELECT), affected (INSERT/DELETE/UPDATE), or -1."""
        return self._rowcount

    def fetchone(self):
        """The next result row as a plain tuple, or ``None`` when done."""
        self._check_open()
        if self._position >= len(self._rows):
            return None
        row = self._rows[self._position]
        self._position += 1
        return row

    def fetchmany(self, size=None):
        """Up to ``size`` rows (default :attr:`arraysize`)."""
        self._check_open()
        if size is None:
            size = self.arraysize
        chunk = self._rows[self._position : self._position + size]
        self._position += len(chunk)
        return chunk

    def fetchall(self):
        """Every remaining row of the last result."""
        self._check_open()
        chunk = self._rows[self._position :]
        self._position = len(self._rows)
        return chunk

    def __iter__(self):
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    def close(self):
        """Release the cursor (idempotent; the session stays open)."""
        self._closed = True
        self._fetched = None
        self.result = None

    def __repr__(self):
        state = "closed" if self._closed else "%d rows" % (
            0 if self.result is None else len(self.result),
        )
        return "<%s (%s)>" % (type(self).__name__, state)


class SessionStatement:
    """A prepared statement bound to a session.

    Wraps :class:`~repro.engine.prepared.PreparedStatement` so repeated
    runs execute inside the session's context — honouring its open
    transaction and refusing after close — while keeping the
    parse-once/bind-many fast path.
    """

    __slots__ = ("session", "_statement")

    def __init__(self, session, statement):
        self.session = session
        self._statement = statement

    @property
    def text(self):
        return self._statement.text

    @property
    def plan(self):
        """The cached (template) logical plan."""
        return self._statement.plan

    @property
    def param_names(self):
        return self._statement.param_names

    def run(self, params=None, **named):
        self.session._check_open()
        with self.session.db.activate(self.session):
            return self._statement.run(params, **named)

    __call__ = run

    def explain(self, params=None, **named):
        return self._statement.explain(params, **named)

    def __repr__(self):
        return "<SessionStatement %r>" % (self._statement.text.strip()[:48],)


class Session:
    """One caller's handle on a shared :class:`PIPDatabase`.

    Create with :meth:`PIPDatabase.connect`; usable as a context manager
    (``with db.connect() as session:`` closes — rolling back any open
    transaction — on exit).
    """

    def __init__(self, db):
        self.db = db
        self._closed = False
        self._transaction = None
        self._cursor = Cursor(self)

    # -- lifecycle ----------------------------------------------------------------

    def _check_open(self):
        if self._closed:
            raise SessionError(
                "session is closed; open a new one with db.connect()"
            )
        if self.db.is_closed:
            raise SessionError(
                "the database behind this session is closed; reopen it "
                "before executing statements"
            )

    @property
    def closed(self):
        return self._closed

    def close(self):
        """Close the session (idempotent).

        An open transaction is **rolled back** — staged writes are
        discarded, exactly as if the process had died before commit.
        Further ``execute()`` calls raise :class:`SessionError`.
        """
        if self._closed:
            return
        if self._transaction is not None and self._transaction.is_active:
            self._transaction.rollback()
        self._transaction = None
        self._closed = True
        self.db._sessions.discard(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    # -- transactions ---------------------------------------------------------------

    @property
    def current_transaction(self):
        """The open :class:`Transaction`, or ``None`` in autocommit."""
        return self._transaction

    @property
    def in_transaction(self):
        return self._transaction is not None

    def begin(self):
        """Open a transaction; returns the :class:`Transaction`.

        Nested transactions are rejected with :class:`TransactionError`
        (there are no savepoints — commit or roll back first).
        """
        from repro.session.transaction import Transaction

        self._check_open()
        if self._transaction is not None:
            raise TransactionError(
                "a transaction is already open on this session; nested "
                "transactions are not supported"
            )
        self._transaction = Transaction(self)
        return self._transaction

    def transaction(self):
        """``with session.transaction():`` — begin now, commit on clean
        exit, roll back when the body raises."""
        return self.begin()

    def commit(self):
        """Commit the open transaction (:class:`TransactionError` if none)."""
        self._check_open()
        if self._transaction is None:
            raise TransactionError("no transaction is open on this session")
        self._transaction.commit()

    def rollback(self):
        """Roll back the open transaction (:class:`TransactionError` if none)."""
        self._check_open()
        if self._transaction is None:
            raise TransactionError("no transaction is open on this session")
        self._transaction.rollback()

    def _finish_transaction(self, txn):
        if self._transaction is txn:
            self._transaction = None

    # -- statement execution --------------------------------------------------------

    def _run_statement(self, text, params):
        """Parse/plan/execute one statement inside this session's context;
        returns ``(outcome, bound_plan)``.  One shared pipeline with
        ``db.sql`` — see :meth:`PreparedStatement.run_with_plan`."""
        from repro.engine.prepared import PreparedStatement

        with self.db.activate(self):
            return PreparedStatement(self.db, text).run_with_plan(params)

    # -- the cursor surface (delegating to an implicit default cursor) -------------

    def cursor(self):
        """A fresh :class:`Cursor` (independent fetch position)."""
        self._check_open()
        return Cursor(self)

    def execute(self, text, params=None):
        """Run one SQL statement on the default cursor; returns it.

        Example
        -------
        >>> from repro import PIPDatabase
        >>> session = PIPDatabase().connect()
        >>> _ = session.execute("CREATE TABLE t (k str, v float)")
        >>> session.execute("INSERT INTO t VALUES ('a', 1.0), ('b', 2.0)").rowcount
        2
        >>> cursor = session.execute("SELECT k, v FROM t")
        >>> cursor.fetchone()
        ('a', 1.0)
        >>> cursor.fetchall()
        [('b', 2.0)]
        """
        self._check_open()
        return self._cursor.execute(text, params)

    def executemany(self, text, param_seq):
        """Prepared repetition of one statement; see :meth:`Cursor.executemany`."""
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
        """The last statement's full :class:`ResultSet` (or ``None``)."""
        return self._cursor.result

    # -- conveniences (the pre-session surface, session-routed) ---------------------

    def sql(self, text, params=None, explain=False):
        """Like :meth:`PIPDatabase.sql`, inside this session's context."""
        self._check_open()
        with self.db.activate(self):
            return self.db.sql(text, params=params, explain=explain)

    def prepare(self, text):
        """Parse + plan once; returns a session-bound prepared statement."""
        from repro.engine.prepared import PreparedStatement

        self._check_open()
        with self.db.activate(self):
            return SessionStatement(self, PreparedStatement(self.db, text))

    def query(self, name, alias=None):
        """Fluent builder rooted at a stored table, session-routed (lazy
        execution still sees this session's transaction overlay)."""
        from repro.engine.builder import QueryBuilder

        self._check_open()
        return QueryBuilder.scan(self.db, name, alias=alias, session=self)

    builder = query

    # Python mutation/catalog API, routed through the session so calls
    # inside an open transaction stage instead of applying.

    def _delegate(self, method, *args, **kwargs):
        self._check_open()
        with self.db.activate(self):
            return method(*args, **kwargs)

    def table(self, name):
        return self._delegate(self.db.table, name)

    def create_table(self, name, columns):
        return self._delegate(self.db.create_table, name, columns)

    def drop_table(self, name):
        return self._delegate(self.db.drop_table, name)

    def insert(self, name, values, condition=None):
        from repro.symbolic.conditions import TRUE

        return self._delegate(
            self.db.insert, name, values, TRUE if condition is None else condition
        )

    def insert_many(self, name, rows, conditions=None):
        return self._delegate(self.db.insert_many, name, rows, conditions)

    def delete(self, name, where=None):
        return self._delegate(self.db.delete, name, where)

    def update(self, name, assignments, where=None):
        return self._delegate(self.db.update, name, assignments, where)

    def register(self, name, table):
        return self._delegate(self.db.register, name, table)

    def materialize(self, name, table):
        return self._delegate(self.db.materialize, name, table)

    def repair_key(self, name, key_columns, probability_column, new_name=None):
        return self._delegate(
            self.db.repair_key, name, key_columns, probability_column, new_name
        )

    def create_variable(self, distribution, params):
        return self._delegate(self.db.create_variable, distribution, params)

    def create_variable_expr(self, distribution, params):
        return self._delegate(self.db.create_variable_expr, distribution, params)

    def register_distribution(self, cls_or_instance, replace=False):
        return self._delegate(
            self.db.register_distribution, cls_or_instance, replace=replace
        )

    def __repr__(self):
        state = "closed" if self._closed else (
            "in transaction" if self.in_transaction else "autocommit"
        )
        return "<Session on %r (%s)>" % (self.db, state)
