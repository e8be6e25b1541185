"""The PIP database façade.

Ties together the c-table store, the variable factory (``CREATE
VARIABLE``), the relational algebra, the SQL front end, the sampling
operators, the durable storage subsystem, and the session/transaction
layer — the role the Postgres plugin plays in Figure 3 of the paper.

Concurrency model (see ``docs/sessions.md``):

* Every statement runs under a statement-level readers/writer lock:
  queries share it, autocommit mutations and transaction commits hold it
  exclusively.  Concurrent reader sessions therefore never observe a
  half-applied write.
* Every mutation entry point below resolves its arguments, builds one
  logical record (:mod:`repro.storage.records`) and hands it to the
  active sink.  Inside an explicit transaction of a ``db.connect()``
  :class:`~repro.session.Session` that is the transaction: the record is
  applied to private copy-on-write tables, buffered, and only reaches the
  shared catalog — atomically, under the write lock, framed in the WAL —
  at ``commit()``.
* Direct calls (``db.sql(...)``, ``db.insert(...)``) are the implicit
  autocommit path: the sink is this database under the write lock —
  apply to the stored tables in place, journal one unframed WAL record
  per mutation, fire sample-bank watchers per row.
"""

import os
import threading
import weakref
from contextlib import contextmanager, suppress

from repro.columnar import ops as cops
from repro.ctables.explode import repair_key as _repair_key
from repro.ctables.table import CTable
from repro.obs.history import VIRTUAL_TABLES as _VIRTUAL_TABLES
from repro.parallel import ParallelSampleScheduler
from repro.samplebank import SampleBank
from repro.sampling.expectation import ExpectationEngine
from repro.sampling.options import SamplingOptions
from repro.storage import records
from repro.symbolic.conditions import Condition, TRUE, conjunction_at
from repro.symbolic.expression import Expression, var
from repro.symbolic.variables import VariableFactory
from repro.util.errors import PlanError, SchemaError, SessionError, StorageError
from repro.util.rwlock import RWLock


def _as_ctable(table):
    """Unwrap anything carrying a c-table behind ``to_ctable()``."""
    if not isinstance(table, CTable) and hasattr(table, "to_ctable"):
        return table.to_ctable()
    return table


def _write(sink, record):
    """Apply ``record`` to ``sink``'s catalog, then have it logged there."""
    result = records.apply(record, sink)
    sink.log_record(record)
    return result


class PIPDatabase:
    """An in-process PIP instance.

    Parameters
    ----------
    seed:
        Base seed for every sampling operation; two databases built with
        the same seed and workload produce identical estimates.
    options:
        Default :class:`~repro.sampling.options.SamplingOptions`.
    telemetry:
        A :class:`~repro.obs.Telemetry` instance, or ``None`` for the
        environment-driven default (``PIP_TRACE`` / ``PIP_METRICS`` /
        ``PIP_SLOW_QUERY_MS``; metrics on, tracing off).  Telemetry only
        *observes* — it never touches RNG streams, sampling order, or
        lock scopes — so enabling it cannot change query results.
    """

    def __init__(self, seed=0, options=None, telemetry=None):
        from repro.obs import Telemetry
        from repro.obs.history import QueryHistory
        from repro.obs.telemetry import _env_flag

        self.telemetry = telemetry if telemetry is not None else Telemetry.from_env()
        # The query-profile history behind the ``pip_query_history``
        # virtual table (in-memory ring; :meth:`open` attaches the disk
        # tier).  ``PIP_QUERY_HISTORY=0`` turns recording off.
        self.history = QueryHistory(enabled=_env_flag("PIP_QUERY_HISTORY", True))
        self.tables = {}
        self.factory = VariableFactory()
        self.options = options or SamplingOptions()
        self.sample_bank = SampleBank.from_options(self.options, base_seed=seed)
        self.sample_bank.telemetry = self.telemetry
        # The parallel sampling scheduler is always attached but inert
        # until options ask for workers (parallel_workers > 0 / "auto");
        # its pool starts lazily on the first parallel prefetch.
        self.scheduler = ParallelSampleScheduler(self.sample_bank)
        self.scheduler.telemetry = self.telemetry
        self.engine = ExpectationEngine(
            options=self.options,
            base_seed=seed,
            bank=self.sample_bank,
            scheduler=self.scheduler,
        )
        self.engine.telemetry = self.telemetry
        self.seed = seed
        # Durable storage (attached by :meth:`open`); ``None`` keeps every
        # mutation in-memory-only, exactly the pre-durability behaviour.
        self._durability = None
        # Distribution instances registered through this database (beyond
        # the built-ins), snapshotted so recovery can re-register them.
        self._journaled_distributions = {}
        # -- session/transaction state (see module docstring) -----------------
        # Statement-level readers/writer lock: queries share, mutations and
        # commits exclude.
        self._rwlock = RWLock()
        # The session whose statement is executing on this thread, if any;
        # set by Session/builder activation, consulted by table() and every
        # mutation entry point to route through the transaction overlay.
        self._exec_context = threading.local()
        # Live sessions (weak: an abandoned session must not pin the db).
        self._sessions = weakref.WeakSet()
        # Per-table commit counters for first-committer-wins conflict
        # detection; bumped by every committed mutation of a name.
        self._table_versions = {}
        self._txn_lock = threading.Lock()
        self._next_txn_id = 1
        self._closed = False
        # Gauges read live database state through a weakref; binding last
        # so every attribute they sample already exists.
        self.telemetry.bind(self)

    @classmethod
    def open(cls, path, durable=True, seed=None, options=None, telemetry=None):
        """Open (or create) a durable database rooted at directory ``path``.

        A fresh directory is initialised with the database identity
        (``pip.json``), an empty write-ahead log, and a sample-bank spill
        directory; an existing one is **recovered**: the newest loadable
        snapshot is restored and the WAL tail replayed, so tables,
        variables, registered distributions and query results come back
        bit-identical — and the sample bank warm-starts from its spilled
        bundles (see ``docs/durability.md``).

        Parameters
        ----------
        path:
            Database directory (created if missing).
        durable:
            With ``True`` (default) every mutation is journaled to the
            WAL before :meth:`close`/:meth:`checkpoint` make it
            snapshot-visible.  ``False`` recovers existing state but
            journals nothing — a read-mostly inspection handle.
        seed:
            Base sampling seed.  Recorded in ``pip.json`` on first
            creation; on reopen the stored seed wins and passing a
            *different* one raises :class:`StorageError` (bank keys and
            sample streams are seed-addressed, so silently switching
            would break warm restart and reproducibility).
        options:
            Default :class:`SamplingOptions`; ``bank_spill_dir`` is
            forced to the database's own ``bank/`` directory so spilled
            bundles survive restarts.

        Example
        -------
        >>> import tempfile
        >>> from repro import PIPDatabase
        >>> root = tempfile.mkdtemp()
        >>> with PIPDatabase.open(root, seed=3) as db:
        ...     _ = db.sql("CREATE TABLE t (k str, v float)")
        ...     _ = db.sql("INSERT INTO t VALUES ('a', 1.5)")
        >>> with PIPDatabase.open(root) as db:   # recovered
        ...     db.sql("SELECT k, v FROM t").rows()
        [('a', 1.5)]
        """
        from repro.storage.manager import (
            DurabilityManager,
            bank_dir,
            read_meta,
            write_meta,
        )

        meta = read_meta(path)
        if meta is None:
            seed = 0 if seed is None else seed
            write_meta(path, seed)
        elif seed is None:
            seed = meta["seed"]
        elif seed != meta["seed"]:
            raise StorageError(
                "database at %r was created with seed %r; reopening with "
                "seed %r would break sample reproducibility" % (path, meta["seed"], seed)
            )
        options = (options or SamplingOptions()).replace(bank_spill_dir=bank_dir(path))
        db = cls(seed=seed, options=options, telemetry=telemetry)
        db._durability = DurabilityManager(db, path, durable=durable)
        try:
            db._durability.recover()
        except BaseException:
            # A failed recovery must not leave the directory lock held
            # (or the WAL handle open) by a half-built database object.
            db._durability.wal.close()
            db._durability._release_lock()
            raise
        # Query-profile history persists beside the database (flushed on
        # checkpoint/close, reloaded here); purely observational, so it
        # sits outside the WAL/snapshot recovery contract.
        db.history.attach_dir(os.path.join(path, "obs"))
        return db

    @property
    def is_durable(self):
        """Whether mutations are journaled to a write-ahead log."""
        return self._durability is not None and self._durability.durable

    def _check_writable(self):
        """Reject mutations on a closed durable database *before* they
        touch memory — memory and log must never disagree."""
        if self._durability is not None:
            self._durability.check_writable()

    # -- sessions & transactions -------------------------------------------------

    def connect(self):
        """Open a :class:`~repro.session.Session` on this database.

        Sessions are the concurrency unit: each carries a DB-API-shaped
        cursor surface (``execute``/``executemany``/``fetchone``/
        ``fetchmany``/``fetchall``), the familiar ``sql()``/``prepare()``/
        ``query()`` conveniences, and explicit transactions
        (``with session.transaction():`` or ``begin()``/``commit()``/
        ``rollback()``) with snapshot-isolated reads and buffered writes.
        A session must be used from one thread at a time; open one session
        per thread to share a database.  See ``docs/sessions.md``.

        Example
        -------
        >>> from repro import PIPDatabase
        >>> db = PIPDatabase()
        >>> session = db.connect()
        >>> _ = session.execute("CREATE TABLE t (k str, v float)")
        >>> session.execute("INSERT INTO t VALUES ('a', 1.0)").rowcount
        1
        >>> session.execute("SELECT k, v FROM t").fetchall()
        [('a', 1.0)]
        """
        from repro.session import Session

        if self._closed:
            raise SessionError("database is closed; cannot open new sessions")
        session = Session(self)
        self._sessions.add(session)
        return session

    @property
    def is_closed(self):
        """Whether :meth:`close` has been called (sessions refuse to run)."""
        return self._closed

    @contextmanager
    def activate(self, session):
        """Run the body with ``session`` as this thread's execution context.

        While active, :meth:`table` and every mutation entry point route
        through the session's open transaction (overlay reads, staged
        writes).  Contexts nest and restore on exit, so a session
        executing inside another session's scope is impossible to confuse.
        """
        previous = getattr(self._exec_context, "session", None)
        self._exec_context.session = session
        try:
            yield
        finally:
            self._exec_context.session = previous

    def _current_session(self):
        return getattr(self._exec_context, "session", None)

    def _current_transaction(self):
        session = self._current_session()
        if session is None:
            return None
        return session.current_transaction

    def _allocate_txn_id(self):
        with self._txn_lock:
            txn_id = self._next_txn_id
            self._next_txn_id += 1
            return txn_id

    def table_version(self, name):
        """Commit counter for ``name`` (0 for never-committed names)."""
        return self._table_versions.get(name, 0)

    def _bump_version(self, name):
        self._table_versions[name] = self._table_versions.get(name, 0) + 1

    @contextmanager
    def _write_sink(self, name=None):
        """Where a mutation (of table ``name``) goes: the open transaction
        (its overlay; no lock), or this database under the write lock —
        refusing, before memory is touched, when the log could not take
        the record.  Compound operations hold it from read to write."""
        if name in _VIRTUAL_TABLES:  # a stored one would be unreachable
            raise SchemaError(
                "%r is a read-only virtual table; it cannot be created, "
                "dropped or mutated" % (name,)
            )
        txn = self._current_transaction()
        if txn is not None:
            txn._check_active("mutate through")
            yield txn
        else:
            with self._rwlock.write():
                self._check_writable()
                yield self

    @contextmanager
    def statement_scope(self, plan):
        """The lock scope for executing one (bound) logical plan.

        Mutating plans in autocommit hold the write lock for the whole
        statement; everything else — queries, and *any* statement inside
        an open transaction (whose mutations only touch the private
        overlay) — shares the read lock.  Transaction control manages its
        own locking (COMMIT takes the write lock internally; wrapping it
        here would deadlock).
        """
        from repro.engine import plan as P

        if isinstance(plan, P.TransactionControl):
            yield
            return
        writes = isinstance(
            plan,
            (P.CreateTable, P.InsertRows, P.DropTable, P.DeleteRows, P.UpdateRows),
        )
        if writes and self._current_transaction() is None:
            with self._rwlock.write():
                yield
        else:
            with self._rwlock.read():
                yield

    def run_transaction_control(self, kind):
        """Execute a SQL ``BEGIN``/``COMMIT``/``ROLLBACK`` for the session
        currently active on this thread (raises :class:`PlanError` when
        the statement was issued outside any session)."""
        session = self._current_session()
        if session is None:
            raise PlanError(
                "%s requires a session; use db.connect() and run the "
                "statement through Session.execute()" % (kind.upper(),)
            )
        if kind == "begin":
            session.begin()
        elif kind == "commit":
            session.commit()
        elif kind == "rollback":
            session.rollback()
        else:
            raise PlanError("unknown transaction control %r" % (kind,))

    def checkpoint(self):
        """Write a snapshot checkpoint and truncate the write-ahead log.

        Recovery cost is proportional to the WAL tail past the newest
        snapshot, so long-lived databases should checkpoint periodically.
        Also flushes the sample bank to its spill tier.  Returns the
        snapshot path; raises :class:`StorageError` on a database that
        was not opened with :meth:`open`.
        """
        if self._durability is None:
            raise StorageError(
                "checkpoint() requires a durable database; use PIPDatabase.open(path)"
            )
        # Exclusive: a snapshot must never interleave with a statement or
        # with a commit's WAL frame.
        with self._rwlock.write():
            return self._durability.checkpoint()

    def close(self):
        """Flush durable state and release pooled resources.

        Idempotent.  Open sessions are closed first — any transaction
        still open **rolls back** (its staged writes are discarded, never
        flushed), so close() at the end of a ``with`` block cannot
        silently commit half a unit of work.  For a durable database this
        then flushes and fsyncs the write-ahead log, persists the sample
        bank's in-memory bundles to the spill tier, and closes the log —
        after which further mutations raise :class:`StorageError`
        (queries still work).  For an in-memory database it releases the
        parallel worker pool, which restarts lazily if direct querying
        continues; sessions, however, refuse to run after close
        (:class:`~repro.util.errors.SessionError`).

        Example
        -------
        >>> from repro import PIPDatabase
        >>> db = PIPDatabase(seed=0)
        >>> db.close()
        >>> db.close()  # idempotent
        """
        # Exclusive: close must not race an in-flight statement — a writer
        # mid-journal would find the WAL handle gone (memory/log diverging
        # without poisoning), and another session's staging would race its
        # own rollback.  The write lock drains every running statement
        # first; statements arriving after it see the closed state.
        with self._rwlock.write():
            for session in list(self._sessions):
                session.close()
            self._closed = True
            self.scheduler.close()
            if self._durability is not None:
                self._durability.close()
            self.history.flush()
        # Outside the lock: the exporter thread may be mid-batch and its
        # shutdown never needs database state.
        self.telemetry.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        # Flush even when the body raised: everything journaled before the
        # exception is durable, exactly like a crash after the last append.
        self.close()

    # -- DDL ------------------------------------------------------------------

    def create_table(self, name, columns):
        """CREATE TABLE: register an empty c-table.

        Parameters
        ----------
        name:
            Table name; creating an existing name raises ``SchemaError``.
        columns:
            Sequence of ``(column_name, type_name)`` pairs (types are
            advisory: ``"int"``, ``"float"``, ``"str"``, ``"any"``).

        Returns
        -------
        CTable
            The empty stored table (also reachable via :meth:`table`).

        Example
        -------
        >>> from repro import PIPDatabase
        >>> db = PIPDatabase()
        >>> db.create_table("t", [("k", "str"), ("v", "float")])
        <CTable t: 2 cols, 0 rows>
        """
        with self._write_sink(name) as sink:
            return _write(sink, records.create_table(name, columns))

    def drop_table(self, name):
        """DROP TABLE; unknown names raise (matching :meth:`table`).

        Sample-bank entries depending on the dropped table's variables are
        invalidated — its rows can no longer anchor a query, so their
        groups' cached samples are dead weight.

        Parameters
        ----------
        name:
            Name of a stored table; ``SchemaError`` if unknown.
        """
        with self._write_sink(name) as sink:
            _write(sink, records.drop_table(name))

    def register(self, name, table):
        """Register an existing c-table (used by generators and views).

        Accepts a bare :class:`CTable` or anything carrying one behind
        ``to_ctable()`` (a :class:`~repro.engine.results.ResultSet`, a
        :class:`~repro.engine.builder.QueryBuilder`), so query results
        register directly: ``db.register("view", db.sql(...))``.

        Parameters
        ----------
        name:
            Name to store under; replacing an existing name behaves like
            drop + create (bank invalidation fires for the replaced
            table's variables).
        table:
            A c-table, or any object with ``to_ctable()``.

        Returns
        -------
        CTable
            The stored table, renamed to ``name``.
        """
        table = _as_ctable(table)
        with self._write_sink(name) as sink:
            source = sink.bind_table(name, table)
            if source is None:
                # The caller's object *is* the table; its record is the
                # transcript of what the sink bound (and named).
                sink.log_record(records.register(name, table))
            else:
                # Already durable under another name: the record is a
                # reference, so recovery preserves the shared identity.
                sink.log_record(records.register_alias(name, source))
            return table

    def table(self, name):
        """The stored :class:`CTable` called ``name``.

        Raises ``SchemaError`` (listing the known names) when absent.
        Virtual-catalog names (:data:`~repro.obs.history.VIRTUAL_TABLES`,
        currently ``pip_query_history``) resolve first, to a fresh
        materialisation built per call — they are read-only and bypass the
        transaction overlay.  Inside an open transaction (statements
        routed through a :class:`~repro.session.Session`), resolution of
        stored names goes through the transaction's snapshot and overlay
        instead: the session reads its own staged writes plus the table
        objects captured at ``begin()`` (transactional commits by others
        swap objects and stay invisible; in-place *autocommit* mutations
        by others remain visible — see :mod:`repro.session.transaction`
        for the exact contract).
        """
        if name in _VIRTUAL_TABLES:
            return self.history.as_table(name)
        txn = self._current_transaction()
        return (self if txn is None else txn).resolve_table(name)

    # -- the shared catalog as records.apply sees it (a Transaction: its overlay) --

    def resolve_table(self, name):
        """The stored table ``name``, whatever transaction is open."""
        try:
            return self.tables[name]
        except KeyError:
            known = ", ".join(sorted(self.tables))
            raise SchemaError("no table %r (have: %s)" % (name, known)) from None

    #: Autocommit mutates stored tables in place.
    writable_table = resolve_table

    def bind_table(self, name, table):
        """Returns another stored name already bound to this very object
        (the binding is then an alias), if any."""
        replaced = self.tables.get(name)
        if replaced is not None and replaced is not table:
            del self.tables[name]
            self._release_table(replaced)
        table.name = name
        self.tables[name] = table
        self._watch(table)
        return next(
            (n for n, t in self.tables.items() if t is table and n != name), None
        )

    def unbind_table(self, name):
        table = self.resolve_table(name)
        del self.tables[name]
        self._release_table(table)

    def rows_changed(self, rows):
        """Nothing to do: a stored table's watchers already told the bank."""

    def allocate_variable(self, dist_name, params):
        created = self.factory.create(dist_name, params)
        self.factory.mark_durable()  # no later rollback may re-mint it
        return created

    def keep_distribution(self, instance):
        self._journaled_distributions[instance.name.lower()] = instance

    def log_record(self, record):
        """Journal an applied record and bump its table's commit counter."""
        if self._durability is not None:
            self._durability.journal(record)
        name = records.table_name(record)
        if name is not None:
            self._bump_version(name)

    # -- sample-bank plumbing ---------------------------------------------------

    def _watch(self, table):
        """Attach the mutation hook that keeps the sample bank honest.

        The hook is the bank's, not a method of this database: a table
        that pointed back at its database would form a reference cycle,
        and a closed database (tables, bank and all) would stay resident
        until the cyclic collector happened to run.
        """
        watcher = self.sample_bank.on_row_change
        if watcher not in table.watchers:
            table.watchers.append(watcher)

    def _unwatch(self, table):
        try:
            table.watchers.remove(self.sample_bank.on_row_change)
        except ValueError:
            pass

    def _release_table(self, table):
        """A table left the store (drop, or replacement by register).

        Invalidation and unwatching only happen once the object is gone
        from *every* name — a table registered under an alias is still
        live, keeps its watcher, and keeps its cached entries.
        """
        if any(stored is table for stored in self.tables.values()):
            return
        self.sample_bank.invalidate_variables(table.variables())
        self._unwatch(table)

    # -- DML -------------------------------------------------------------------

    def insert(self, name, values, condition=TRUE):
        """INSERT one row (optionally with a condition).

        Parameters
        ----------
        name:
            Target table.
        values:
            One value per schema column; values may be constants or
            symbolic expressions over random variables.
        condition:
            The row's presence condition (default ``TRUE``).

        Example
        -------
        >>> from repro import PIPDatabase
        >>> db = PIPDatabase()
        >>> _ = db.create_table("t", [("k", "str"), ("v", "float")])
        >>> db.insert("t", ("a", 1.5))
        >>> len(db.table("t"))
        1
        """
        with self._write_sink(name) as sink:
            _write(sink, records.insert(name, values, condition))

    def insert_many(self, name, rows, conditions=None):
        """Bulk INSERT.

        Rows may be plain value tuples, ``(values, condition)`` pairs, or —
        via ``conditions=`` — a parallel sequence of row conditions, so
        conditional bulk loads don't silently drop their conditions.

        Parameters
        ----------
        name:
            Target table.
        rows:
            Iterable of value tuples or ``(values, condition)`` pairs.
        conditions:
            Optional sequence of conditions, parallel to ``rows`` (lengths
            must match or ``SchemaError`` is raised).

        Returns
        -------
        CTable
            The mutated stored table.
        """
        rows = list(rows)
        if conditions is not None:
            conditions = list(conditions)
            if len(conditions) != len(rows):
                raise SchemaError(
                    "insert_many got %d rows but %d conditions"
                    % (len(rows), len(conditions))
                )
            pairs = zip(rows, conditions)
        else:
            pairs = (
                row
                if (
                    isinstance(row, (tuple, list))
                    and len(row) == 2
                    and isinstance(row[1], Condition)
                )
                else (row, TRUE)
                for row in rows
            )
        with self._write_sink(name) as sink:
            table = sink.resolve_table(name)
            pairs = [(tuple(values), condition) for values, condition in pairs]
            try:
                return _write(sink, records.insert_many(name, pairs)) if pairs else table
            except SchemaError:
                # A mid-batch schema error: exactly the rows ahead of it
                # reach the table and the log, together; then it raises.
                ahead = 0
                with suppress(SchemaError):
                    for values, condition in pairs:
                        table.check_row(values, condition)
                        ahead += 1
                if ahead:
                    _write(sink, records.insert_many(name, pairs[:ahead]))
                raise

    def delete(self, name, where=None):
        """DELETE rows from a stored table.

        The predicate must be *deterministic per row* — after binding a
        row's cell values it has to decide to True or False.  A predicate
        left undecided (it references random variables, or columns the
        table does not have) raises ``PlanError``: removing a row whose
        membership is uncertain would silently collapse the c-table's
        possible worlds.  Removed rows flow through the same mutation
        watchers as inserts, so sample-bank invalidation — and, for a
        durable database, the write-ahead log — fire for deletes too.

        Parameters
        ----------
        name:
            Target stored table (``SchemaError`` if unknown).
        where:
            ``None`` deletes every row.  A callable receives each row's
            column mapping and returns truth.  The SQL front end passes
            DNF disjuncts (tuples of :class:`~repro.symbolic.atoms.Atom`
            conjunctions), matched like a WHERE clause.

        Returns
        -------
        int
            Number of rows removed.

        Example
        -------
        >>> from repro import PIPDatabase
        >>> db = PIPDatabase()
        >>> _ = db.create_table("t", [("k", "str"), ("v", "float")])
        >>> db.insert_many("t", [("a", 1.0), ("b", 2.0)])
        <CTable t: 2 cols, 2 rows>
        >>> db.delete("t", lambda row: row["v"] > 1.5)
        1
        >>> [row.values for row in db.table("t")]
        [('a', 1.0)]
        """
        with self._write_sink(name) as sink:
            table = sink.resolve_table(name)
            doomed = self._matching_rows(table, where, "DELETE")
            if doomed:
                _write(sink, records.delete(name, doomed))
            return len(doomed)

    def _matching_rows(self, table, where, verb):
        """Indices of the rows decided-True by a deterministic predicate
        — the shared row-selection core of DELETE and UPDATE.

        The SELECT path's masks say which rows a DNF predicate can match
        at all (``None``: any row can) and only those are decided; each
        candidate still goes through :meth:`_predicate_matches`, which
        owns the verdict and the undecided-predicate error."""
        candidates = None
        if where is not None and not callable(where):
            candidates = cops.candidate_rows(self, table, where)
            where = list(where)  # each disjunct's conjunction, once built
        if candidates is None:
            candidates = range(len(table.rows))
        rows = table.rows
        return [
            index
            for index in candidates
            if self._predicate_matches(table, rows[index], where, verb)
        ]

    @staticmethod
    def _predicate_matches(table, row, where, verb="DELETE"):
        if where is None:
            return True
        if callable(where):
            return bool(where(table.row_mapping(row)))
        mapping = table.row_mapping(row)
        undecided = None
        for position in range(len(where)):
            bound = conjunction_at(where, position).bind_columns(mapping)
            if bound.is_true:
                # One true disjunct decides the whole OR; later (or
                # earlier) symbolic disjuncts cannot retract it.
                return True
            if not bound.is_false and undecided is None:
                undecided = bound
        if undecided is not None:
            raise PlanError(
                "%s predicate is not deterministic for row %r "
                "(it still depends on %r)" % (verb, row.values, undecided)
            )
        return False

    def update(self, name, assignments, where=None):
        """UPDATE rows of a stored table in place.

        The WHERE predicate follows the :meth:`delete` contract — it must
        be *deterministic per row* (a predicate left undecided after
        binding the row's cells raises ``PlanError``: rewriting a row
        whose membership is uncertain would collapse possible worlds).
        Assignment expressions are evaluated per matched row with that
        row's cells bound, so ``SET v = v * 2`` works, and may produce
        symbolic results when cells are symbolic.  Row conditions are
        preserved.  Updated rows flow through the same mutation watchers
        as inserts and deletes (sample-bank invalidation sees the old and
        the new row), and — for a durable database — through the
        write-ahead log.

        Parameters
        ----------
        name:
            Target stored table (``SchemaError`` if unknown).
        assignments:
            Mapping or sequence of ``(column, value)`` pairs.  Values may
            be plain constants or :class:`Expression` trees over the
            table's columns; unknown columns raise ``SchemaError``.
        where:
            ``None`` updates every row; a callable receives each row's
            column mapping; the SQL front end passes DNF disjuncts.

        Returns
        -------
        int
            Number of rows updated.

        Example
        -------
        >>> from repro import PIPDatabase
        >>> db = PIPDatabase()
        >>> _ = db.sql("CREATE TABLE t (k str, v float)")
        >>> _ = db.sql("INSERT INTO t VALUES ('a', 1.0), ('b', 2.0)")
        >>> db.sql("UPDATE t SET v = v * 10 WHERE k = 'b'")
        1
        >>> db.sql("SELECT k, v FROM t").rows()
        [('a', 1.0), ('b', 20.0)]
        """
        with self._write_sink(name) as sink:
            table = sink.resolve_table(name)
            updates = self._compute_updates(table, assignments, where)
            if updates:
                _write(sink, records.update(name, updates))
            return len(updates)

    def _compute_updates(self, table, assignments, where):
        """Resolve an UPDATE into ``(row_index, new_values)`` pairs.

        The resolved values — not the expressions — are what the record
        carries, so a transaction's commit and recovery repeat exactly
        what the original execution computed.
        """
        if isinstance(assignments, dict):
            assignments = assignments.items()
        normalized = [
            (table.schema.index_of(column), value) for column, value in assignments
        ]
        if not normalized:
            raise PlanError("UPDATE needs at least one SET assignment")
        updates = []
        for index in self._matching_rows(table, where, "UPDATE"):
            row = table.rows[index]
            mapping = table.row_mapping(row)
            values = list(row.values)
            for position, value in normalized:
                if isinstance(value, Expression):
                    bound = value.bind_columns(mapping)
                    values[position] = (
                        bound.const_value() if bound.is_constant else bound
                    )
                else:
                    values[position] = value
            updates.append((index, tuple(values)))
        return updates

    # -- variables ---------------------------------------------------------------

    def create_variable(self, distribution, params):
        """The paper's ``CREATE VARIABLE(distribution[, params])``.

        Parameters
        ----------
        distribution:
            Registered distribution-class name (``"normal"``,
            ``"exponential"``, ``"poisson"``, ``"mvnormal"``, …).
        params:
            The class's parameter tuple, validated by the distribution.

        Returns
        -------
        RandomVariable or list of RandomVariable
            One variable for univariate classes; the list of component
            variables for multivariate ones.

        Example
        -------
        >>> from repro import PIPDatabase
        >>> db = PIPDatabase()
        >>> db.create_variable("normal", (0.0, 1.0))
        X1~normal
        """
        with self._write_sink() as sink:
            created = sink.allocate_variable(distribution, params)
            vid = created[0].vid if isinstance(created, list) else created.vid
            sink.log_record(records.create_variable(distribution, params, vid))
            return created

    def create_variable_expr(self, distribution, params):
        """Like :meth:`create_variable` but wrapped as an expression
        (or a list of expressions for multivariate classes), ready for
        arithmetic: ``db.create_variable_expr("normal", (0, 1)) * 2 + 3``.
        """
        created = self.create_variable(distribution, params)
        if isinstance(created, list):
            return [var(v) for v in created]
        return var(created)

    def register_distribution(self, cls_or_instance, replace=False):
        """Register a distribution class *durably*.

        Delegates to :func:`repro.distributions.register_distribution`
        (the process-global registry the paper's ``CREATE VARIABLE``
        extension point uses) and additionally journals the instance so a
        recovered database re-registers it before any row referencing it
        samples.  The class must be importable at recovery time (defined
        in a module, not in a REPL), since instances serialize by
        reference to their class.

        Returns the registered instance.  Inside a transaction the
        process-global registration happens immediately (variables created
        by later statements of the same transaction need it), but the
        durable journal record is buffered with the transaction — a
        rollback leaves the class registered in-process yet undurable.
        """
        from repro.distributions import register_distribution

        with self._write_sink() as sink:
            instance = register_distribution(cls_or_instance, replace=replace)
            sink.keep_distribution(instance)
            sink.log_record(records.register_distribution(instance))
            return instance

    def repair_key(self, name, key_columns, probability_column, new_name=None):
        """Discrete table constructor (Section V-A footnote).

        Applies the MayBMS-style repair-key operator to a registered table
        and registers the result.

        Parameters
        ----------
        name:
            Source table.
        key_columns:
            Columns whose value combinations define the discrete choices.
        probability_column:
            Column holding each alternative's probability mass.
        new_name:
            Name for the repaired table (default: replace ``name``).

        Returns
        -------
        CTable
            The registered repaired table, with one categorical variable
            per key group guarding its alternatives.
        """
        # In a transaction everything stages against the private overlay
        # (no lock needed); in autocommit the read-compute-register
        # sequence is one statement and must be atomic against writers.
        with self._write_sink():
            table = self.table(name)
            repaired = _repair_key(
                table, key_columns, probability_column, self.factory
            )
            return self.register(new_name or name, repaired)

    # -- querying -----------------------------------------------------------------

    def sql(self, text, params=None, explain=False, analyze=False):
        """Run a SQL statement.

        Returns a :class:`~repro.engine.results.ResultSet` for queries
        (SELECT / UNION) — the result c-table plus per-cell estimate
        metadata — the stored table for CREATE/INSERT, the affected-row
        count for DELETE/UPDATE, and ``None`` for DROP and
        BEGIN/COMMIT/ROLLBACK (which require a session; see
        :meth:`connect`).  With ``explain=True``, nothing executes; the
        rendered logical plan (operator tree with per-node
        classification) is returned instead.

        See :mod:`repro.engine` for the supported dialect, which follows
        the paper's Section V-A: conditions on random variables in WHERE
        are rewritten into the result's condition columns, and
        probability-removing functions (``conf``, ``expected_*``) produce
        deterministic output.

        This is the one-shot path: every call re-parses and re-plans.
        For repeated parameterized queries use :meth:`prepare`, which
        caches the plan and only re-binds.

        Parameters
        ----------
        text:
            One SQL statement in the Section V-A dialect.
        params:
            Optional mapping for ``:name`` placeholders.
        explain:
            When True, return the rendered plan instead of executing.
        analyze:
            When True, *execute* the query with per-operator profiling
            and return the rendered plan annotated with actual wall
            time, row counts, and sampling effort — the programmatic
            twin of SQL ``EXPLAIN ANALYZE``.  Queries only.

        Returns
        -------
        ResultSet, CTable, int, str, or None
            A :class:`~repro.engine.results.ResultSet` for queries, the
            stored table for CREATE/INSERT, the affected-row count for
            DELETE/UPDATE, ``None`` for DROP, and the plan string with
            ``explain=True`` or ``analyze=True``.

        Example
        -------
        >>> from repro import PIPDatabase
        >>> db = PIPDatabase(seed=1)
        >>> _ = db.sql("CREATE TABLE t (k str, v float)")
        >>> _ = db.sql("INSERT INTO t VALUES ('a', 2.0), ('b', 3.0)")
        >>> db.sql("SELECT k FROM t WHERE v > :floor", params={"floor": 2.5}).rows()
        [('b',)]
        """
        from repro.engine.prepared import PreparedStatement

        statement = PreparedStatement(self, text)
        if analyze:
            return statement.analyze(params)
        if explain:
            return statement.explain(params)
        return statement.run(params)

    def metrics(self, text=False):
        """The database's metrics, as a snapshot dict or Prometheus text.

        With ``text=False`` (default), a sorted ``{name: value}`` dict —
        histograms appear as nested dicts with their bucket counts.  With
        ``text=True``, the Prometheus text exposition format, ready to
        serve from a ``/metrics`` endpoint.  Metrics are on by default;
        an explicitly disabled registry still renders (it is just empty
        of updates).  See ``docs/observability.md``.

        Example
        -------
        >>> from repro import PIPDatabase
        >>> db = PIPDatabase(seed=1)
        >>> _ = db.sql("CREATE TABLE t (k str, v float)")
        >>> _ = db.sql("INSERT INTO t VALUES ('a', 2.0)")
        >>> _ = db.sql("SELECT k FROM t")
        >>> db.metrics()["pip_queries_total"]   # CREATE + INSERT + SELECT
        3
        >>> print(db.metrics(text=True).splitlines()[0])
        # HELP pip_bank_bytes_in_memory In-memory sample-bundle footprint in bytes.
        """
        if text:
            return self.telemetry.registry.prometheus()
        return self.telemetry.registry.snapshot()

    def prepare(self, text):
        """Parse + plan once; re-execute with fresh ``:name`` bindings.

        Returns a :class:`~repro.engine.prepared.PreparedStatement`; its
        :meth:`run` skips the entire front half of the pipeline, so warm
        plans plus a warm sample bank form the amortized fast path for
        monitoring-style repeated queries.

        Example
        -------
        >>> from repro import PIPDatabase
        >>> db = PIPDatabase(seed=1)
        >>> _ = db.sql("CREATE TABLE t (k str, v float)")
        >>> _ = db.sql("INSERT INTO t VALUES ('a', 2.0), ('b', 3.0)")
        >>> stmt = db.prepare("SELECT k FROM t WHERE v > :floor")
        >>> stmt.run(floor=1.0).rows(), stmt.run(floor=2.5).rows()
        ([('a',), ('b',)], [('b',)])
        """
        from repro.engine.prepared import PreparedStatement

        return PreparedStatement(self, text)

    def query(self, name, alias=None):
        """Fluent relational-algebra builder rooted at a stored table.

        Parameters
        ----------
        name:
            Stored table to scan (``SchemaError`` if unknown).
        alias:
            Optional prefix for the scan's column names (``"o"`` makes
            ``o.price``).

        Returns
        -------
        QueryBuilder
            A lazy chainable builder over the same logical-plan IR the
            SQL front end uses.
        """
        from repro.engine.builder import QueryBuilder

        return QueryBuilder.scan(self, name, alias=alias)

    def materialize(self, name, table):
        """Materialise an intermediate result as a stored view.

        Because the symbolic representation is lossless, later queries over
        the view are unbiased — the Section III-A argument for
        pre-materialising slow deterministic subqueries (used by Q3).

        Parameters
        ----------
        name:
            Name to register the copy under.
        table:
            A c-table or anything carrying one behind ``to_ctable()``.

        Returns
        -------
        CTable
            The stored copy.
        """
        source = _as_ctable(table)
        # Copy + register atomically in autocommit, so the stored view can
        # never mix rows from both sides of a concurrent writer statement.
        with self._write_sink():
            return self.register(name, source.copy(name=name))

    def __repr__(self):
        return "<PIPDatabase: %d tables, %d variables>" % (
            len(self.tables),
            self.factory.variables_created,
        )
