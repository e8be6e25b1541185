"""Transactions: buffered write intents over a copy-on-write snapshot.

A :class:`Transaction` turns every mutation a session issues between
``begin()`` and ``commit()`` into a **write intent**: the statement's
logical record (:mod:`repro.storage.records`), applied immediately — by
the ``apply`` autocommit and recovery run — to a *private* copy of the
affected table (so the transaction reads its own writes) and to nothing
else.  Until commit, the shared database state is untouched —
a concurrent reader can never observe an uncommitted row, because
uncommitted rows live only in this object.

Commit is atomic on both axes the paper's host-DBMS framing cares about:

* **Durability** — the buffered records are journaled inside a
  ``txn_begin`` … ``txn_commit`` WAL frame (appended contiguously under
  the database's write lock).  Recovery replays a frame only when its
  commit record made it to disk; a torn or aborted frame is discarded
  wholesale (see :mod:`repro.storage.recovery`).
* **Visibility** — the private tables are *swapped into* the shared
  catalog under the write lock, while reader statements hold the read
  lock.  Readers see the state before the commit or after it, never a
  half-applied middle.

Isolation is snapshot-style with first-committer-wins conflict checking:
reads resolve against the table map captured at ``begin()`` plus the
overlay, and commit refuses (``TransactionError``) when another session
has committed to any table this transaction wrote since it began.  The
snapshot is a map of table *objects*: it freezes out every transactional
writer (their commits swap in new objects, leaving ours untouched), while
**autocommit** statements by other callers mutate stored tables in place
and therefore remain visible mid-transaction — against autocommit
writers the guarantee is statement-level (the RW lock: never a
half-applied statement), not repeatable-read.  Mixing autocommit writers
with open transactions on the same table trades that anomaly for the
bit-identical legacy behaviour of ``db.sql``; use transactions on both
sides when full snapshot isolation matters.
Rollback discards the buffers, returns the transaction's unused variable
identifiers to the factory (so the vid sequence — and every
seed-addressed sample-bank key — matches a run in which the transaction
never happened), and notably does **not** touch the sample bank: a
rolled-back write never evicts warm samples.  Invalidation for committed
work fires once per transaction, not once per buffered statement.
"""

import pickle

from repro.storage import records
from repro.util.errors import SchemaError, TransactionError

#: Transaction lifecycle states.
ACTIVE = "active"
COMMITTED = "committed"
ROLLED_BACK = "rolled-back"


class Transaction:
    """One unit of work on a session (use ``with session.transaction():``)."""

    def __init__(self, session):
        db = session.db
        self.session = session
        self.db = db
        self.txn_id = db._allocate_txn_id()
        self.state = ACTIVE
        with db._rwlock.read():
            # The begin-time snapshot: reads resolve here, and the version
            # map anchors first-committer-wins conflict detection.
            self._snapshot = dict(db.tables)
            self._versions_at_begin = dict(db._table_versions)
        # Objects other sessions can see: never renamed or written in place.
        self._shared = {id(table) for table in self._snapshot.values()}
        self._overlay = {}  # name -> private (or txn-created) CTable
        self._cow_bases = {}  # name -> committed object its overlay copy evolved from
        self._dropped = set()
        self._write_versions = {}  # name -> begin-time version, first write touch
        self._version_guards = {}  # read dependencies checked even when clean
        self._records = []  # WAL-format intent records, in statement order
        self._touched_variables = set()
        self._staged_distributions = {}
        self._vid_savepoint = db.factory.savepoint()
        self._vids_allocated = 0  # staged create_variable calls (rollback proof)
        db.telemetry.on_txn_event("begin")

    # -- state guards -------------------------------------------------------------

    def _check_active(self, action):
        if self.state != ACTIVE:
            raise TransactionError(
                "cannot %s a transaction that is already %s" % (action, self.state)
            )

    @property
    def is_active(self):
        return self.state == ACTIVE

    # -- read path ----------------------------------------------------------------

    def _visible_items(self):
        """(name, table) pairs as this transaction sees them."""
        merged = {
            name: table
            for name, table in self._snapshot.items()
            if name not in self._dropped and name not in self._overlay
        }
        merged.update(self._overlay)
        return merged

    def resolve_table(self, name):
        """The table ``name`` as seen by this transaction (overlay first,
        then the begin-time snapshot); ``SchemaError`` when absent."""
        if name in self._overlay:
            return self._overlay[name]
        if name not in self._dropped and name in self._snapshot:
            return self._snapshot[name]
        known = ", ".join(sorted(self._visible_items()))
        raise SchemaError("no table %r (have: %s)" % (name, known)) from None

    # -- write path ---------------------------------------------------------------

    def _note_write(self, name):
        """Record the begin-time version of a name the first time the
        transaction writes it (commit re-checks it under the write lock)."""
        self._write_versions.setdefault(name, self._versions_at_begin.get(name, 0))

    def _note_guard(self, name):
        """Record a *read* dependency on ``name``'s begin-time version.

        Used where the staged record's meaning depends on another table's
        committed identity (``register_alias``'s source): the commit must
        conflict if that table moved, even though this transaction never
        wrote it."""
        self._version_guards.setdefault(
            name, self._versions_at_begin.get(name, 0)
        )

    # -- the overlay, as records.apply sees it (same view as PIPDatabase's) ---------

    def writable_table(self, name):
        """The private copy of ``name``, created on first write.

        Every visible alias of the same object is repointed at the one
        copy, so a transactional write through any alias keeps the shared
        identity — exactly the autocommit (and WAL-replay) semantics.
        """
        table = self.resolve_table(name)
        if name in self._overlay and id(table) not in self._shared:
            return table
        copy = table.copy()  # shallow, rows shared, no watchers
        for alias, stored in list(self._visible_items().items()):
            if stored is table:
                self._note_write(alias)
                self._overlay[alias] = copy
                self._cow_bases[alias] = table
        return copy

    def rows_changed(self, rows):
        for row in rows:
            self._touched_variables |= row.variables()

    def _leaves(self, name, table, visible):
        """``table`` stops being what ``name`` means.  If the object
        survives under another visible name (alias) its cached samples stay
        relevant; otherwise the commit invalidates its variables."""
        if not any(t is table for n, t in visible.items() if n != name):
            self._touched_variables |= table.variables()

    def bind_table(self, name, table):
        """Returns another visible name already bound to this very object
        (the binding is then an alias), if any."""
        visible = self._visible_items()
        replaced = visible.get(name)
        if replaced is not None and replaced is not table:
            self._leaves(name, replaced, visible)
        source = next(
            (n for n, t in visible.items() if t is table and n != name), None
        )
        if source is not None:
            # The record will mean "bind `name` to whatever `source` is at
            # replay time": commit must conflict if another session moved
            # the source after our begin, or memory (the begin-time object)
            # and recovery (the new object) would diverge.
            self._note_guard(source)
        self._note_write(name)
        if id(table) not in self._shared:
            table.name = name  # (a shared object is renamed at commit)
        self._overlay[name] = table
        self._dropped.discard(name)
        return source

    def unbind_table(self, name):
        table = self.resolve_table(name)
        self._note_write(name)
        self._overlay.pop(name, None)
        self._dropped.add(name)
        self._leaves(name, table, self._visible_items())

    def allocate_variable(self, dist_name, params):
        # Allocated now, journaled at commit (see records.create_variable).
        created = self.db.factory.create(dist_name, params)
        self._vids_allocated += 1
        return created

    def keep_distribution(self, instance):
        self._staged_distributions[instance.name.lower()] = instance

    def log_record(self, record):
        self._records.append(record)

    # -- commit / rollback ----------------------------------------------------------

    def _dirty_names(self):
        """Names whose committed state this transaction actually changes.

        A write that matched zero rows (``UPDATE … WHERE`` nothing) staged
        no record: its copy-on-write overlay is byte-identical to the
        base, and swapping it in would bump versions and fail other
        transactions with phantom conflicts.  Dirtiness is derived from
        the staged records, then widened to every alias sharing a dirty
        overlay object (aliases must swap together), plus drops.
        """
        named = {records.table_name(record) for record in self._records} - {None}
        dirty_objects = {
            id(self._overlay[name]) for name in named if name in self._overlay
        }
        dirty = set(named) | self._dropped
        dirty |= {
            name
            for name, table in self._overlay.items()
            if id(table) in dirty_objects
        }
        return dirty

    def commit(self):
        """Apply every buffered intent atomically; see the module docstring.

        Raises :class:`TransactionError` on a write-write conflict (the
        transaction stays open so the caller can inspect and roll back —
        the ``with session.transaction():`` form does so automatically).
        """
        self._check_active("commit")
        with self.db.telemetry.tracer.span("txn.commit", txn=self.txn_id):
            self._commit_locked(self.db, self.db.telemetry)
        self.state = COMMITTED
        self.session._finish_transaction(self)

    def _commit_locked(self, db, telemetry):
        """The lock-holding middle of :meth:`commit`."""
        dirty = self._dirty_names()
        with db._rwlock.write():
            db._check_writable()
            checks = dict(self._version_guards)
            checks.update(
                (name, version)
                for name, version in self._write_versions.items()
                if name in dirty  # touched but unchanged: no conflict to claim
            )
            for name, base_version in checks.items():
                if db.table_version(name) != base_version:
                    telemetry.on_txn_event("conflict")
                    raise TransactionError(
                        "write-write conflict: table %r was committed by "
                        "another session after this transaction began" % (name,)
                    )
            manager = db._durability
            # (_check_writable above has refused a closed or poisoned log)
            framed = manager is not None and manager.durable and bool(self._records)
            if framed:
                # Pre-validate serialization before the frame opens: an
                # unpicklable staged value must fail the commit cleanly
                # (transaction stays open, nothing journaled) instead of
                # dying mid-frame and leaving a dangling txn_begin that
                # would swallow later committed records at recovery.
                for record in self._records:
                    pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
                manager.journal(records.frame_mark(records.TXN_BEGIN, self.txn_id))
                try:
                    for record in self._records:
                        manager.journal(record)
                except BaseException:
                    self._journal_abort(manager)
                    raise
            try:
                self._apply_to_memory(dirty)
            except BaseException:
                if framed:
                    self._journal_abort(manager)
                raise
            if framed:
                manager.journal(records.frame_mark(records.TXN_COMMIT, self.txn_id))
            # Everything this transaction allocated is committed state now;
            # no later rollback (any session, any thread) may re-mint it.
            db.factory.mark_durable()
            # One invalidation per committed transaction — never one per
            # buffered statement, and never any on rollback.
            if self._touched_variables:
                db.sample_bank.invalidate_variables(self._touched_variables)
        telemetry.on_txn_event("commit")

    def _journal_abort(self, manager):
        """Best-effort frame close after a mid-commit failure.

        When the WAL itself is the casualty (manager poisoned), the
        append fails too — then the frame is left open on disk and the
        next recovery's frame-healing closes it (see
        ``DurabilityManager.recover``)."""
        try:
            manager.journal(records.frame_mark(records.TXN_ABORT, self.txn_id))
        except Exception:
            pass

    def _apply_to_memory(self, dirty):
        """Swap staged state into the shared catalog (write lock held).

        Only ``dirty`` names move.  An old object replaced by its *own
        evolved copy* is merely unwatched — its variables live on in the
        replacement, so its cached samples stay warm; the row-level delta
        is covered by the single ``_touched_variables`` invalidation.
        Full release (cache invalidation) is reserved for objects that
        genuinely left the catalog: drops and register-replacements.
        """
        db = self.db
        released = []
        for name in self._dropped:
            if name in self._overlay:
                continue  # dropped then re-created: the overlay wins
            old = db.tables.pop(name, None)
            if old is not None:
                released.append(old)
            db._bump_version(name)
        for name, table in self._overlay.items():
            if name not in dirty:
                continue  # copied but never changed: leave the base alone
            old = db.tables.get(name)
            if old is not None and old is not table:
                released.append(old)
            table.name = name
            db.tables[name] = table
            db._watch(table)
            db._bump_version(name)
        # Release only after the final catalog is in place: an object that
        # kept (or gained) another name must keep its watcher and cache.
        evolved = {id(base) for base in self._cow_bases.values()}
        for old in released:
            if id(old) in evolved:
                db._unwatch(old)
            else:
                db._release_table(old)
        db._journaled_distributions.update(self._staged_distributions)

    def rollback(self):
        """Discard every buffered intent.

        No WAL traffic, no sample-bank invalidation; variable identifiers
        staged by this transaction are returned to the factory when it
        can prove sole ownership (no interleaved allocation by any other
        path — see :meth:`VariableFactory.rollback_to`), making the
        post-rollback state bit-identical to never having begun.  A
        variable handle kept from a rolled-back ``create_variable`` is
        void — like a row read from a dropped table — since its
        identifier may be re-minted.
        """
        self._check_active("roll back")
        self.db.factory.rollback_to(self._vid_savepoint, self._vids_allocated)
        self._overlay.clear()
        self._cow_bases.clear()
        self._dropped.clear()
        self._version_guards.clear()
        self._records = []
        self._touched_variables = set()
        self._staged_distributions = {}
        self.state = ROLLED_BACK
        self.db.telemetry.on_txn_event("rollback")
        self.session._finish_transaction(self)

    # -- context-manager protocol -----------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        if not self.is_active:
            return False  # committed/rolled back explicitly inside the body
        if exc_type is None:
            try:
                self.commit()
            except BaseException:
                # A failed commit (write-write conflict, WAL failure) must
                # not leave a zombie transaction on the session.
                if self.is_active:
                    self.rollback()
                raise
        else:
            self.rollback()
        return False

    def __repr__(self):
        return "<Transaction #%d %s: %d staged records>" % (
            self.txn_id,
            self.state,
            len(self._records),
        )
