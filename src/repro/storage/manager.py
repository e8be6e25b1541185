"""The durability manager: one directory, one database, one lifecycle.

Storage layout (all under the ``PIPDatabase.open`` path)::

    <path>/
      pip.json                  # database identity: seed, format version
      wal.log                   # append-only journal (storage/wal.py)
      snapshots/
        snapshot-<lsn>.pkl      # catalog checkpoint (storage/snapshot.py)
        snapshot-<lsn>.npz      # numeric column payloads
      bank/
        bank_<key>.npz          # sample-bank spill tier (samplebank/bank.py)
        manifest.json           # bank identity + footprint

The manager owns the WAL and the checkpoint cycle; the database calls
:meth:`journal` with every record it applies and :meth:`checkpoint` /
:meth:`close` from its own lifecycle hooks.  Recovery applies records
without coming back here, so replay cannot re-journal what it applies.
"""

import json
import os
import weakref
from repro.storage import records, recovery, snapshot as snap
from repro.storage.wal import WriteAheadLog
from repro.util.errors import StorageError

_META_VERSION = 1
_META_NAME = "pip.json"
_WAL_NAME = "wal.log"
_LOCK_NAME = "pip.lock"
_SNAPSHOT_DIR = "snapshots"
_BANK_DIR = "bank"

try:
    import fcntl as _fcntl
except ImportError:  # non-POSIX: no advisory locking available
    _fcntl = None


def bank_dir(path):
    """The sample-bank spill directory inside a database directory."""
    return os.path.join(path, _BANK_DIR)


def read_meta(path):
    """The ``pip.json`` identity record, or ``None`` for a fresh directory."""
    meta_path = os.path.join(path, _META_NAME)
    if not os.path.exists(meta_path):
        return None
    try:
        with open(meta_path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise StorageError("unreadable database meta %r: %s" % (meta_path, exc)) from exc


def write_meta(path, seed):
    os.makedirs(path, exist_ok=True)
    meta_path = os.path.join(path, _META_NAME)
    tmp_path = meta_path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump({"format": _META_VERSION, "seed": seed}, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, meta_path)


class DurabilityManager:
    """Journals mutations and drives checkpoint/recovery for one database."""

    def __init__(self, db, path, durable=True, sync=True):
        # Weak: the database owns its manager, and a strong reference back
        # would be a cycle keeping a closed database (tables, bank and
        # all) resident until the cyclic collector happens to run.
        self._db = weakref.ref(db)
        self.path = path
        self.durable = durable
        self.snapshot_dir = os.path.join(path, _SNAPSHOT_DIR)
        self._closed = False
        self._failed = None
        # One process at a time: the WAL constructor truncates torn tails
        # and appends share LSNs, so a second opener would interleave and
        # corrupt the log.  Even durable=False handles take the lock
        # (their open may heal a torn tail).  Advisory, POSIX-only.
        self._lock_handle = self._acquire_lock(path)
        try:
            self.wal = WriteAheadLog(os.path.join(path, _WAL_NAME), sync=sync)
        except BaseException:
            self._release_lock()
            raise
        self.wal.telemetry = getattr(db, "telemetry", None)

    @property
    def db(self):
        return self._db()

    @staticmethod
    def _acquire_lock(path):
        if _fcntl is None:
            return None
        os.makedirs(path, exist_ok=True)
        handle = open(os.path.join(path, _LOCK_NAME), "a+")
        try:
            _fcntl.flock(handle.fileno(), _fcntl.LOCK_EX | _fcntl.LOCK_NB)
        except OSError:
            handle.close()
            raise StorageError(
                "database at %r is open in another process" % (path,)
            ) from None
        return handle

    def _release_lock(self):
        if self._lock_handle is not None:
            self._lock_handle.close()  # closing drops the flock
            self._lock_handle = None

    # -- journaling ----------------------------------------------------------

    def check_writable(self):
        """Raise when a durable database can no longer journal mutations.

        Called *before* a mutation touches memory, so a closed (or
        append-failed) database never ends up with in-memory state its
        log does not have.
        """
        if not self.durable:
            return
        if self._failed is not None:
            raise StorageError(
                "database at %r stopped journaling after a WAL write "
                "failure (%s); reopen it to recover the journaled prefix"
                % (self.path, self._failed)
            )
        if self._closed:
            raise StorageError(
                "database at %r is closed; reopen it before mutating" % (self.path,)
            )

    def journal(self, record):
        """Append one logical record (:mod:`repro.storage.records` builds
        them: mutations and transaction-frame marks); returns its LSN.

        Every record carries the post-operation variable-factory watermark
        so replay keeps vid allocation aligned even for variables created
        outside journaled calls (SELECT-time ``create_variable()``).  A
        failed append — disk full, I/O error, but equally a
        *serialization* failure (an unpicklable cell value) — **poisons**
        the manager: memory already holds the mutation the log missed, so
        every later mutation and checkpoint must refuse rather than
        silently persist a divergent history.
        """
        self.check_writable()  # a closed or poisoned log refuses here
        if not self.durable:
            return None
        record = dict(record, next_vid=self.db.factory._next_vid)
        try:
            return self.wal.append(record)
        except Exception as exc:
            self._failed = exc
            raise StorageError(
                "WAL append failed at %r: %s" % (self.path, exc)
            ) from exc

    # -- recovery ------------------------------------------------------------

    def recover(self):
        """Restore snapshot + WAL tail into the (fresh) database.

        A transaction frame left open by a crash (``txn_begin`` with no
        commit/abort before the clean end of the log) is discarded by
        replay — and then **healed** with an explicit ``txn_abort``
        append, exactly like the WAL constructor truncates CRC-torn
        tails: without it, records appended after this open would land
        inside the stale frame and be discarded (or rejected) by the
        *next* recovery.
        """
        base_lsn = recovery.restore_snapshot(self.db, self.snapshot_dir)
        dangling = recovery.replay(self.db, self.wal.tail(base_lsn))
        if dangling is not None:
            self.wal.append(records.healing_abort(dangling))

    # -- checkpointing ---------------------------------------------------------

    def checkpoint(self):
        """Write a snapshot at the current LSN and start a fresh WAL.

        Also flushes the sample bank's in-memory bundles to the spill
        tier, so a checkpointed database warm-starts its cache too.
        Returns the snapshot's ``.pkl`` path.
        """
        if self._closed:
            raise StorageError("database at %r is closed" % (self.path,))
        if not self.durable:
            raise StorageError(
                "checkpoint() on a durable=False handle would persist "
                "unjournaled mutations; reopen with durable=True"
            )
        if self._failed is not None:
            raise StorageError(
                "cannot checkpoint after a WAL write failure (%s): memory "
                "holds mutations the log missed" % (self._failed,)
            )
        lsn = self.wal.last_lsn
        telemetry = self.db.telemetry
        with telemetry.tracer.span("storage.checkpoint", lsn=lsn):
            path = snap.write_snapshot(
                self.snapshot_dir,
                lsn,
                self.db,
                self.db._journaled_distributions.values(),
            )
            self.db.sample_bank.flush()
            history = getattr(self.db, "history", None)
            if history is not None:
                history.flush()
            # Only after the snapshot is durably in place may the WAL records
            # it covers be dropped.
            self.wal.reset(lsn)
            self._prune_snapshots(keep=2)
        telemetry.on_checkpoint()
        return path

    def _prune_snapshots(self, keep):
        """Drop all but the ``keep`` newest snapshots (older ones only
        exist as fallbacks for a torn newest)."""
        snapshots = snap.list_snapshots(self.snapshot_dir)
        for _lsn, pkl_path in snapshots[:-keep]:
            for victim in (pkl_path, pkl_path[: -len(".pkl")] + ".npz"):
                if os.path.exists(victim):
                    os.remove(victim)

    # -- lifecycle -------------------------------------------------------------

    def close(self):
        """Flush and fsync the WAL, persist the bank, release handles.

        Idempotent; after the first call further journaling raises."""
        if self._closed:
            return
        self.wal.close()
        self.db.sample_bank.flush()
        self._release_lock()
        self._closed = True

    def __repr__(self):
        return "<DurabilityManager %s (lsn=%d%s)>" % (
            self.path,
            self.wal.last_lsn,
            ", closed" if self._closed else "",
        )
