"""Crash recovery: snapshot restore + WAL tail replay.

Recovery rebuilds a :class:`~repro.core.database.PIPDatabase` in two
phases.  Phase one installs the newest *loadable* snapshot (a corrupt or
half-written snapshot falls back to the previous one, and ultimately to an
empty catalog).  Phase two hands every committed WAL record past the
snapshot's LSN to :func:`repro.storage.records.apply` — the function the
original process's statements ran, against the same shared catalog —
so the recovered state is produced by the operations themselves, not by
a parallel deserializer that could drift from them.  Nothing on that
path journals, so replay cannot re-journal what it applies.

Determinism does the heavy lifting: variable identifiers are allocated
sequentially and every WAL record carries the post-operation ``next_vid``
watermark, so replay hands out exactly the vids the original run did and
the recovered symbolic state hashes to the same sample-bank keys.  That
is what lets a restarted process serve its first repeated query straight
from the spilled bank (see ``docs/durability.md``).
"""

from repro.storage import records, snapshot as snap
from repro.util.errors import PIPError, StorageError


def restore_snapshot(db, directory):
    """Install the newest loadable snapshot into ``db``.

    Returns the snapshot's LSN (0 when no snapshot is usable — recovery
    then replays the WAL from the beginning).
    """
    for lsn, path in reversed(snap.list_snapshots(directory)):
        try:
            manifest, tables = snap.load_snapshot(path)
        except StorageError:
            continue  # half-written or damaged: use the previous one
        for instance in manifest["distributions"]:
            records.apply(records.register_distribution(instance), db)
        for name, table in tables.items():
            db.tables[name] = table
            db._watch(table)
        db.factory._next_vid = max(db.factory._next_vid, manifest["next_vid"])
        return manifest["lsn"]
    return 0


def replay(db, wal_records):
    """Apply WAL records (in order) to the shared catalog of ``db``.

    A record that cannot be applied — unknown op (an old build reading a
    newer log must fail loudly, not drop mutations), missing field, a row
    index or table the catalog does not have — raises
    :class:`StorageError` naming its LSN, before it changes anything.

    **Transaction framing** (PR 5): records between a ``txn_begin`` and
    its ``txn_commit`` are buffered and applied only when the commit
    record is present — an aborted frame (``txn_abort``) or a torn one
    (the log ends mid-frame, i.e. the process died between journaling a
    transaction's intents and its commit mark) is discarded wholesale, so
    recovery replays *only committed transactions*.  Records outside any
    frame are the autocommit path and apply immediately, which keeps
    pre-session logs replayable unchanged.

    Returns the ``txn_begin`` record of a frame the log leaves open (for
    ``DurabilityManager.recover`` to *heal* with a ``txn_abort``), or
    ``None`` when every frame is closed.
    """
    begin = None  # the mark that opened the current frame
    pending = None  # buffered records of the currently open frame
    for record in wal_records:
        op = record.get("op")
        if op == records.TXN_BEGIN:
            if pending is not None:
                raise StorageError(
                    "WAL record %r opens a transaction frame inside another"
                    % (record.get("lsn"),)
                )
            begin, pending = record, []
            continue
        if op == records.TXN_COMMIT:
            if pending is None:
                raise StorageError(
                    "WAL record %r commits with no open transaction frame"
                    % (record.get("lsn"),)
                )
            for buffered in pending:
                _apply_record(db, buffered)
            pending = None
            _advance_watermark(db, record)
            continue
        if op == records.TXN_ABORT:
            pending = None
            continue
        if pending is not None:
            pending.append(record)
            continue
        _apply_record(db, record)
    return begin if pending is not None else None


def _apply_record(db, record):
    try:
        records.apply(record, db)
    except StorageError:
        raise
    except PIPError as exc:
        raise StorageError(
            "%s cannot be replayed: %s" % (records.describe(record), exc)
        ) from exc
    _advance_watermark(db, record)


def _advance_watermark(db, record):
    watermark = record.get("next_vid")
    if watermark is not None and watermark > db.factory._next_vid:
        # SELECT-time create_variable() advanced the factory without a
        # dedicated record; the watermark keeps post-recovery vids from
        # colliding with durable variables minted after that point.
        db.factory._next_vid = watermark
