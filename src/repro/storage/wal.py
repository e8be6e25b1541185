"""The write-ahead log: an append-only journal of logical mutations.

Every durable :class:`~repro.core.database.PIPDatabase` mutation is
appended here as a *logical* record (:mod:`repro.storage.records` owns
the vocabulary) before the in-memory state changes become reachable by a
checkpoint.  Records are self-describing dicts pickled with the symbolic
layer's slot-state hooks, so a row's values, expressions and condition
round-trip bit-identically.

Autocommit mutations append bare records.  Explicit transactions append
their buffered records inside a frame — begin mark, records, commit (or
abort) mark — written contiguously under the database's write lock;
recovery applies a frame only when its commit mark survived (see
:func:`repro.storage.recovery.replay`), which is what makes commits
atomic across crashes.

On-disk format (little-endian)::

    file   := header record*
    header := b"PIPW" version:u16 base_lsn:u64
    record := b"RC" length:u32 crc32:u32 payload[length]

``crc32`` covers the payload only.  A crash can tear at most the final
record; :func:`scan` stops at the first incomplete or corrupt record and
reports how many clean bytes precede it, which is exactly the prefix
recovery replays (torn tails are truncated on the next append so the log
never grows garbage in the middle).
"""

import os
import pickle
import struct
import zlib

from repro.util.errors import StorageError

_FILE_MAGIC = b"PIPW"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHQ")
_RECORD_MAGIC = b"RC"
_RECORD = struct.Struct("<2sII")


def _encode(record):
    payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return _RECORD.pack(_RECORD_MAGIC, len(payload), zlib.crc32(payload)) + payload


def scan(path):
    """Read every intact record of a WAL file.

    Returns ``(base_lsn, records, clean_bytes)`` where ``records`` is the
    list of decoded record dicts and ``clean_bytes`` is the offset of the
    first torn/corrupt byte (== file size for a clean log).  A missing
    file scans as an empty log.  A corrupt *header* raises
    :class:`~repro.util.errors.StorageError` — that is not a torn tail
    but a damaged log, and silently ignoring it would drop every record.
    """
    if not os.path.exists(path):
        return 0, [], _HEADER.size
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < _HEADER.size:
        raise StorageError("WAL %r is truncated before its header" % (path,))
    magic, version, base_lsn = _HEADER.unpack_from(data, 0)
    if magic != _FILE_MAGIC:
        raise StorageError("%r is not a PIP WAL (bad magic %r)" % (path, magic))
    if version != _FORMAT_VERSION:
        raise StorageError(
            "WAL %r has format version %d; this build reads %d"
            % (path, version, _FORMAT_VERSION)
        )
    records = []
    offset = _HEADER.size
    while offset < len(data):
        if offset + _RECORD.size > len(data):
            break  # torn record header
        rec_magic, length, crc = _RECORD.unpack_from(data, offset)
        if rec_magic != _RECORD_MAGIC:
            break  # garbage tail
        start = offset + _RECORD.size
        end = start + length
        if end > len(data):
            break  # torn payload
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break  # corrupt payload (partial overwrite)
        records.append(pickle.loads(payload))
        offset = end
    return base_lsn, records, offset


class WriteAheadLog:
    """Appender over one WAL file.

    The constructor validates any existing log and truncates a torn tail
    so appends always extend a clean prefix.  ``sync`` controls whether
    each append fsyncs (durable default) or only flushes to the OS
    (faster, still crash-consistent at the record level for process
    crashes).
    """

    def __init__(self, path, sync=True):
        self.path = path
        self.sync = sync
        self._handle = None
        # Attached by the DurabilityManager; None keeps the log usable
        # standalone.  Hooks observe byte/fsync counts only — record
        # contents and append order are identical with telemetry on/off.
        self.telemetry = None
        base_lsn, records, clean_bytes = scan(path)
        self.base_lsn = base_lsn
        self.last_lsn = base_lsn + len(records)
        self.records_written = len(records)
        if os.path.exists(path):
            size = os.path.getsize(path)
            if clean_bytes < size:
                with open(path, "r+b") as handle:
                    handle.truncate(clean_bytes)
        else:
            self._write_header(base_lsn)

    def _write_header(self, base_lsn):
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # Write-then-rename: truncating the live log in place would leave
        # a 0-byte (headerless) file if the process died mid-write, and a
        # damaged header is a hard error on every later open — the one
        # crash window that could brick an otherwise healthy database.
        tmp_path = self.path + ".tmp"
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(_HEADER.pack(_FILE_MAGIC, _FORMAT_VERSION, base_lsn))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.path)
        finally:
            if os.path.exists(tmp_path):
                os.remove(tmp_path)
        self.base_lsn = base_lsn
        self.last_lsn = base_lsn
        self.records_written = 0

    def _ensure_open(self):
        if self._handle is None:
            self._handle = open(self.path, "ab")
        return self._handle

    def append(self, record):
        """Journal one logical mutation; returns its LSN.

        The record dict is augmented with the assigned ``lsn`` before
        encoding, so replay can cross-check ordering.
        """
        lsn = self.last_lsn + 1
        record = dict(record, lsn=lsn)
        handle = self._ensure_open()
        data = _encode(record)
        handle.write(data)
        handle.flush()
        if self.sync:
            os.fsync(handle.fileno())
        self.last_lsn = lsn
        self.records_written += 1
        if self.telemetry is not None:
            self.telemetry.on_wal_append(len(data), self.sync)
        return lsn

    def flush(self):
        """Flush and fsync any buffered appends (no-op when nothing is open)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            if self.telemetry is not None:
                self.telemetry.on_wal_fsync()

    def close(self):
        """Flush, fsync and release the file handle (idempotent)."""
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None

    def reset(self, base_lsn):
        """Start a fresh, empty log whose records continue from ``base_lsn``.

        Called after a checkpoint: everything at or below ``base_lsn`` now
        lives in the snapshot, so the old records are dead weight.  The
        header rewrite is atomic at the filesystem level (write + rename
        is overkill here — a torn header is detected and raised, never
        silently replayed).
        """
        self.close()
        self._write_header(base_lsn)

    def tail(self, after_lsn):
        """Records with ``lsn > after_lsn``, in order (re-reads the file)."""
        _base, records, _clean = scan(self.path)
        return [record for record in records if record["lsn"] > after_lsn]

    def __repr__(self):
        return "<WriteAheadLog %s: base=%d last=%d>" % (
            self.path,
            self.base_lsn,
            self.last_lsn,
        )
