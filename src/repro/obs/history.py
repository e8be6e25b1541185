"""The persistent query-profile history (``pip_query_history``).

Every finished *relational* statement leaves one bounded history record:
timestamp, collapsed statement text, plan digest, trace id, elapsed
wall, row count, the statement's sample-bank deltas, and a per-operator
wall summary when tracing was on.  The store is the SkyServer lesson
(PAPERS.md) applied to PIP — the query workload of a served database is
itself the key dataset for operating it.

Three read paths share the one store:

* SQL — ``db.sql("SELECT ... FROM pip_query_history")`` via the
  database's virtual-catalog hook (:meth:`PIPDatabase.table`), which
  materialises the ring buffer as an ordinary c-table per statement;
* HTTP — ``GET /v1/history?db=NAME`` on the server;
* gauges — record/segment/byte/dropped counts on ``/metrics/{db}``.

Durability: databases opened with :meth:`PIPDatabase.open` attach the
store to ``<dbpath>/obs/``, where full segments of records are written
as JSON files (flushed on checkpoint and close, pruned to a bounded
segment count, reloaded on reopen).  In-memory databases keep only the
ring buffer.  Recording is observe-only — it never touches the WAL,
sampling streams or result rows — so enabling it preserves bit-identity
(``tests/test_observability.py`` holds the proof).

Example
-------
>>> history = QueryHistory(max_records=2)
>>> for n in range(3):
...     history.record({"statement": "q%d" % n, "elapsed": 0.1, "rows": 1})
>>> [r["statement"] for r in history.records()]
['q1', 'q2']
>>> history.dropped
1
"""

import json
import os
import threading
from collections import deque

#: Column layout of the ``pip_query_history`` virtual table.
HISTORY_SCHEMA = (
    ("ts", "float"),
    ("statement", "str"),
    ("plan", "str"),
    ("trace_id", "str"),
    ("elapsed", "float"),
    ("rows", "int"),
    ("bank_hits", "int"),
    ("bank_misses", "int"),
    ("samples_drawn", "int"),
    ("samples_reused", "int"),
    ("operators", "str"),
)

#: Names served by the database's virtual-catalog hook rather than the
#: stored-table catalog; mutating statements refuse these names.
VIRTUAL_TABLES = frozenset({"pip_query_history"})

_SEGMENT_PREFIX = "history-"
_SEGMENT_SUFFIX = ".json"


class QueryHistory:
    """Bounded ring buffer of statement profiles with on-disk segments.

    Parameters
    ----------
    max_records:
        Ring-buffer capacity; the oldest record is dropped (and counted)
        when a new one arrives at capacity.
    segment_records:
        Records per on-disk segment file (disk-backed stores only).
    max_segments:
        Segments kept on disk; older ones are pruned at flush.
    enabled:
        ``False`` turns :meth:`record` into a no-op (``PIP_QUERY_HISTORY=0``).
    """

    def __init__(self, max_records=512, segment_records=128, max_segments=8,
                 enabled=True):
        self.enabled = enabled
        self.max_records = max_records
        self.segment_records = max(1, segment_records)
        self.max_segments = max(1, max_segments)
        self.dropped = 0
        self._records = deque(maxlen=max_records)
        self._pending = []  # recorded since the last flush (disk-backed)
        self._dir = None
        self._next_segment = 1
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------------

    def record(self, entry):
        """File one statement profile (a plain JSON-safe dict)."""
        if not self.enabled:
            return
        with self._lock:
            if len(self._records) == self.max_records:
                self.dropped += 1
            self._records.append(entry)
            if self._dir is not None:
                self._pending.append(entry)
                if len(self._pending) >= self.segment_records:
                    self._flush_locked()

    # -- reading ------------------------------------------------------------------

    def records(self, limit=None):
        """A snapshot of the retained records, oldest first."""
        with self._lock:
            out = list(self._records)
        if limit is not None:
            out = out[-max(0, int(limit)):]
        return out

    def __len__(self):
        return len(self._records)

    def as_table(self, name="pip_query_history"):
        """The history as a fresh :class:`~repro.ctables.table.CTable`.

        Built per call — the virtual-catalog hook hands every statement
        its own materialisation, so the columnar layer's per-object
        caches can never serve a stale snapshot.
        """
        from repro.ctables.schema import Schema
        from repro.ctables.table import CTable

        table = CTable(Schema(list(HISTORY_SCHEMA)), name=name)
        for entry in self.records():
            table.add_row(tuple(
                entry.get(column, _DEFAULTS[ctype])
                for column, ctype in HISTORY_SCHEMA
            ))
        return table

    # -- the disk tier ------------------------------------------------------------

    @property
    def directory(self):
        return self._dir

    def attach_dir(self, path):
        """Bind the store to ``<dbpath>/obs/`` and reload prior segments.

        Called by :meth:`PIPDatabase.open` after recovery; the newest
        ``max_records`` records across the retained segments come back
        into the ring buffer, oldest first.
        """
        os.makedirs(path, exist_ok=True)
        with self._lock:
            self._dir = path
            loaded = []
            for index, segment in self._segments_locked():
                self._next_segment = max(self._next_segment, index + 1)
                try:
                    with open(segment, encoding="utf-8") as handle:
                        loaded.extend(json.load(handle))
                except (OSError, ValueError):
                    continue  # a torn segment loses its records, not the db
            for entry in loaded:
                self._records.append(entry)
        return self

    def flush(self):
        """Write pending records as one segment (no-op when in-memory)."""
        with self._lock:
            self._flush_locked()

    def _flush_locked(self):
        if self._dir is None or not self._pending:
            return
        segment = os.path.join(
            self._dir,
            "%s%06d%s" % (_SEGMENT_PREFIX, self._next_segment, _SEGMENT_SUFFIX),
        )
        tmp = segment + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(self._pending, handle, separators=(",", ":"),
                          default=str)
            os.replace(tmp, segment)
        except OSError:
            return  # history is best-effort; never fail the statement
        self._next_segment += 1
        self._pending = []
        for _index, stale in self._segments_locked()[: -self.max_segments]:
            try:
                os.remove(stale)
            except OSError:
                pass

    def _segments_locked(self):
        """``(index, path)`` pairs of on-disk segments, oldest first."""
        if self._dir is None:
            return []
        out = []
        try:
            names = os.listdir(self._dir)
        except OSError:
            return []
        for name in names:
            if not (name.startswith(_SEGMENT_PREFIX)
                    and name.endswith(_SEGMENT_SUFFIX)):
                continue
            stem = name[len(_SEGMENT_PREFIX): -len(_SEGMENT_SUFFIX)]
            try:
                index = int(stem)
            except ValueError:
                continue
            out.append((index, os.path.join(self._dir, name)))
        out.sort()
        return out

    # -- gauges -------------------------------------------------------------------

    def segment_count(self):
        return len(self._segments_locked())

    def bytes_on_disk(self):
        total = 0
        for _index, segment in self._segments_locked():
            try:
                total += os.path.getsize(segment)
            except OSError:
                pass
        return total

    def __repr__(self):
        return "<QueryHistory %d record(s)%s%s>" % (
            len(self._records),
            (", dir=%s" % (self._dir,)) if self._dir else "",
            "" if self.enabled else ", disabled",
        )


_DEFAULTS = {"float": 0.0, "int": 0, "str": ""}
