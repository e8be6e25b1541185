"""Durable storage: write-ahead logging, snapshot checkpoints, recovery.

PIP state is tiny — symbolic rows, variable definitions, deterministic
seeds — which makes durability unusually cheap: persisting the catalog
lets a restarted process *regenerate or reload* bit-identical samples
instead of recomputing anything.  The subsystem has four layers:

* :mod:`repro.storage.wal` — an append-only journal of logical mutations
  (CRC-framed pickle records; torn tails are detected and dropped).
* :mod:`repro.storage.snapshot` — catalog checkpoints: pickled schemas,
  rows and conditions plus ``.npz`` sidecars for numeric columns.
* :mod:`repro.storage.records` — the logical mutation record: the one
  vocabulary and the one ``apply`` that live statements and replay share.
* :mod:`repro.storage.recovery` — snapshot restore, then the WAL tail's
  committed records applied to a fresh database.

:class:`~repro.storage.manager.DurabilityManager` ties them to one
directory; the user-facing entry point is
:meth:`PIPDatabase.open() <repro.core.database.PIPDatabase.open>`.
See ``docs/durability.md`` for the storage layout and lifecycle.
"""

from repro.storage.manager import DurabilityManager, bank_dir, read_meta, write_meta
from repro.storage.snapshot import list_snapshots, load_snapshot, write_snapshot
from repro.storage.wal import WriteAheadLog, scan

__all__ = [
    "DurabilityManager",
    "WriteAheadLog",
    "scan",
    "write_snapshot",
    "load_snapshot",
    "list_snapshots",
    "bank_dir",
    "read_meta",
    "write_meta",
]
