"""Snapshot checkpoints: one-shot serialization of the whole catalog.

A snapshot captures everything recovery needs *except* the WAL tail: the
variable-factory watermark, every stored c-table (schemas, rows, row
conditions, aliasing), and any distribution classes registered beyond the
built-ins.  Symbolic state (expressions, atoms, conditions, variables)
pickles through the ``util/slotstate.py`` hooks the parallel executor
installed, so a restored row is structurally identical to the original —
which is what keeps sample-bank keys stable across restarts.

Numeric payloads take the npz side door: any column whose cells are all
plain ints/floats is lifted out of the pickle into a compressed ``.npz``
sidecar (one array per column), the same storage tier the sample bank
spills to.  Large deterministic tables — the TPC-H generators, monitoring
feeds — then checkpoint as packed arrays instead of pickled object soup.

Files are written ``<name>.tmp`` → ``os.replace`` so a crash mid-checkpoint
can never leave a half-written snapshot at a live name; recovery simply
uses the newest snapshot whose files load cleanly.
"""

import glob
import os
import pickle
import re

import numpy as np

from repro.columnar.columns import store_for
from repro.util.errors import StorageError

_FORMAT_VERSION = 1
_SNAPSHOT_RE = re.compile(r"snapshot-(\d{16})\.pkl$")

#: Cell marker for a column stored in the npz sidecar.
_NPZ_COLUMN = "__pip_npz_column__"


def snapshot_path(directory, lsn):
    return os.path.join(directory, "snapshot-%016d.pkl" % (lsn,))


def _npz_path(pkl_path):
    return pkl_path[: -len(".pkl")] + ".npz"


def _numeric_column(values):
    """An int64/float64 array for all-numeric cells, else ``None``.

    ``bool`` is excluded (it is an ``int`` subclass but must round-trip as
    bool), as is anything symbolic.
    """
    if not values:
        return None
    has_float = False
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        has_float = has_float or isinstance(value, float)
    dtype = np.float64 if has_float else np.int64
    return np.asarray(values, dtype=dtype)


def _pack_table(index, table, arrays):
    """Pickle-side payload for one table, lifting numeric columns to npz.

    The cells come from the table's column store (:mod:`repro.columnar`),
    which writes keep up to date, so a checkpoint re-walks no row it has
    columnised before.  The npz dtype decision stays with
    :func:`_numeric_column` (int64 for all-int columns, which the float64
    columnar arrays can't represent).
    """
    store = store_for(table)
    columns_values = [store.objects(i) for i in range(len(table.schema))]
    packed_columns = []
    for position in range(len(table.schema)):
        array = _numeric_column(columns_values[position])
        if array is not None:
            arrays["t%d_c%d" % (index, position)] = array
            packed_columns.append(_NPZ_COLUMN)
        else:
            packed_columns.append(columns_values[position])
    return {
        "columns": [(c.name, c.ctype) for c in table.schema.columns],
        "cells": packed_columns,
        "conditions": [row.condition for row in table.rows],
        "n_rows": len(table.rows),
    }


def _unpack_table(payload, index, npz, name):
    from repro.ctables.schema import Schema
    from repro.ctables.table import CTable, CTRow

    table = CTable(Schema(payload["columns"]), name=name)
    n_rows = payload["n_rows"]
    columns_values = []
    for position, cells in enumerate(payload["cells"]):
        if cells == _NPZ_COLUMN:
            array = npz["t%d_c%d" % (index, position)]
            cells = [value.item() for value in array]
        columns_values.append(cells)
    conditions = payload["conditions"]
    for i in range(n_rows):
        values = tuple(cells[i] for cells in columns_values)
        table.rows.append(CTRow(values, conditions[i]))
    return table


def write_snapshot(directory, lsn, db, extra_distributions):
    """Serialize the catalog of ``db`` as the state up to ``lsn``.

    ``extra_distributions`` is the list of distribution instances (beyond
    the built-ins) that must be re-registered before rows referencing them
    can sample again.  Returns the snapshot's ``.pkl`` path.
    """
    os.makedirs(directory, exist_ok=True)
    # Group stored names by table identity so aliases restore as aliases
    # (dropping one name must not invalidate the survivor's bank entries).
    groups = []
    seen = {}
    for name in db.tables:  # insertion order = registration order
        table = db.tables[name]
        position = seen.get(id(table))
        if position is None:
            seen[id(table)] = len(groups)
            groups.append([[name], table])
        else:
            groups[position][0].append(name)

    arrays = {}
    tables = []
    for index, (names, table) in enumerate(groups):
        payload = _pack_table(index, table, arrays)
        payload["names"] = list(names)
        payload["table_name"] = table.name
        tables.append(payload)

    manifest = {
        "format": _FORMAT_VERSION,
        "lsn": lsn,
        "seed": db.seed,
        "next_vid": db.factory._next_vid,
        "tables": tables,
        "distributions": list(extra_distributions),
    }

    pkl_path = snapshot_path(directory, lsn)
    npz_path = _npz_path(pkl_path)
    pkl_tmp, npz_tmp = pkl_path + ".tmp", npz_path + ".tmp"
    try:
        with open(npz_tmp, "wb") as handle:
            np.savez_compressed(handle, **arrays) if arrays else np.savez(handle)
            handle.flush()
            os.fsync(handle.fileno())
        with open(pkl_tmp, "wb") as handle:
            pickle.dump(manifest, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        # npz first: a snapshot whose .pkl exists must have its sidecar.
        os.replace(npz_tmp, npz_path)
        os.replace(pkl_tmp, pkl_path)
    finally:
        for leftover in (pkl_tmp, npz_tmp):
            if os.path.exists(leftover):
                os.remove(leftover)
    return pkl_path


def list_snapshots(directory):
    """Snapshot ``(lsn, pkl_path)`` pairs, newest last."""
    out = []
    for path in glob.glob(os.path.join(directory, "snapshot-*.pkl")):
        match = _SNAPSHOT_RE.search(os.path.basename(path))
        if match:
            out.append((int(match.group(1)), path))
    out.sort()
    return out


def load_snapshot(pkl_path):
    """Decode one snapshot into ``(manifest, tables_by_name)``.

    ``tables_by_name`` maps every stored name to its :class:`CTable`;
    aliases map to the *same* object.  Raises :class:`StorageError` when
    the files do not decode (recovery falls back to an older snapshot).
    """
    try:
        with open(pkl_path, "rb") as handle:
            manifest = pickle.load(handle)
        if manifest.get("format") != _FORMAT_VERSION:
            raise StorageError(
                "snapshot %r has format %r; this build reads %d"
                % (pkl_path, manifest.get("format"), _FORMAT_VERSION)
            )
        with np.load(_npz_path(pkl_path)) as npz:
            tables = {}
            for index, payload in enumerate(manifest["tables"]):
                table = _unpack_table(
                    payload, index, npz, payload.get("table_name")
                )
                for name in payload["names"]:
                    tables[name] = table
        return manifest, tables
    except StorageError:
        raise
    except Exception as exc:
        raise StorageError(
            "snapshot %r is unreadable: %s" % (pkl_path, exc)
        ) from exc
