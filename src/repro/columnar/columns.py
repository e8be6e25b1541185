"""The :class:`ColumnStore`: contiguous columns over a c-table's
deterministic rows.

A store is built lazily per table and cached on ``CTable.colstore``;
:func:`store_for` validates the cache against the table's row list
identity, row count and mutation ``version``, and additionally registers
a CTable watcher hook that drops the cache on any ``add_row`` /
``update_rows`` / ``remove_rows`` — so the columnar view can never serve
stale data after a mutation.

The store partitions rows into the **deterministic partition** (rows
whose condition is TRUE) and the **symbolic remainder**; only the former
is columnised.  Per column it caches, on demand:

* the full object column (all rows — used by the snapshot packer),
* a ``float64`` array over the deterministic partition, built only when
  every cell is a non-bool int/float **and** every int survives the
  round trip ``float(v) == v`` (so float64 comparisons agree bit-for-bit
  with Python's exact int/float comparisons),
* per-chunk zone maps ``(min, max, has_nan)`` for scan pruning.

Chunks are ``DEFAULT_CHUNK`` deterministic rows; tests shrink the chunk
size to force boundary behaviour.

Every column cache is keyed by column *position*, so an aliased scan
(``FROM items i``) gets a store that shares them with the stored table's
(:meth:`ColumnStore.alias`): the names differ, the cells do not.
"""

import numpy as np

from repro.ctables.schema import PLAIN
from repro.symbolic.expression import Expression

#: Deterministic rows per chunk (zone map granularity).
DEFAULT_CHUNK = 4096

#: Ints up to here are float64-exact, and no ``+ - *`` tree over at most
#: ``MAX_LEAVES`` of them outgrows a float (``2**(53 * 19) < 2**1024``):
#: Python raises OverflowError when a larger int meets a float.
SMALL_INT = 2**53
MAX_LEAVES = 19


def plain_number(value):
    """A ``float`` or an ``int`` within ±:data:`SMALL_INT` — exact types,
    so no bool, NumPy scalar or subclass with arithmetic of its own."""
    kind = type(value)
    return kind is float or (kind is int and -SMALL_INT <= value <= SMALL_INT)


def _invalidate_store(table, _row):
    """CTable watcher hook: any mutation drops the cached column store."""
    table.colstore = None


def store_for(table, chunk_size=None):
    """The table's cached :class:`ColumnStore`, (re)built when stale.

    Returns ``None`` for objects without the ``colstore`` slot (plain
    mocks in tests); otherwise always returns a store valid for the
    table's current rows.
    """
    if not hasattr(table, "colstore"):
        return None
    store = table.colstore
    if (
        store is not None
        and store.valid_for(table)
        and (chunk_size is None or store.chunk_size == chunk_size)
    ):
        return store
    store = ColumnStore(table, chunk_size=chunk_size)
    table.colstore = store
    if _invalidate_store not in table.watchers:
        table.watchers.append(_invalidate_store)
    return store


class ColumnStore:
    """Columnar view of one c-table (see module docstring)."""

    __slots__ = (
        "schema_names",
        "rows_ref",
        "n_rows",
        "version",
        "chunk_size",
        "det_flags",
        "det_rows",
        "all_det",
        "_name_index",
        "_positions",
        "_objects",
        "_det_clean",
        "_numeric",
        "_total",
        "_zones",
    )

    def __init__(self, table, chunk_size=None):
        self.schema_names = list(table.schema.names)
        self.rows_ref = table.rows
        self.n_rows = len(table.rows)
        self.version = getattr(table, "version", 0)
        self.chunk_size = chunk_size or DEFAULT_CHUNK
        flags = [row.condition.is_true for row in table.rows]
        self.det_flags = flags
        self.det_rows = [row for row, det in zip(table.rows, flags) if det]
        self.all_det = len(self.det_rows) == self.n_rows
        self._positions = None
        # Mirrors dict(zip(names, values)): for duplicate column names the
        # last occurrence wins, exactly like CTable.row_mapping.
        self._name_index = {name: i for i, name in enumerate(self.schema_names)}
        self._objects = {}
        self._det_clean = {}
        self._numeric = {}
        self._total = {}
        self._zones = {}

    def valid_for(self, table):
        """Whether this store still describes ``table``'s current rows."""
        return (
            self.rows_ref is table.rows
            and self.n_rows == len(table.rows)
            and self.version == table.version
        )

    def alias(self, table):
        """A store for ``table`` — the same rows in a list of its own,
        under other column names (``algebra.prefix``).  Everything keyed
        by position is shared, caches included, so what either store
        materialises the other finds; only names, row list and version
        are the alias's own."""
        twin = ColumnStore.__new__(ColumnStore)
        for slot in ColumnStore.__slots__:
            setattr(twin, slot, getattr(self, slot))
        twin.schema_names = list(table.schema.names)
        twin._name_index = {name: i for i, name in enumerate(twin.schema_names)}
        twin.rows_ref = table.rows
        twin.version = table.version
        return twin

    def positions(self):
        """``(det_index, sym_index)`` — ``det_index[p]`` is the table
        index of the ``p``-th deterministic row, ``sym_index`` lists the
        symbolic remainder's — so that a mask over the partition becomes
        table positions by indexing, not by walking the table.  Built on
        first use."""
        if self._positions is None:
            flags = np.asarray(self.det_flags, dtype=bool)
            self._positions = (np.flatnonzero(flags), np.flatnonzero(~flags))
        return self._positions

    # -- name resolution ---------------------------------------------------------

    def resolve(self, name):
        """Column index for ``name`` under ColumnTerm.bind_columns
        semantics (exact → qualified-suffix → unique-suffix), or ``None``
        when the row path would fail or be ambiguous (caller falls back,
        and the row path raises the authoritative error)."""
        index = self._name_index.get(name)
        if index is not None:
            return index
        if "." in name:
            suffix = name.split(".")[-1]
            index = self._name_index.get(suffix)
            if index is not None:
                return index
        matches = [
            key for key in self._name_index if key.split(".")[-1] == name
        ]
        if len(matches) == 1:
            return self._name_index[matches[0]]
        return None

    # -- columns -----------------------------------------------------------------

    def objects(self, index):
        """The full object column (all rows, symbolic remainder included)."""
        column = self._objects.get(index)
        if column is None:
            column = [row.values[index] for row in self.rows_ref]
            self._objects[index] = column
        return column

    def det_objects(self, index):
        """Deterministic-partition cells, only when every one is of a
        :data:`~repro.ctables.schema.PLAIN` type.  Binding any other cell
        is the row path's to do: an expression or random variable makes
        the atom symbolic, a list or a NumPy scalar converts or raises in
        ``as_expression`` — nothing a batch comparison can replicate."""
        cached = self._det_clean.get(index)
        if cached is not None:
            return cached if cached is not False else None
        column = [row.values[index] for row in self.det_rows]
        clean = PLAIN.issuperset(map(type, column))
        self._det_clean[index] = column if clean else False
        return column if clean else None

    def numeric(self, index):
        """``(float64_array, all_float)`` over the deterministic
        partition, or ``None`` when float64 cannot represent the column
        exactly.  ``all_float`` gates arithmetic vectorization: Python
        int arithmetic is exact where float64 rounds, so only all-float
        columns may enter vectorized ``+ - *``."""
        cached = self._numeric.get(index)
        if cached is not None:
            return cached if cached is not False else None
        values = self.det_objects(index)
        if values is None:
            self._numeric[index] = False
            return None
        floats = []
        all_float = True
        for value in values:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                self._numeric[index] = False
                return None
            if isinstance(value, int):
                all_float = False
                try:
                    as_float = float(value)
                except OverflowError:
                    self._numeric[index] = False
                    return None
                if as_float != value:  # beyond 2**53: float64 would lie
                    self._numeric[index] = False
                    return None
                floats.append(as_float)
            else:
                floats.append(value)
        result = (np.asarray(floats, dtype=np.float64), all_float)
        self._numeric[index] = result
        return result

    def total(self, name):
        """Whether binding and deciding a ``+ - *`` comparison over column
        ``name`` can be skipped unseen on the deterministic partition: the
        name resolves and every cell is a :func:`plain_number` or an
        expression carrying a variable (its atom is never evaluated) —
        no string, bool, ``None`` or variable-free expression to raise on."""
        index = self.resolve(name)
        if index is not None and index not in self._total:
            self._total[index] = all(
                plain_number(cell)
                or (isinstance(cell, Expression) and bool(cell.variables()))
                for cell in (row.values[index] for row in self.det_rows)
            )
        return self._total.get(index, False)

    # -- chunks / pruning --------------------------------------------------------

    def chunks(self):
        """``(chunk_index, start, end)`` spans over the deterministic rows."""
        size = self.chunk_size
        total = len(self.det_rows)
        return [
            (ci, start, min(start + size, total))
            for ci, start in enumerate(range(0, total, size))
        ]

    def zones(self, index):
        """Per-chunk ``(min, max, has_nan)`` zone maps for a numeric
        column; ``(None, None, True)`` marks an all-NaN chunk."""
        zones = self._zones.get(index)
        if zones is not None:
            return zones
        array = self.numeric(index)[0]
        zones = []
        for _ci, start, end in self.chunks():
            block = array[start:end]
            nan_mask = np.isnan(block)
            if nan_mask.all():
                zones.append((None, None, True))
            else:
                clean = block[~nan_mask]
                zones.append(
                    (float(clean.min()), float(clean.max()), bool(nan_mask.any()))
                )
        self._zones[index] = zones
        return zones
