"""The :class:`ColumnStore`: contiguous columns over a c-table's
deterministic rows.

A store is built lazily per table and cached on ``CTable.colstore``;
:func:`store_for` validates the cache against the table's row list
identity, row count and mutation ``version``.  The table's appends and
in-place updates hand each written row to :meth:`ColumnStore.patch`, so
a one-row write costs about one row; any other change of rows drops the
store, and the next reader rebuilds it.

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


def exact_float(value):
    """``float(value)`` for a ``float``, or an ``int`` float64 holds
    exactly; ``None`` for anything else (bool, NumPy scalar, str, …)."""
    try:
        if type(value) is float or type(value) is int and float(value) == value:
            return float(value)
    except OverflowError:  # an int past the largest float
        pass
    return None


def _total_cell(cell):
    """A cell :meth:`ColumnStore.total` lets a skipped atom bind."""
    return plain_number(cell) or (isinstance(cell, Expression) and bool(cell.variables()))


def _floats(values):
    """``(float64_array, all_float)`` if :func:`exact_float` holds for
    every cell, else ``None``: one NumPy pass, then a look at the cells
    at or past ±2**53 only, where an int may have rounded."""
    kinds = set(map(type, values))
    if not kinds <= {int, float}:
        return None
    try:
        array = np.array(values, dtype=np.float64)
    except OverflowError:
        return None
    if int in kinds:
        big = np.abs(array) >= SMALL_INT
        if big.any() and any(exact_float(values[j]) is None for j in np.flatnonzero(big).tolist()):
            return None
    return array[:], int not in kinds


def _grown(view, value):
    """``view`` (a slice of ``view.base``) one longer, ending in ``value``:
    written past every view handed out, or into a buffer twice the size."""
    buffer, n = view.base, len(view)
    if n == len(buffer):
        buffer = np.empty(2 * n + 16, dtype=view.dtype)
        buffer[:n] = view
    buffer[n] = value
    return buffer[: n + 1]


def _zone(block):
    """``(min, max, has_nan)`` of one chunk, ``(None, None, True)`` if all
    NaN; never a -0.0 bound (``+ 0.0``), whichever zero a tie would keep."""
    nan_mask = np.isnan(block)
    if nan_mask.all():
        return (None, None, True)
    clean = block[~nan_mask]
    return (float(clean.min()) + 0.0, float(clean.max()) + 0.0, bool(nan_mask.any()))


def _widened(zone, value):
    """:func:`_zone` of a chunk with zone ``zone`` and one more cell."""
    low, high, has_nan = zone
    if value != value:
        return (low, high, True)
    value += 0.0
    return (value, value, has_nan) if low is None else (
        min(low, value), max(high, value), has_nan)


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
        "_shared",
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
        # Mirrors dict(zip(names, values)): for duplicate column names the
        # last occurrence wins, exactly like CTable.row_mapping.
        self._name_index = {name: i for i, name in enumerate(self.schema_names)}
        self._clear()

    def _clear(self):
        """No cache built yet, and none shared with an alias."""
        self._shared, self._positions = False, None
        self._objects, self._det_clean, self._numeric, self._total, self._zones = (
            {}, {}, {}, {}, {})

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
        are the alias's own, until a patch (:meth:`_detach`)."""
        self._shared = True
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
            # Views of buffers of their own, so that an append can grow them.
            self._positions = [np.array(np.flatnonzero(half))[:] for half in (flags, ~flags)]
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
        matches = [key for key in self._name_index if key.split(".")[-1] == name]
        if len(matches) == 1:
            return self._name_index[matches[0]]
        return None

    # -- columns -----------------------------------------------------------------

    def objects(self, index):
        """The full object column (all rows, symbolic remainder included)."""
        column = self._objects.get(index)
        if column is None:
            column = self._objects[index] = [row.values[index] for row in self.rows_ref]
        return column

    def det_objects(self, index):
        """Deterministic-partition cells, only when every one is of a
        :data:`~repro.ctables.schema.PLAIN` type.  Binding any other cell
        is the row path's to do: an expression or random variable makes
        the atom symbolic, a list or a NumPy scalar converts or raises in
        ``as_expression`` — nothing a batch comparison can replicate."""
        cached = self._det_clean.get(index)
        if cached is None:
            column = [row.values[index] for row in self.det_rows]
            cached = self._det_clean[index] = PLAIN.issuperset(map(type, column)) and column
        return None if cached is False else cached

    def numeric(self, index):
        """``(float64_array, all_float)`` over the deterministic
        partition, or ``None`` when float64 cannot represent the column
        exactly.  ``all_float`` gates arithmetic vectorization: Python
        int arithmetic is exact where float64 rounds, so only all-float
        columns may enter vectorized ``+ - *`` (:func:`_floats`)."""
        cached = self._numeric.get(index)
        if cached is None:
            values = self.det_objects(index)
            cached = self._numeric[index] = (values is not None and _floats(values)) or False
        return cached or None

    def total(self, name):
        """Whether binding and deciding a ``+ - *`` comparison over column
        ``name`` can be skipped unseen on the deterministic partition: the
        name resolves and every cell is a :func:`plain_number` or an
        expression carrying a variable (its atom is never evaluated) —
        no string, bool, ``None`` or variable-free expression to raise on."""
        index = self.resolve(name)
        if index is not None and index not in self._total:
            self._total[index] = all(
                _total_cell(row.values[index]) for row in self.det_rows
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
        if zones is None:
            array = self.numeric(index)[0]
            zones = [_zone(array[start:end]) for _ci, start, end in self.chunks()]
            self._zones[index] = zones
        return zones

    # -- writes ------------------------------------------------------------------

    def patch(self, table, index, row, old=None):
        """Row ``index`` of ``table``, which this store described until
        now, is ``row``: appended, or written over ``old`` (same condition).
        Every cache built takes its cells in amortised O(1) (:meth:`_patch`)."""
        if self._shared:
            self._detach()
        self.n_rows, self.version = len(table.rows), table.version
        grow = old is None
        if grow:
            det = row.condition.is_true
            self.det_flags.append(det)
            self.all_det = self.all_det and det
            if self._positions is not None:
                self._positions[not det] = _grown(self._positions[not det], index)
        for i, column in self._objects.items():
            column[index : index + 1] = [row.values[i]]
        if not self.det_flags[index]:
            return
        p = len(self.det_rows) if grow else index if self.all_det else int(
            np.searchsorted(self.positions()[0], index))
        self.det_rows[p : p + 1] = [row]
        # A column with any cache has det_objects' (numeric asks it first).
        for i in self._det_clean.keys() | self._total.keys():
            if grow or row.values[i] is not old.values[i]:
                self._patch(i, p, row.values[i], grow)

    def _patch(self, index, p, cell, grow):
        """Cell ``p`` of the partition's column ``index`` is now ``cell``
        (appended when ``grow``): written into each cache built for the
        column if it keeps every verdict (an append leaves a refusal as
        it is), else the column's caches are dropped for a lazy rebuild."""
        clean, numeric = self._det_clean.get(index), self._numeric.get(index)
        total = self._total.get(index)
        as_float, is_float = exact_float(cell), type(cell) is float
        if (False in (clean, numeric, total) and not grow) or not (
            (clean in (None, False) or type(cell) in PLAIN)
            and (numeric in (None, False) or as_float is not None
                 and (grow or is_float == numeric[1]))
            and (not total or _total_cell(cell))
        ):
            for cache in (self._det_clean, self._numeric, self._total, self._zones):
                cache.pop(index, None)
            return
        if clean not in (None, False):
            clean[p : p + 1] = [cell]
        if numeric:
            view = _grown(numeric[0], as_float) if grow else numeric[0]
            view[p] = as_float
            self._numeric[index] = (view, numeric[1] and is_float)
            zones, size = self._zones.get(index), self.chunk_size
            if zones is not None:
                c = p // size
                zones[c : c + 1] = [
                    _widened(zones[c] if p % size else (None, None, False), as_float)
                    if grow else _zone(view[c * size : (c + 1) * size])
                ]

    def _detach(self):
        """Lists of its own and empty caches, taken before the first patch
        after :meth:`alias`: the twin keeps every container it shared."""
        self.det_flags, self.det_rows = list(self.det_flags), list(self.det_rows)
        self._clear()
