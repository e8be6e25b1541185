"""Conditional tables (c-tables).

A c-table is a multiset of ``(tuple, condition)`` rows (Section II-A).
Data cells hold domain values or symbolic equations; the condition column
holds a boolean condition over random variables (almost always a
conjunction — see :mod:`repro.symbolic.conditions`).

The table itself is deliberately dumb: all relational-algebra behaviour
lives in :mod:`repro.ctables.algebra`, and all probability machinery in
:mod:`repro.sampling`.
"""

from operator import itemgetter

from repro.ctables.schema import Column, Schema
from repro.symbolic.conditions import Condition, TRUE
from repro.symbolic.expression import Expression, as_expression
from repro.util.errors import SchemaError
from repro.util.text import render_table


class CTRow:
    """One c-table row: a value tuple plus its local condition."""

    __slots__ = ("values", "condition")

    def __init__(self, values, condition=TRUE):
        if not isinstance(condition, Condition):
            raise SchemaError("row condition must be a Condition, got %r" % (condition,))
        self.values = tuple(values)
        self.condition = condition

    def value_key(self):
        """Hashable identity of the data tuple (conditions excluded).

        Expressions contribute their structural key; used by ``distinct``."""
        return tuple(
            v.key() if isinstance(v, Expression) else ("lit", v) for v in self.values
        )

    def variables(self):
        """All random variables in cells or the condition."""
        out = self.condition.variables()
        for value in self.values:
            if isinstance(value, Expression):
                out |= value.variables()
        return out

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __repr__(self):
        return "CTRow(%r, %r)" % (self.values, self.condition)


class CTable:
    """A multiset c-table over a fixed schema.

    ``watchers`` is a list of callables invoked as ``watcher(table, row)``
    after every :meth:`add_row` append.  The database registers one per
    stored table so mutations can invalidate dependent sample-bank entries;
    derived tables (copies, algebra results) start with no watchers.  An
    append or an in-place update patches the cached column store
    (``colstore``, :mod:`repro.columnar.columns`); any other change drops it.

    A result whose conditions are all TRUE can be **column-held**
    (:meth:`from_columns`): one list of cells per column and no
    :class:`CTRow` until :attr:`rows` is first read — which builds them,
    once, so whatever reads ``rows`` sees what it always saw.
    """

    __slots__ = (
        "schema", "_rows", "_columns", "name", "watchers", "version", "colstore"
    )

    def __init__(self, schema, rows=(), name=None):
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self.schema = schema
        self.name = name
        self.watchers = []
        # Mutation counter + cached columnar view (repro.columnar).  The
        # version lets ColumnStore validate itself even when a mutation
        # replaces cells without changing row count or list identity.
        self.version = 0
        self.rows = []  # (the setter starts without a column store)
        for row in rows:
            if isinstance(row, CTRow):
                self._check_arity(row.values)
                self.rows.append(row)
            else:
                self.add_row(row)

    @classmethod
    def from_columns(cls, schema, columns, name=None):
        """A column-held table, every condition TRUE: ``columns`` is one
        equally long list of cells per schema column (:meth:`check_columns`
        validates), kept as it is — nobody may change it afterwards."""
        table = cls(schema, name=name)
        if columns:  # no columns, no cells to hold: the empty table
            table._rows = None
            table._columns = columns
        return table

    @property
    def rows(self):
        """The row list; a column-held table builds it on first read."""
        rows = self._rows
        if rows is None:
            rows = self._rows = [CTRow(values) for values in zip(*self._columns)]
            self._columns = None
        return rows

    @rows.setter
    def rows(self, rows):
        self._rows = rows
        self._columns = None
        self.colstore = None

    @property
    def held(self):
        """Whether the cells are still held as columns (no row built)."""
        return self._rows is None

    def materialize(self):
        """This table, its rows built: what a statement hands out."""
        _ = self.rows
        return self

    def _check_arity(self, values):
        if len(values) != len(self.schema):
            raise SchemaError(
                "row arity %d does not match schema arity %d"
                % (len(values), len(self.schema))
            )

    def check_row(self, values, condition=TRUE):
        """Raise ``SchemaError`` unless ``(values, condition)`` could be
        added: arity, declared column types, and a real ``Condition``."""
        self._check_arity(values)
        for column, value in zip(self.schema.columns, values):
            if not column.accepts(value):
                raise SchemaError(
                    "value %r not valid for column %s:%s"
                    % (value, column.name, column.ctype)
                )
        if not isinstance(condition, Condition):
            raise SchemaError("row condition must be a Condition, got %r" % (condition,))

    def check_columns(self, columns):
        """:meth:`check_row` for every row of ``columns`` (one list of
        cells per column), without a walk over rows unless one fails."""
        self._check_arity(columns)
        if len(set(map(len, columns))) > 1:
            raise SchemaError("columns of unequal length")
        if not all(map(Column.accepts_all, self.schema.columns, columns)):
            for values in zip(*columns):
                self.check_row(values)

    def add_row(self, values, condition=TRUE):
        """Append a row; values are validated against declared column types."""
        self.check_row(values, condition)
        self._append(values, condition)

    def add_rows(self, pairs):
        """Append a list of ``(values, condition)`` pairs, all or none:
        every pair is validated before the first is appended."""
        for values, condition in pairs:
            self.check_row(values, condition)
        for values, condition in pairs:
            self._append(values, condition)

    def _append(self, values, condition):
        if condition.is_false:
            return  # inconsistent rows may be freely removed (Section III-C)
        row = CTRow(values, condition)
        store = self._live_store()
        self.rows.append(row)
        self.version += 1
        if store is not None:
            store.patch(self, len(self.rows) - 1, row)
        for watcher in self.watchers:
            watcher(self, row)

    def update_rows(self, updates):
        """Replace row values in place: ``updates`` is a sequence of
        ``(row_index, new_values)`` pairs.

        Every replacement is validated (arity + column types) *before*
        any row changes, so a bad assignment leaves the table untouched.
        Conditions are preserved — UPDATE rewrites data cells, never a
        row's membership.  Watchers fire once with the old row and once
        with the new one (both rows' random variables may anchor cached
        sample-bank entries), mirroring :meth:`add_row`/:meth:`remove_rows`
        so the database's invalidation and write-ahead journaling see
        updates too.  Returns the number of rows replaced.
        """
        staged = []
        for index, values in updates:
            old = self.rows[index]
            values = tuple(values)
            self.check_row(values)
            staged.append((index, old, CTRow(values, old.condition)))
        store = self._live_store()
        self.version += bool(staged)
        for index, old, new in staged:
            self.rows[index] = new
            if store is not None:
                store.patch(self, index, new, old)
        for _index, old, new in staged:
            for watcher in self.watchers:
                watcher(self, old)
                watcher(self, new)
        return len(staged)

    def _live_store(self):
        """The column store, while it describes the rows as they stand."""
        store = self.colstore
        return store if store is not None and store.valid_for(self) else None

    def remove_rows(self, rows):
        """Remove specific row objects (matched by identity, not value —
        a bag may hold equal rows and only the chosen copies must go).

        Watchers fire once per removed row, exactly as :meth:`add_row`
        fires per appended row, so the database's sample-bank
        invalidation and write-ahead journaling see deletes too.
        Returns how many rows were removed.
        """
        doomed = {id(row) for row in rows}
        removed = [row for row in self.rows if id(row) in doomed]
        if not removed:
            return 0
        self.rows = [row for row in self.rows if id(row) not in doomed]
        self.version += 1
        for row in removed:
            for watcher in self.watchers:
                watcher(self, row)
        return len(removed)

    # -- accessors -------------------------------------------------------------

    @property
    def columns(self):
        return self.schema.names

    def __len__(self):
        if self._rows is None:
            return len(self._columns[0])
        return len(self._rows)

    def __iter__(self):
        return iter(self.rows)

    def column_values(self, name):
        """All values in column ``name`` (one per row, conditions ignored)."""
        idx = self.schema.index_of(name)
        if self._rows is None:
            return list(self._columns[idx])
        return [row.values[idx] for row in self._rows]

    def value_tuples(self):
        """Every row's value tuple, in row order (conditions ignored)."""
        if self._rows is None:
            return list(zip(*self._columns))
        return [row.values for row in self._rows]

    def cell_columns(self, start=0, stop=None):
        """The cells of ``rows[start:stop]``, one sequence per schema
        column: slices of the held columns, else gathered from the rows."""
        if self._rows is None:
            return [column[start:stop] for column in self._columns]
        return columns_of(self._rows[start:stop], len(self.schema))

    def cell(self, row_index, column_name):
        return self.rows[row_index].values[self.schema.index_of(column_name)]

    def row_mapping(self, row):
        """Dict of column name -> cell value for expression binding."""
        return dict(zip(self.schema.names, row.values))

    def variables(self):
        """All random variables appearing anywhere in the table."""
        out = frozenset()
        for row in self.rows:
            out |= row.variables()
        return out

    @property
    def is_deterministic(self):
        """No symbolic cells and every condition is TRUE."""
        return all(row.condition.is_true and not row.variables() for row in self.rows)

    def copy(self, name=None):
        """Shallow copy (rows are immutable, so sharing them is safe)."""
        return self.with_rows(self.rows, name=name)

    def with_rows(self, rows, name=None):
        """New table over the same schema with different rows."""
        table = CTable(self.schema, (), name=name or self.name)
        table.rows = list(rows)
        return table

    # -- pickling ----------------------------------------------------------------

    def __getstate__(self):
        # The cached columnar view is derived data (and heavy); rebuild
        # it lazily on the other side instead of shipping it.
        return (self.schema, self.rows, self.name, self.watchers, self.version)

    def __setstate__(self, state):
        self.schema, self.rows, self.name, self.watchers, self.version = state

    # -- display ------------------------------------------------------------------

    def pretty(self, max_rows=25):
        """Human-readable rendering including the condition column."""
        headers = list(self.schema.names) + ["condition"]
        shown = self.rows[:max_rows]
        body = [list(map(_show, row.values)) + [repr(row.condition)] for row in shown]
        if len(self.rows) > max_rows:
            body.append(["…"] * len(headers))
        title = "%s (%d rows)" % (self.name or "ctable", len(self.rows))
        return render_table(headers, body, title=title)

    def __repr__(self):
        return "<CTable %s: %d cols, %d rows>" % (
            self.name or "?",
            len(self.schema),
            len(self),
        )


def columns_of(rows, arity):
    """The cells of ``rows``, one list per column (not ``zip(*values)``:
    an iterator per row is as many tracked allocations as a scan has rows)."""
    values = [row.values for row in rows]
    return [list(map(itemgetter(i), values)) for i in range(arity)]


def _show(value):
    if isinstance(value, Expression):
        return repr(value)
    return value


def table_from_rows(column_names, plain_rows, name=None):
    """Build a fully deterministic c-table from plain tuples."""
    table = CTable(Schema(list(column_names)), name=name)
    for values in plain_rows:
        table.add_row([as_expression(v).const_value() if isinstance(v, Expression) else v for v in values])
    return table
