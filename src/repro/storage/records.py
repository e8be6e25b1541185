"""The logical mutation record: one vocabulary, one :func:`apply`.

A mutation is a plain dict — its fields, then ``"op"`` — that the
write-ahead log pickles as it stands (the manager adds the ``next_vid``
watermark, the log the ``lsn``).  This is the only module under
``src/repro`` that spells an op name or a record field: the builders turn
*already resolved* arguments into a record, :func:`apply` turns a record
into the catalog change, and ``docs/durability.md`` tabulates both.
Autocommit statements, transaction staging and WAL replay all run that
one ``apply``, against a *catalog view* that the shared catalog
(:class:`~repro.core.database.PIPDatabase`) and a transaction's overlay
(:class:`~repro.session.transaction.Transaction`) both offer:
``resolve_table(name)`` (or ``SchemaError``), ``writable_table(name)``
(the object a write mutates in place: the stored one, or a transaction's
copy made on first write), ``bind_table(name, table)`` (returns a name
the object already had, if any), ``unbind_table(name)``,
``rows_changed(rows)`` (a transaction collects their variables; stored
tables tell the bank themselves, through their watchers),
``allocate_variable(dist_name, params)``, ``keep_distribution(instance)``.

``register``, ``create_variable`` and ``register_distribution`` describe
an *outcome* (the caller's own table object, the identifier an
allocation got, a registration that took a ``replace`` flag): the live
path acts through the view first and builds the record afterwards, and
only replay applies them.  A record that cannot be applied raises before
anything changes: ``SchemaError`` when it disagrees with the catalog,
``StorageError`` when it is no record of this vocabulary.
"""

import operator

from repro.ctables.schema import Schema
from repro.ctables.table import CTable, CTRow
from repro.util.errors import SchemaError, StorageError

#: The transaction-frame marks (see :func:`repro.storage.recovery.replay`).
TXN_BEGIN = "txn_begin"
TXN_COMMIT = "txn_commit"
TXN_ABORT = "txn_abort"

#: Fields a record may lack (logs older than transaction frames carry no vid).
_OPTIONAL = {"vid": None}


def _record(op, *values):
    """``values`` under the op's field names (``_VOCABULARY``, below)."""
    return dict(zip(_VOCABULARY[op][0], values), op=op)


# -- builders: resolved arguments -> record -------------------------------------


def create_table(name, columns):
    return _record("create_table", name, list(columns))


def drop_table(name):
    return _record("drop_table", name)


def insert(name, values, condition):
    return _record("insert", name, tuple(values), condition)


def insert_many(name, pairs):
    return _record("insert_many", name, pairs)


def delete(name, indices):
    return _record("delete", name, indices)


def update(name, updates):
    """``updates``: ``(row index, new values tuple)`` pairs — the values,
    not the ``SET`` expressions, so replay repeats what was computed."""
    return _record("update", name, updates)


def register(name, table):
    """The transcript of a table object already bound to ``name``."""
    columns = [(c.name, c.ctype) for c in table.schema.columns]
    rows = [(row.values, row.condition) for row in table.rows]
    return _record("register", name, table.name, columns, rows)


def register_alias(name, source):
    return _record("register_alias", name, source)


def create_variable(dist_name, params, vid):
    """``vid``: the identifier the allocation got (replay pins it)."""
    return _record("create_variable", dist_name, tuple(params), vid)


def register_distribution(instance):
    return _record("register_distribution", instance)


def frame_mark(op, txn):
    return {"txn": txn, "op": op}


def healing_abort(begin):
    """The abort mark recovery appends for ``begin``, the ``TXN_BEGIN``
    record of a frame a crash left open (written straight to the log, so
    without a watermark)."""
    return {"op": TXN_ABORT, "txn": begin.get("txn")}


# -- readers ---------------------------------------------------------------------


def table_name(record):
    """The table a record writes (``None``: variables, distributions, marks)."""
    return record.get("name")


def describe(record):
    return "WAL record %r (%s)" % (record.get("lsn"), record.get("op"))


# -- apply: record -> catalog change -----------------------------------------------


def apply(record, catalog):
    """Make the change ``record`` describes, through ``catalog`` (the view
    in the module docstring); returns the table or variable(s) it made."""
    try:
        fields, handler = _VOCABULARY[record["op"]]
    except (KeyError, TypeError):
        raise StorageError(
            "WAL record %r has unknown op %r" % (record.get("lsn"), record.get("op"))
        ) from None
    try:
        values = [record[f] if f in record else _OPTIONAL[f] for f in fields]
    except KeyError as exc:
        raise StorageError("%s has no %s field" % (describe(record), exc)) from None
    return handler(catalog, *values)


def _listed(value, what):
    if not isinstance(value, (tuple, list)):
        raise SchemaError("%s must be a list or tuple, got %r" % (what, value))
    return value


def _pairs(value, what):
    try:
        return [(first, second) for first, second in value]
    except (TypeError, ValueError):
        raise SchemaError(
            "%s must be a sequence of pairs, got %r" % (what, value)
        ) from None


def _row_index(index, table):
    try:
        position = operator.index(index)
    except TypeError:
        position = -1
    if not 0 <= position < len(table.rows):
        raise SchemaError(
            "row index %r is outside table %r (%d rows)"
            % (index, table.name, len(table.rows))
        )
    return position


def _create_table(catalog, name, columns):
    try:
        catalog.resolve_table(name)
    except SchemaError:
        pass
    else:
        raise SchemaError("table %r already exists" % (name,))
    table = CTable(Schema(_listed(columns, "columns")), name=name)
    catalog.bind_table(name, table)
    return table


def _drop_table(catalog, name):
    catalog.unbind_table(name)


def _insert(catalog, name, values, condition):
    _insert_many(catalog, name, [(values, condition)])


def _insert_many(catalog, name, pairs):
    table = catalog.writable_table(name)
    before = len(table.rows)
    table.add_rows(
        [
            (_listed(values, "row values"), condition)
            for values, condition in _pairs(pairs, "inserted rows")
        ]
    )
    catalog.rows_changed(table.rows[before:])
    return table


def _delete(catalog, name, indices):
    table = catalog.writable_table(name)
    doomed = [
        table.rows[_row_index(index, table)]
        for index in _listed(indices, "row indices")
    ]
    table.remove_rows(doomed)
    catalog.rows_changed(doomed)


def _update(catalog, name, updates):
    table = catalog.writable_table(name)
    updates = [
        (_row_index(index, table), _listed(values, "row values"))
        for index, values in _pairs(updates, "updates")
    ]
    old = [table.rows[index] for index, _new in updates]
    table.update_rows(updates)
    catalog.rows_changed(old)
    catalog.rows_changed([table.rows[index] for index, _new in updates])


def _register(catalog, name, stored_name, columns, rows):
    table = CTable(Schema(_listed(columns, "columns")), name=stored_name)
    table.rows = [
        CTRow(_listed(values, "row values"), condition)
        for values, condition in _pairs(rows, "registered rows")
    ]
    catalog.bind_table(name, table)
    return table


def _register_alias(catalog, name, source):
    catalog.bind_table(name, catalog.resolve_table(source))


def _create_variable(catalog, dist_name, params, vid):
    if vid is not None:
        if type(vid) is not int or vid < 1:
            raise SchemaError("variable identifier %r is not a positive int" % (vid,))
        # A frame journals its creations at commit, possibly after
        # autocommit creations that allocated later vids: pinning makes
        # the allocation independent of journal order.
        catalog.factory._next_vid = vid
    return catalog.allocate_variable(dist_name, params)


def _register_distribution(catalog, instance):
    from repro.distributions import register_distribution as register_globally

    register_globally(instance, replace=True)
    catalog.keep_distribution(instance)


#: op -> (fields in record order, apply handler).
_VOCABULARY = {
    "create_table": (("name", "columns"), _create_table),
    "drop_table": (("name",), _drop_table),
    "insert": (("name", "values", "condition"), _insert),
    "insert_many": (("name", "pairs"), _insert_many),
    "delete": (("name", "indices"), _delete),
    "update": (("name", "updates"), _update),
    "register": (("name", "table_name", "columns", "rows"), _register),
    "register_alias": (("name", "source"), _register_alias),
    "create_variable": (("dist_name", "params", "vid"), _create_variable),
    "register_distribution": (("instance",), _register_distribution),
}
