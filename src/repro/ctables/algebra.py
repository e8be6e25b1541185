"""Relational algebra on c-tables (Figure 1 of the paper).

Each operator is a pure function from c-tables to a new c-table.  The
probabilistic part of the data is never touched: selection predicates that
involve random variables become condition atoms on the surviving rows, and
rows whose condition is decidably FALSE are dropped (the paper's
"inconsistent tuples may be freely removed").

Predicates are written against *column names* using
:class:`~repro.symbolic.expression.ColumnTerm` leaves; each operator binds
them to the actual cell values row by row.  A bound atom whose operands are
all constants is decided on the spot; otherwise it lands in the row's local
condition.
"""

from repro.ctables.schema import Schema
from repro.ctables.table import CTable, CTRow
from repro.symbolic.atoms import Atom
from repro.symbolic.conditions import (
    Condition,
    Conjunction,
    TRUE,
    conjoin,
    conjunction_of,
    disjoin,
)
from repro.symbolic.expression import Expression, as_expression
from repro.util.errors import PIPError, SchemaError


def _as_condition(predicate):
    """Coerce a predicate (Atom / Condition / iterable of atoms) to a Condition."""
    if isinstance(predicate, Condition):
        return predicate
    if isinstance(predicate, Atom):
        return conjunction_of(predicate)
    if isinstance(predicate, (list, tuple)):
        return conjunction_of(*predicate)
    raise PIPError("cannot interpret %r as a selection predicate" % (predicate,))


def select(table, predicate):
    """σ_ψ: conjoin the (column-bound) predicate onto each row's condition.

    ``C_{σψ(R)} = {| (r, φ ∧ ψ[r]) | (r, φ) ∈ C_R |}`` — with rows whose
    combined condition is decidably false removed.
    """
    condition = _as_condition(predicate)
    out_rows = []
    for row in table.rows:
        bound = condition.bind_columns(table.row_mapping(row))
        combined = conjoin(row.condition, bound)
        if not combined.is_false:
            out_rows.append(CTRow(row.values, combined))
    return table.with_rows(out_rows)


def select_fn(table, fn):
    """Deterministic selection by a Python callable over the row mapping.

    Only usable when the callable needs no random variables; used by
    workload code for plain filters.
    """
    out_rows = [row for row in table.rows if fn(table.row_mapping(row))]
    return table.with_rows(out_rows)


def project(table, items):
    """π: keep/compute columns.  ``items`` is a list of either

    * a column name (pass-through), or
    * a ``(new_name, expression)`` pair whose expression may reference
      columns; the expression is bound per row and may be symbolic.
    """
    out_columns = []
    builders = []
    for item in items:
        if isinstance(item, str):
            idx = table.schema.index_of(item)
            out_columns.append(table.schema.columns[idx])
            builders.append(("col", idx))
        else:
            name, expr = item
            expr = as_expression(expr)
            out_columns.append((name, "any"))
            builders.append(("expr", expr))
    schema = Schema(out_columns)
    out = CTable(schema, name=table.name)
    for row in table.rows:
        mapping = table.row_mapping(row)
        values = []
        for kind, payload in builders:
            if kind == "col":
                values.append(row.values[payload])
            else:
                bound = payload.bind_columns(mapping)
                if bound.is_constant:
                    values.append(bound.const_value())
                else:
                    values.append(bound)
        out.rows.append(CTRow(tuple(values), row.condition))
    return out


def product(left, right):
    """×: concatenate tuples, conjoin conditions; drop decided-false rows."""
    schema = left.schema.concat(right.schema)
    out = CTable(schema)
    for lrow in left.rows:
        for rrow in right.rows:
            combined = conjoin(lrow.condition, rrow.condition)
            if not combined.is_false:
                out.rows.append(CTRow(lrow.values + rrow.values, combined))
    return out


def join(left, right, predicate):
    """θ-join: product followed by selection."""
    return select(product(left, right), predicate)


def union(left, right):
    """⊎: bag union.  Arity must match; the left schema wins."""
    if len(left.schema) != len(right.schema):
        raise SchemaError(
            "union arity mismatch: %d vs %d" % (len(left.schema), len(right.schema))
        )
    out = left.with_rows(list(left.rows) + list(right.rows))
    return out


def distinct(table):
    """Duplicate elimination: group equal tuples, OR their conditions.

    ``C_distinct(R) = {| (r, ∨{φ}) |}``.  The resulting conditions may be
    DNF disjunctions; downstream operators and ``aconf`` handle them.
    """
    order = []
    by_key = {}
    for row in table.rows:
        key = row.value_key()
        if key not in by_key:
            by_key[key] = (row.values, [])
            order.append(key)
        by_key[key][1].append(row.condition)
    out_rows = []
    for key in order:
        values, conditions = by_key[key]
        if any(c.is_true for c in conditions):
            merged = TRUE
        else:
            merged = disjoin(conditions)
        out_rows.append(CTRow(values, merged))
    return table.with_rows(out_rows)


def difference(left, right):
    """R − S on distinct inputs (Fig. 1's last rule).

    For each distinct left row r with condition φ: if r also appears in
    distinct(S) with condition π, the result row carries φ ∧ ¬π; otherwise
    it carries φ unchanged.  ¬π of a conjunction is a DNF disjunction, so
    result conditions may be disjunctive.
    """
    if len(left.schema) != len(right.schema):
        raise SchemaError("difference arity mismatch")
    left_d = distinct(left)
    right_d = distinct(right)
    right_index = {row.value_key(): row.condition for row in right_d.rows}
    out_rows = []
    for row in left_d.rows:
        other = right_index.get(row.value_key())
        if other is None:
            out_rows.append(row)
            continue
        negated = other.negate()
        combined = conjoin(row.condition, negated)
        if not combined.is_false:
            out_rows.append(CTRow(row.values, combined))
    return left_d.with_rows(out_rows)


def rename(table, mapping):
    """ρ: rename columns per ``mapping`` (old name -> new name)."""
    return CTable(table.schema.rename(mapping), list(table.rows), name=table.name)


def prefix(table, alias):
    """Qualify every column as ``alias.column`` (used by scans).

    The rows are the source's own, so their arity needs no second check,
    and a column store the source already holds serves the alias too."""
    out = CTable(table.schema.prefixed(alias), name=alias)
    out.rows = list(table.rows)
    store = table.colstore
    if store is not None and store.valid_for(table):
        out.colstore = store.alias(out)
    return out


def order_by(table, column, descending=False, key=None):
    """Sort rows by a deterministic column.

    Cells holding symbolic expressions cannot be ordered without sampling;
    they raise.  ``key`` optionally post-processes cell values.
    """
    idx = table.schema.index_of(column)

    def sort_key(row):
        value = row.values[idx]
        if isinstance(value, Expression):
            raise PIPError(
                "cannot ORDER BY symbolic column %r; aggregate first"
                % (table.schema.names[idx],)
            )
        return key(value) if key else value

    rows = sorted(table.rows, key=sort_key, reverse=descending)
    return table.with_rows(rows)


def partition(table, group_columns):
    """Group rows by deterministic column values (for GROUP BY).

    Returns ``[(key_tuple, sub_table), …]`` in first-seen key order.
    Grouping on a symbolic cell raises: the paper considers grouping by
    uncertain columns "of doubtful value" and PIP restricts grouping to
    nonprobabilistic columns.
    """
    indices = [table.schema.index_of(c) for c in group_columns]
    order = []
    groups = {}
    for row in table.rows:
        key = []
        for idx in indices:
            value = row.values[idx]
            if isinstance(value, Expression):
                raise PIPError(
                    "GROUP BY on uncertain column %r is not supported"
                    % (table.schema.names[idx],)
                )
            key.append(value)
        key = tuple(key)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    return [(key, table.with_rows(groups[key])) for key in order]


def limit(table, count, offset=0):
    """LIMIT/OFFSET over the current row order; a column-held table is
    sliced by column and stays held (no row built to keep ``count``)."""
    if table.held:
        columns = table.cell_columns(offset, offset + count)
        return CTable.from_columns(table.schema, columns, name=table.name)
    return table.with_rows(table.rows[offset : offset + count])
