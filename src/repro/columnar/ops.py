"""Batch operators over :class:`~repro.columnar.columns.ColumnStore`.

Each entry point mirrors one row-path operator from
:mod:`repro.ctables.algebra` and either returns a **bit-identical**
result or ``None`` (fall back to the row path).  The gating rules exist
purely to protect bit-identity:

* Ordering comparisons (``< <= > >=``) vectorize only over float64-exact
  numeric columns and numeric constants — Python compares int/float
  exactly, so every vectorized value must round-trip through float64.
* ``+ - *`` vectorize only over all-*float* columns (Python int
  arithmetic is exact where float64 rounds); ``/`` and ``^`` never
  vectorize (ZeroDivision/complex semantics stay on the row path).
* ``= <>`` additionally work over object columns whose cells are all of
  a ``ctables.schema.PLAIN`` type — NumPy object arrays apply Python
  ``==`` elementwise, which never raises on those.
* An atom whose *shape* cannot compile (``/``, ``^``, functions, free
  variables) sends the **whole conjunction** to the row path; one that
  only the column *contents* refuse is **residual** — bound on the rows
  the others' mask keeps, provided nothing skipped could have raised: it
  stands after every mask atom, or :func:`_cannot_raise`.  Otherwise,
  and when a row the split binds does raise, the conjunction falls back
  whole (``docs/columnar.md``, "The fallback rule").

Finding rows costs what it finds, not what the table holds:
:func:`scan_mask` compiles a conjunction and scans the unpruned chunks
into one boolean mask over the deterministic partition, and everything
that looks for rows — ``Filter`` and ``Join`` through
:func:`select_vectorized`, ``UPDATE`` / ``DELETE`` through
:func:`candidate_rows` — turns ``np.flatnonzero(mask)`` into table
positions through the store's ``positions()`` and touches only those rows.
Mixed tables split per row: deterministic rows (condition TRUE) take the
mask and then the residual, symbolic-remainder rows run the exact
``algebra.select`` row body one by one, and the two ascending halves
merge on row index — so output order is the row path's order, row for row.

A filter that kept only deterministic rows, as they are (no residual, no
symbolic remainder), and a projection passing such a result's columns
through build no ``CTRow``: the cells, gathered from the rows kept, go on
as a column-held table (``docs/columnar.md``, "Column-held results").
"""

import operator

import numpy as np

from repro.columnar import columns as C
from repro.ctables import algebra
from repro.ctables.schema import PLAIN, Schema
from repro.ctables.table import CTable, CTRow, columns_of
from repro.symbolic.conditions import conjoin, conjunction_of
from repro.symbolic.expression import (
    BinOp,
    ColumnTerm,
    Constant,
    UnaryOp,
)
from repro.util.errors import SchemaError

_OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_ORDERED = ("<", "<=", ">", ">=")
#: a op b  <=>  b mirror(op) a — for pruning when the constant is on the left.
_MIRROR = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_VEC_ARITH = ("+", "-", "*")


# ---------------------------------------------------------------------------
# Static vectorizability
# ---------------------------------------------------------------------------


def _expr_statically_ok(expr):
    if isinstance(expr, Constant):
        return True
    if isinstance(expr, ColumnTerm):
        return True
    if isinstance(expr, BinOp):
        return (
            expr.op in _VEC_ARITH
            and _expr_statically_ok(expr.left)
            and _expr_statically_ok(expr.right)
        )
    if isinstance(expr, UnaryOp):
        return expr.op == "-" and _expr_statically_ok(expr.operand)
    return False  # VarTerm, FuncTerm, params, var_create, …


def atom_statically_vectorizable(atom):
    """Could this atom *possibly* compile against a column store?  Reads
    the atom's shape only, so :func:`scan_mask` asks before it has a store;
    compilation still re-checks against actual column contents."""
    return _expr_statically_ok(atom.lhs) and _expr_statically_ok(atom.rhs)


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------
#
# Numeric nodes are tagged tuples evaluated per chunk:
#   ("scalar", float) | ("col", index) | ("bin", op, l, r) | ("neg", node)


def _compile_numeric(expr, store, under_arith=False):
    if isinstance(expr, Constant):
        as_float = C.exact_float(expr.value)
        if as_float is None:
            return None
        return ("scalar", as_float)
    if isinstance(expr, ColumnTerm):
        index = store.resolve(expr.name)
        if index is None:
            return None
        numeric = store.numeric(index)
        if numeric is None:
            return None
        if under_arith and not numeric[1]:
            return None  # int-bearing column: Python arithmetic is exact
        return ("col", index)
    if isinstance(expr, BinOp) and expr.op in _VEC_ARITH:
        left = _compile_numeric(expr.left, store, under_arith=True)
        right = _compile_numeric(expr.right, store, under_arith=True)
        if left is None or right is None:
            return None
        return ("bin", expr.op, left, right)
    if isinstance(expr, UnaryOp) and expr.op == "-":
        inner = _compile_numeric(expr.operand, store, under_arith=True)
        if inner is None:
            return None
        return ("neg", inner)
    return None


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _eval_numeric(node, store, start, end):
    tag = node[0]
    if tag == "scalar":
        return node[1]
    if tag == "col":
        return store.numeric(node[1])[0][start:end]
    if tag == "bin":
        left = _eval_numeric(node[2], store, start, end)
        right = _eval_numeric(node[3], store, start, end)
        with np.errstate(invalid="ignore", over="ignore"):  # IEEE, as the row path's floats
            return _ARITH[node[1]](left, right)
    return -_eval_numeric(node[1], store, start, end)


def _compile_object(expr, store):
    """Bare terms only; returns ("scalar", value) | ("col", index)."""
    if isinstance(expr, Constant):
        return ("scalar", expr.value)
    if isinstance(expr, ColumnTerm):
        index = store.resolve(expr.name)
        if index is None or store.det_objects(index) is None:
            return None
        return ("col", index)
    return None


def _eval_object(node, store, start, end):
    if node[0] == "scalar":
        return node[1]
    return np.asarray(
        store.det_objects(node[1])[start:end], dtype=object
    )


def _as_mask(result, length):
    if np.ndim(result) == 0:
        return np.full(length, bool(result), dtype=bool)
    return np.asarray(result, dtype=bool)


# ---------------------------------------------------------------------------
# Atom compilation
# ---------------------------------------------------------------------------


def _zone_reject(op, probe):
    """Chunk-level refutation for ``column op probe``: True only when NO
    deterministic row in the chunk can satisfy the atom.  NaN cells fail
    every comparison except ``<>`` (where they always succeed), and an
    all-NaN chunk has ``(None, None, True)`` bounds."""

    def reject(zone):
        low, high, has_nan = zone
        if low is None:  # all NaN
            return op != "<>"
        if op == "=":
            return probe < low or probe > high
        if op == "<>":
            return (not has_nan) and low == high == probe
        if op == "<":
            return low >= probe
        if op == "<=":
            return low > probe
        if op == ">":
            return high <= probe
        return high < probe  # ">="

    return reject


class _CompiledAtom:
    __slots__ = ("op", "left", "right", "mode", "zone_col", "zone_fn")

    def __init__(self, op, left, right, mode):
        self.op = op
        self.left = left
        self.right = right
        self.mode = mode  # "num" | "obj"
        self.zone_col = None
        self.zone_fn = None

    def mask(self, store, start, end):
        if self.mode == "num":
            left = _eval_numeric(self.left, store, start, end)
            right = _eval_numeric(self.right, store, start, end)
        else:
            left = _eval_object(self.left, store, start, end)
            right = _eval_object(self.right, store, start, end)
        return _as_mask(_OPS[self.op](left, right), end - start)


def _attach_zone_map(compiled):
    """Bare ``column op constant`` (either order) on a numeric column
    gains chunk pruning by zone map, for any comparison."""
    op, left, right = compiled.op, compiled.left, compiled.right
    if left[0] == "col" and right[0] == "scalar":
        index, probe = left[1], right[1]
    elif left[0] == "scalar" and right[0] == "col":
        index, probe = right[1], left[1]
        op = _MIRROR[op]
    else:
        return
    compiled.zone_col = index
    compiled.zone_fn = _zone_reject(op, probe)


def _compile_atom(atom, store):
    left = _compile_numeric(atom.lhs, store)
    right = _compile_numeric(atom.rhs, store)
    if left is not None and right is not None:
        compiled = _CompiledAtom(atom.op, left, right, "num")
        _attach_zone_map(compiled)
        return compiled
    if atom.op in ("=", "<>"):
        left = _compile_object(atom.lhs, store)
        right = _compile_object(atom.rhs, store)
        if left is not None and right is not None:
            return _CompiledAtom(atom.op, left, right, "obj")
    return None


# ---------------------------------------------------------------------------
# Filter
# ---------------------------------------------------------------------------


def _compile(table, atoms):
    """``(store, [compiled atom, or None where the column contents refuse])``
    — or ``None``, before any store is built, when a shape cannot compile."""
    if not all(map(atom_statically_vectorizable, atoms)):
        return None
    store = C.store_for(table)
    if store is None:
        return None
    return store, [_compile_atom(atom, store) for atom in atoms]


def _scan(db, store, compiled, context):
    """The mask of the deterministic rows every ``compiled`` atom keeps:
    zone-map pruning per chunk, then one pass over the chunks left."""
    n_det = len(store.det_rows)
    mask = np.ones(n_det, dtype=bool)
    scanned = pruned_zone = 0
    if compiled and n_det:
        zoned = [entry for entry in compiled if entry.zone_fn is not None]
        for ci, start, end in store.chunks():
            if any(entry.zone_fn(store.zones(entry.zone_col)[ci]) for entry in zoned):
                pruned_zone += 1
                mask[start:end] = False
                continue
            scanned += 1
            block = compiled[0].mask(store, start, end)
            for entry in compiled[1:]:
                block = np.logical_and(block, entry.mask(store, start, end))
            mask[start:end] = block

    if context is not None:
        context.chunks_scanned += scanned
        context.chunks_pruned_zone += pruned_zone
    telemetry = getattr(db, "telemetry", None)
    if telemetry is not None and (scanned or pruned_zone):
        telemetry.on_columnar_scan(scanned, pruned_zone)
    return mask


def scan_mask(db, table, atoms, context=None):
    """``(store, mask)`` for one conjunction of ``atoms`` over ``table`` —
    ``mask[p]`` says whether the ``p``-th row of the store's deterministic
    partition satisfies every atom — or ``None`` when any atom cannot
    vectorize.  The one way SELECT, JOIN, UPDATE and DELETE find rows."""
    found = _compile(table, atoms)
    if found is None or None in found[1]:
        return None
    store, compiled = found
    return store, _scan(db, store, compiled, context)


def _leaves(expr):
    if isinstance(expr, BinOp):
        return _leaves(expr.left) + _leaves(expr.right)
    return _leaves(expr.operand) if isinstance(expr, UnaryOp) else [expr]


def _cannot_raise(atom, store):
    """Whether binding and deciding ``atom`` (its shape passed: ``+ - *``)
    raises on no deterministic row: names resolve, what gets evaluated is
    plain numbers, and too few of them for an int to outgrow a float."""
    leaves = _leaves(atom.lhs) + _leaves(atom.rhs)
    return len(leaves) <= C.MAX_LEAVES and all(
        C.plain_number(leaf.value)
        if isinstance(leaf, Constant)
        else store.total(leaf.name)
        for leaf in leaves
    )


def select_vectorized(db, table, atoms, condition, context=None):
    """One conjunction of ``atoms`` over ``table``, or ``None`` when the
    row path must run it whole (module docstring: the fallback rule).
    ``condition`` is the row path's ``conjunction_of(*atoms)`` — the
    symbolic remainder binds it exactly as ``algebra.select`` would; a
    deterministic row the mask keeps binds only the residual atoms, and
    keeps its own condition object when they all decide true.  Whatever
    raises here, the row path raises at that row or an earlier one."""
    found = _compile(table, atoms)
    if found is None:
        return None
    store, compiled = found
    last_mask = max((j for j, e in enumerate(compiled) if e is not None), default=0)
    for atom, entry in zip(atoms[:last_mask], compiled):
        if entry is None and not _cannot_raise(atom, store):
            return None
    residual = [atom for atom, entry in zip(atoms, compiled) if entry is None]
    mask = _scan(db, store, [e for e in compiled if e is not None], context)
    rows = table.rows
    det_index, remainder = store.positions()
    kept = det_index[np.flatnonzero(mask)].tolist()
    if not (residual or len(remainder)) and table.schema.columns:
        # TRUE-condition rows carried as they are: their cells, no CTRow
        # (a table of no columns has no cells to count its rows by).
        return CTable.from_columns(
            table.schema,
            columns_of(map(rows.__getitem__, kept), len(table.schema)),
            name=table.name,
        )
    passes = [(remainder.tolist(), condition)]
    if residual:
        passes.insert(0, (kept, conjunction_of(*residual)))
        kept, out_rows = [], []
    else:
        out_rows = [
            CTRow(row.values, row.condition) for row in map(rows.__getitem__, kept)
        ]
    try:
        for indices, predicate in passes:
            for i in indices:
                row = rows[i]
                bound = predicate.bind_columns(table.row_mapping(row))
                if predicate is condition:
                    bound = conjoin(row.condition, bound)
                elif bound.is_true:
                    bound = row.condition  # as conjoin(φ, TRUE) is φ
                if not bound.is_false:
                    kept.append(i)
                    out_rows.append(CTRow(row.values, bound))
    except Exception:
        return None
    if context is not None:
        context.rows_bound += sum(len(indices) for indices, _ in passes)
    if len(remainder):
        # Both halves ascend by row index; merging on it is table order.
        out_rows = [out_rows[j] for j in np.argsort(kept).tolist()]
    return table.with_rows(out_rows)


def candidate_rows(db, table, disjuncts):
    """Ascending indices of the rows a DNF predicate can match: every
    deterministic row some disjunct's mask keeps, plus the whole symbolic
    remainder (its cells are not in the store; the caller's row-path
    check decides them, as it decides each hit).  ``None`` when any atom
    cannot vectorize — the caller then checks every row."""
    store = hit = None
    for atoms in disjuncts:
        scanned = scan_mask(db, table, atoms)
        if scanned is None:
            return None
        store, mask = scanned
        hit = mask if hit is None else hit | mask
    if store is None:
        return None
    det_index, sym_index = store.positions()
    found = det_index[np.flatnonzero(hit)]
    if len(sym_index):
        found = np.sort(np.concatenate((found, sym_index)))
    return found.tolist()


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def project(db, table, items):
    """``algebra.project`` with a batch fast path for item lists that only
    pass columns through (``SELECT a, b`` — the front end's ``(name,
    ColumnTerm)`` pairs included): column slices zip straight into the
    output rows, skipping the per-row mapping dict and the per-cell
    binding the row path does."""
    fast = _project_vectorized(table, items)
    if fast is not None:
        return fast
    return algebra.project(table, items)


def _project_vectorized(table, items):
    if not items:
        return None
    schema = table.schema
    out_columns = []
    picks, plain = [], []  # source column positions; those asked by reference
    for item in items:
        if isinstance(item, str):
            index = schema.index_of(item)  # same error as row path
            out_columns.append(schema.columns[index])
        else:
            name, expr = item
            if not isinstance(expr, ColumnTerm):
                return None
            # A reference resolves as ColumnTerm.bind_columns has it.  One
            # that does not goes to the row path, which raises for its
            # first row (and, having none to bind, not on an empty table).
            try:
                index = schema.index_of(expr.name)
            except SchemaError:
                return None
            out_columns.append((name, "any"))
            plain.append(index)
        picks.append(index)
    cells = table.cell_columns()
    # The row path hands back const_value() of the bound cell: the cell
    # itself only when it is one of the plain types (exact: whatever else
    # ``as_expression`` may wrap — expressions, random variables, NumPy
    # scalars — is the row path's to bind).
    if not all(PLAIN.issuperset(map(type, cells[index])) for index in plain):
        return None
    columns = [cells[index] for index in picks]
    if table.held:
        return CTable.from_columns(Schema(out_columns), columns, name=table.name)
    out = CTable(Schema(out_columns), name=table.name)
    out.rows = [
        CTRow(values, row.condition)
        for values, row in zip(zip(*columns), table.rows)
    ]
    return out
