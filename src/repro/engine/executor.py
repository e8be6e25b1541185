"""Plan execution over c-tables.

The executor interprets **logical plans** (:mod:`repro.engine.plan`)
against the relational algebra of :mod:`repro.ctables.algebra` and the
sampling operators of :mod:`repro.core.operators`.  It is deliberately a
straight tree-walk: PIP leans on its host DBMS's optimiser for the
deterministic part of the plan, and our "host" is the planner's rewrite
passes plus the algebra layer.

The ResultSet-returning entry points live on
:class:`~repro.core.database.PIPDatabase` and
:class:`~repro.engine.prepared.PreparedStatement`, which call
:func:`execute_plan` with an :class:`~repro.engine.results.ExecContext`
to collect per-cell estimate metadata.
"""

from time import perf_counter

from repro.columnar import ops as cops
from repro.ctables import algebra
from repro.ctables.table import CTable, CTRow
from repro.core import operators as ops
from repro.engine import plan as P
from repro.engine.results import ExecContext, normal_interval
from repro.engine.rewriter import to_dnf
from repro.engine.sqlast import VarCreateTerm, contains_var_create, map_expr_tree
from repro.symbolic.conditions import conjunction_at, conjunction_of
from repro.symbolic.expression import ColumnTerm, Expression, VarTerm
from repro.util.errors import PlanError, SchemaError


# ---------------------------------------------------------------------------
# Plan interpreter
# ---------------------------------------------------------------------------


def execute_plan(db, plan, context=None):
    """Run a (bound) logical plan against a PIPDatabase.

    ``context`` is an optional :class:`ExecContext`; when provided, the
    probability-removing operators record per-cell estimate metadata into
    it.  Returns a c-table for relational plans, the stored table for
    CREATE/INSERT, and ``None`` for DROP.
    """
    if context is None:
        context = ExecContext()

    if isinstance(plan, P.CreateTable):
        return db.create_table(plan.table_name, plan.columns)
    if isinstance(plan, P.InsertRows):
        # Through insert_many, so SQL inserts share the conditional-row
        # handling and sample-bank mutation watchers of the Python API.
        return db.insert_many(plan.table_name, _literal_rows(plan.rows))
    if isinstance(plan, P.DropTable):
        db.drop_table(plan.table_name)
        return None
    if isinstance(plan, P.DeleteRows):
        # Through db.delete, so SQL deletes share the deterministic-
        # predicate check, the mutation watchers (sample-bank
        # invalidation) and the write-ahead journaling of the Python API.
        return db.delete(plan.table_name, plan.disjuncts)
    if isinstance(plan, P.UpdateRows):
        # Same discipline as DELETE: db.update owns predicate checking,
        # watcher firing and journaling for SQL and Python callers alike.
        return db.update(plan.table_name, plan.assignments, plan.disjuncts)
    if isinstance(plan, P.TransactionControl):
        # BEGIN/COMMIT/ROLLBACK act on the session issuing the statement;
        # the database resolves it from the execution context.
        db.run_transaction_control(plan.kind)
        return None
    if isinstance(plan, P.Explain):
        return _execute_explain(db, plan, context)

    return _execute_relational(db, plan, context)


def _execute_explain(db, plan, context):
    """EXPLAIN renders; EXPLAIN ANALYZE executes with a plan profile.

    Returns the rendered tree as a string (never a c-table).  The
    analyzed child runs exactly as it would standalone — the profile
    only *observes* through the per-operator wrapper — so the sampling
    work EXPLAIN ANALYZE reports is the work the real query would do.
    """
    if not plan.analyze:
        return plan.child.explain()
    from repro.engine.results import PlanProfile

    profile = PlanProfile()
    previous = context.profile
    context.profile = profile
    start = perf_counter()
    try:
        _execute_relational(db, plan.child, context)
    finally:
        context.profile = previous
    total = perf_counter() - start
    return "EXPLAIN ANALYZE (total %.3f ms)\n%s" % (
        total * 1000.0,
        plan.child.explain(profile),
    )


def _literal_rows(rows):
    """Fold any remaining (bound) expressions in INSERT values."""
    out = []
    for row in rows:
        values = []
        for value in row:
            if isinstance(value, Expression):
                if not value.is_constant:
                    raise PlanError(
                        "INSERT value %r is not constant; bind parameters first"
                        % (value,)
                    )
                value = value.const_value()
            values.append(value)
        out.append(tuple(values))
    return out


def _execute_relational(db, plan, context):
    """Dispatch one relational node, observing it when asked to.

    The fast path — no plan profile, tracing off — is a couple of
    attribute reads before delegating, so queries pay nothing for the
    instrumentation they don't use.  The observed path only *reads*
    clocks and bank counters around the node; the node body is the same
    either way, which is what keeps enabled/disabled runs bit-identical.
    """
    profile = context.profile
    telemetry = getattr(db, "telemetry", None)
    traced = telemetry is not None and telemetry.tracer.enabled
    if profile is None and not traced:
        return _dispatch_relational(db, plan, context)
    counters = db.sample_bank.stats_counters
    before = (
        counters.samples_drawn,
        counters.samples_served,
        counters.hits,
        counters.misses,
        counters.topups,
    )
    chunks_before = context.scan_counts()
    start = perf_counter()
    if traced:
        with telemetry.tracer.span(
            "execute." + type(plan).__name__, node=plan.label()
        ):
            out = _dispatch_relational(db, plan, context)
    else:
        out = _dispatch_relational(db, plan, context)
    if profile is not None:
        profile.record(
            plan,
            perf_counter() - start,
            len(out),
            counters,
            before,
            chunks=[
                now - was for now, was in zip(context.scan_counts(), chunks_before)
            ],
        )
    return out


def _dispatch_relational(db, plan, context):
    if isinstance(plan, P.Scan):
        table = db.table(plan.table_name)
        if db.telemetry is not None:
            db.telemetry.on_rows_scanned(len(table.rows))
        if plan.alias:
            return algebra.prefix(table, plan.alias)
        return table
    if isinstance(plan, P.TableValue):
        return plan.table
    if isinstance(plan, P.Prefix):
        return algebra.prefix(_execute_relational(db, plan.child, context), plan.alias)
    if isinstance(plan, P.Filter):
        return _execute_filter(db, plan, context)
    if isinstance(plan, P.Project):
        return _execute_project(db, plan, context)
    if isinstance(plan, P.Join):
        mark = len(context.estimates)
        left = _execute_relational(db, plan.left, context)
        right = _execute_relational(db, plan.right, context)
        del context.estimates[mark:]  # rows multiply: can't attribute
        # θ-join = product, then the selection a Filter would run.
        return _select_conjunction(
            db, algebra.product(left, right), plan.atoms, context
        )
    if isinstance(plan, P.Product):
        mark = len(context.estimates)
        left = _execute_relational(db, plan.left, context)
        right = _execute_relational(db, plan.right, context)
        del context.estimates[mark:]  # rows multiply: can't attribute
        return algebra.product(left, right)
    if isinstance(plan, P.Union):
        left = _execute_relational(db, plan.left, context)
        mark = len(context.estimates)
        right = _execute_relational(db, plan.right, context)
        # Bag union appends the right branch's rows after the left's, and
        # the left schema's column names win: shift the right branch's
        # estimate indices and retarget their columns positionally (drop
        # any estimate whose column can't be located in the right schema).
        kept = []
        for estimate in context.estimates[mark:]:
            try:
                position = right.schema.index_of(estimate.column)
            except SchemaError:
                continue
            if position >= len(left.schema):
                continue
            estimate.column = left.schema.names[position]
            estimate.row_index += len(left.rows)
            kept.append(estimate)
        context.estimates[mark:] = kept
        return algebra.union(left, right)
    if isinstance(plan, P.Difference):
        mark = len(context.estimates)
        left = _execute_relational(db, plan.left, context)
        right = _execute_relational(db, plan.right, context)
        del context.estimates[mark:]  # distinct-coalescing: can't attribute
        return algebra.difference(left, right)
    if isinstance(plan, P.Distinct):
        mark = len(context.estimates)
        table = _execute_relational(db, plan.child, context)
        out = algebra.distinct(table)
        if len(context.estimates) > mark and len(out.rows) != len(table.rows):
            del context.estimates[mark:]  # rows coalesced: can't attribute
        return out
    if isinstance(plan, P.Rename):
        return algebra.rename(
            _execute_relational(db, plan.child, context), plan.mapping
        )
    if isinstance(plan, P.OrderBy):
        mark = len(context.estimates)
        table = _execute_relational(db, plan.child, context)
        before = list(table.rows)
        # Stable sorts compose right-to-left: sort by the minor keys first
        # so the first declared key ends up primary.
        for column, descending in reversed(plan.keys):
            table = algebra.order_by(table, column, descending=descending)
        _remap_estimates_by_identity(context, mark, before, table.rows)
        return table
    if isinstance(plan, P.Limit):
        mark = len(context.estimates)
        table = _execute_relational(db, plan.child, context)
        out = algebra.limit(table, plan.count, plan.offset)
        _remap_estimates_by_slice(context, mark, plan.offset, plan.count)
        return out
    if isinstance(plan, P.RowOps):
        return _execute_row_ops(db, plan, context)
    if isinstance(plan, P.Aggregate):
        return _execute_aggregate(db, plan, context)
    if isinstance(plan, P.Having):
        mark = len(context.estimates)
        table = _execute_relational(db, plan.child, context)
        out = _apply_having(table, plan.predicate)
        _remap_estimates_by_identity(context, mark, table.rows, out.rows)
        return out
    raise PlanError("cannot execute plan node %r" % (plan,))


# -- estimate bookkeeping ------------------------------------------------------
#
# Probability-removing operators record estimates with their own output
# row order.  Operators above them that subset or reorder rows (ORDER BY,
# LIMIT, HAVING) re-map the indices so ResultSet.estimate() addresses the
# *final* rows; where attribution would be ambiguous the affected
# estimates are dropped rather than misattributed.


def _remap_estimates_by_identity(context, mark, before_rows, after_rows):
    """Re-index estimates recorded since ``mark`` through a row
    permutation/subset that preserved row object identity."""
    tail = context.estimates[mark:]
    if not tail:
        return
    if len(before_rows) == len(after_rows) and all(
        new is old for new, old in zip(after_rows, before_rows)
    ):
        return  # order unchanged
    ids = [id(row) for row in before_rows]
    if len(set(ids)) != len(ids):
        del context.estimates[mark:]  # ambiguous bag: drop, don't guess
        return
    positions = {id(row): i for i, row in enumerate(after_rows)}
    kept = []
    for estimate in tail:
        if estimate.row_index >= len(before_rows):
            continue
        new_index = positions.get(ids[estimate.row_index])
        if new_index is None:
            continue  # row filtered away
        estimate.row_index = new_index
        kept.append(estimate)
    context.estimates[mark:] = kept


def _remap_estimates_by_slice(context, mark, offset, count):
    """Re-index estimates through LIMIT/OFFSET (purely positional)."""
    kept = []
    for estimate in context.estimates[mark:]:
        new_index = estimate.row_index - offset
        if 0 <= new_index < count:
            estimate.row_index = new_index
            kept.append(estimate)
    context.estimates[mark:] = kept


def _retarget_estimates_through_projection(context, mark, end, items):
    """Carry estimates in ``[mark, end)`` through a projection.

    An estimate survives only when its column passes through *faithfully*
    — a bare name or a simple ``(name, ColumnTerm)`` rename of the same
    source cell — and its column is updated to the output name.  Dropped
    or recomputed columns lose their provenance; a column that merely
    inherits the estimated column's *name* (rename collision) does not
    adopt its estimate.  ``items`` must be star-expanded.
    """
    if end <= mark:
        return
    faithful = {}
    for item in items:
        if isinstance(item, str):
            faithful.setdefault(item.split(".")[-1], item)
        else:
            name, expr = item
            if isinstance(expr, ColumnTerm):
                faithful.setdefault(expr.name.split(".")[-1], name)
    kept = []
    for estimate in context.estimates[mark:end]:
        target = faithful.get(estimate.column.split(".")[-1])
        if target is None:
            continue
        estimate.column = target
        kept.append(estimate)
    context.estimates[mark:end] = kept


# -- selection ----------------------------------------------------------------


def _execute_filter(db, plan, context):
    mark = len(context.estimates)
    table = _execute_relational(db, plan.child, context)
    out = _apply_filter(db, table, plan, context)
    # Selection rebuilds row objects; estimate indices stay aligned only
    # for single-branch filters that dropped no row.  Multi-disjunct DNF
    # bag-unions its branches, which can reorder/duplicate rows even at
    # equal counts — attribution is never safe there.
    if len(context.estimates) > mark and (
        (plan.disjuncts is not None and len(plan.disjuncts) != 1)
        or len(out) != len(table)
    ):
        del context.estimates[mark:]
    return out


def _apply_filter(db, table, plan, context):
    if plan.fn is not None:
        return algebra.select_fn(table, plan.fn)
    if plan.condition is not None:
        return algebra.select(table, plan.condition)
    disjuncts = plan.disjuncts
    if not disjuncts:
        return table.with_rows([])  # folded-FALSE WHERE
    # The paper's DNF encoding: one selection per disjunct, bag-unioned
    # (DISTINCT later coalesces them into DNF row conditions).
    branches = [
        _select_conjunction(db, table, atoms, context) for atoms in disjuncts
    ]
    merged = branches[0]
    for branch in branches[1:]:
        merged = algebra.union(merged, branch)
    return merged


def _select_conjunction(db, table, atoms, context):
    """σ of one conjunction: the atoms that compare bit-identically as
    arrays mask the deterministic rows and the rest is bound only on the
    rows the mask keeps.  ``select_vectorized`` returns None when an
    atom's shape cannot compile, when skipping a row could skip an error
    or when a row did raise, and the whole conjunction then takes the row
    path (which owns the per-row error short-circuits)."""
    condition = conjunction_of(*atoms)
    out = cops.select_vectorized(db, table, atoms, condition, context)
    if out is not None:
        return out
    context.rows_bound += len(table.rows)
    return algebra.select(table, condition)


def _apply_having(result, having):
    """HAVING over the (deterministic) aggregate output.

    The paper's rewrite moves CTYPE predicates out of HAVING; here the
    aggregate results are already deterministic scalars, so HAVING is a
    plain filter over the result rows.  A predicate that fails to decide
    (e.g. referencing a still-symbolic column) is an error.
    """
    disjuncts = list(to_dnf(having))
    kept = []
    for row in result.rows:
        mapping = result.row_mapping(row)
        satisfied = False
        for position in range(len(disjuncts)):
            bound = conjunction_at(disjuncts, position).bind_columns(mapping)
            if bound.is_true:
                satisfied = True
                break
            if not bound.is_false:
                raise PlanError(
                    "HAVING predicate is not deterministic for row %r" % (row,)
                )
        if satisfied:
            kept.append(row)
    return result.with_rows(kept)


# -- projection ----------------------------------------------------------------


def instantiate_var_terms(expr, factory):
    """Replace every ``create_variable(…)`` with a freshly allocated
    variable.  Parameters must already be bound to constants.

    The created variables escape into the result set — the caller may
    hold them long after the statement (or its enclosing transaction) is
    gone — so their identifiers are pinned against any later rollback
    rewind: a vid that escaped must never be minted for a different
    distribution.
    """
    created_any = []

    def replace(node):
        if not isinstance(node, VarCreateTerm):
            return None
        params = []
        for param in node.param_exprs:
            if not param.is_constant:
                raise PlanError(
                    "create_variable() parameter %r is not constant for this row"
                    % (param,)
                )
            params.append(param.const_value())
        created = factory.create(node.dist_name, params)
        if isinstance(created, list):
            raise PlanError(
                "multivariate create_variable() needs explicit component "
                "selection; use the Python API"
            )
        created_any.append(True)
        return VarTerm(created)

    out = map_expr_tree(expr, replace)
    if created_any:
        factory.mark_durable()
    return out


def _expand_items(table, plan):
    """Concrete projection items: star expansion + declared items."""
    items = []
    if plan.star:
        items.extend(table.schema.names)
    items.extend(plan.items)
    if not items:
        raise PlanError("SELECT list is empty")
    return items


def _execute_project(db, plan, context):
    mark = len(context.estimates)
    table = _execute_relational(db, plan.child, context)
    items = _expand_items(table, plan)
    out = _apply_project(db, table, items)
    # Projection preserves row order 1:1, but may drop, rename, or
    # recompute the column an estimate describes.
    _retarget_estimates_through_projection(
        context, mark, len(context.estimates), items
    )
    return out


def _apply_project(db, table, items):

    needs_vars = any(
        isinstance(spec, tuple) and contains_var_create(spec[1]) for spec in items
    )
    if not needs_vars:
        return cops.project(db, table, items)

    # Per-row variable instantiation (CREATE VARIABLE semantics).
    out_columns = [
        (spec, "any") if isinstance(spec, str) else (spec[0], "any") for spec in items
    ]
    out = CTable(out_columns, name=table.name)
    for row in table.rows:
        mapping = table.row_mapping(row)
        values = []
        for spec in items:
            if isinstance(spec, str):
                values.append(row.values[table.schema.index_of(spec)])
                continue
            bound = spec[1].bind_columns(mapping)
            bound = instantiate_var_terms(bound, db.factory)
            if isinstance(bound, Expression) and bound.is_constant:
                values.append(bound.const_value())
            else:
                values.append(bound)
        out.rows.append(CTRow(tuple(values), row.condition))
    return out


# -- sampling operators -------------------------------------------------------------
#
# The loops, their pool batch and the operator vocabulary live in
# :mod:`repro.core.operators`; a node here runs its child, asks for the
# per-row / per-group results, and turns them into an output table and the
# cells' estimate metadata.


def _execute_row_ops(db, plan, context):
    mark = len(context.estimates)
    table = _execute_relational(db, plan.child, context)
    child_end = len(context.estimates)

    base_items = []
    if plan.star:
        base_items.extend(table.schema.names)
    base_items.extend(plan.base_items)
    working = cops.project(db, table, base_items) if base_items else table

    kinds = [spec.kind for spec in plan.ops]
    for kind in kinds:
        if kind not in ops.ROW_OPERATORS:
            raise PlanError("unknown row operator %r" % (kind,))
    if "aconf" in kinds:
        # aconf implies distinct-coalescing (the planner lets no other
        # row operator share its SELECT); delegate to the dedicated
        # operator over the projected rows.
        name = plan.ops[kinds.index("aconf")].name
        out = ops.aconf_distinct(
            working, engine=db.engine, options=db.options, column_name=name
        )
        # Coalescing re-keys the rows: no child estimate survives into
        # the distinct output.
        del context.estimates[mark:]
        for i in range(len(out.rows)):
            context.record(name, i, "aconf", None, None)
        return out

    # Targets bind against the child's rows: the base projection may have
    # dropped or renamed the columns they read.
    results = ops.row_results(
        table,
        [(spec.expr if spec.kind == "expectation" else None, False) for spec in plan.ops],
        engine=db.engine,
        options=db.options,
    )
    columns = []
    for spec, column in zip(plan.ops, results):
        is_conf = spec.kind == "conf"
        for i, result in enumerate(column):
            exact = result.exact if is_conf else result.exact_mean
            # ConfidenceResult carries no draw count; record None rather
            # than guessing (the aconf path does the same).
            n_samples = (0 if exact else None) if is_conf else result.n_samples
            interval = None
            if not (is_conf or exact):
                interval = normal_interval(result.mean, result.stderr)
            context.record(
                spec.name, i, "exact" if exact else "monte-carlo", n_samples, exact, interval
            )
        columns.append(
            (spec.name, [r.probability if is_conf else r.mean for r in column])
        )
    out = ops.append_columns(working, columns, keep_conditions="conf" not in kinds)
    # Rows stayed 1:1 with the child's, but the base projection may have
    # dropped or renamed the column a child estimate describes.
    if base_items:
        _retarget_estimates_through_projection(context, mark, child_end, base_items)
    return out


def _execute_aggregate(db, plan, context):
    mark = len(context.estimates)
    table = _execute_relational(db, plan.child, context)
    # Aggregation collapses rows: child estimates can't be attributed to
    # the (grouped) output.
    del context.estimates[mark:]
    groups = ops.aggregate_results(
        table,
        [(spec.kind, spec.expr) for spec in plan.specs],
        list(plan.group_by) or None,
        engine=db.engine,
        options=db.options,
    )
    schema = [
        table.schema.columns[table.schema.index_of(c)] for c in plan.group_by
    ] + [(spec.name, "any") for spec in plan.specs]
    out = CTable(schema, name=table.name)
    for index, (key, results) in enumerate(groups):
        for spec, result in zip(plan.specs, results):
            if isinstance(result, ops.AggregateResult):
                context.record(
                    spec.name, index, result.method, result.n_samples, result.exact
                )
        # hist aggregates return sample arrays, which are their own cells
        out.rows.append(
            CTRow(key + tuple(getattr(result, "value", result) for result in results))
        )
    return out
