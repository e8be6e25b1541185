"""AST → logical-plan lowering plus the rewrite passes.

``plan_statement`` lowers a parsed statement into the IR of
:mod:`repro.engine.plan`; ``optimize`` runs the rewrite pipeline:

1. **Constant folding** — deterministic predicates are decided *before*
   condition-column rewriting (Section V-A's split between what the host
   optimiser may evaluate and what must become conditions): atoms over
   constants vanish, decided-false disjuncts are dropped, and an
   all-false WHERE collapses to the empty plan.
2. **Predicate pushdown** — filters move below projections (rewriting
   column names through simple renames) and into the sides of
   products/joins they alone reference, shrinking intermediate c-tables
   before the quadratic operators run.
3. **Projection pruning** — inner projections drop columns nothing above
   them consumes (conservative suffix-aware matching, never pruning
   ``create_variable`` items, and never reaching through operators whose
   semantics depend on the full row, e.g. DISTINCT and UNION).

The passes are pure plan→plan functions; prepared statements run them
once at prepare time and only re-fold after parameter binding.
"""

from repro.engine import plan as P
from repro.engine.parser import SubquerySource
from repro.engine.rewriter import classify_targets, to_dnf, validate_group_by
from repro.engine.sqlast import (
    CreateTableStatement,
    DeleteStatement,
    DropTableStatement,
    ExplainStatement,
    InsertStatement,
    Join as AstJoin,
    SelectStatement,
    TableRef,
    TransactionStatement,
    UnionStatement,
    UpdateStatement,
    contains_var_create,
    expr_param_names,
    map_expr_tree,
)
from repro.symbolic.expression import ColumnTerm, Constant, Expression
from repro.util.errors import PIPError, PlanError

# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def plan_statement(statement):
    """Lower one parsed statement into a logical plan."""
    if isinstance(statement, CreateTableStatement):
        return P.CreateTable(statement.name, statement.columns)
    if isinstance(statement, InsertStatement):
        return P.InsertRows(statement.name, statement.rows)
    if isinstance(statement, DropTableStatement):
        return P.DropTable(statement.name)
    if isinstance(statement, DeleteStatement):
        disjuncts = None if statement.where is None else to_dnf(statement.where)
        return P.DeleteRows(statement.name, disjuncts)
    if isinstance(statement, UpdateStatement):
        disjuncts = None if statement.where is None else to_dnf(statement.where)
        return P.UpdateRows(statement.name, statement.assignments, disjuncts)
    if isinstance(statement, TransactionStatement):
        return P.TransactionControl(statement.kind)
    if isinstance(statement, ExplainStatement):
        # The child is planned (and later optimized) exactly as it would
        # be standalone, so EXPLAIN shows the tree that would execute.
        return P.Explain(
            plan_statement(statement.statement), analyze=statement.analyze
        )
    if isinstance(statement, UnionStatement):
        merged = P.Union(plan_statement(statement.left), plan_statement(statement.right))
        if not statement.all:
            merged = P.Distinct(merged)
        return merged
    if isinstance(statement, SelectStatement):
        return plan_select(statement)
    raise PlanError("cannot plan %r" % (statement,))


def plan_select(stmt):
    node = _lower_sources(stmt.sources)
    if stmt.where is not None:
        node = P.Filter(node, disjuncts=to_dnf(stmt.where))

    classification = classify_targets(stmt.items)
    if classification.has_table_aggregates:
        validate_group_by(classification, stmt.group_by)
        specs = [
            P.AggSpec(item.output_name(index), item.aggregate, item.expr)
            for index, item in classification.aggregates
        ]
        node = P.Aggregate(node, specs, stmt.group_by)
        if stmt.having is not None:
            node = P.Having(node, stmt.having)
    elif classification.has_row_operators:
        if stmt.having is not None:
            raise PlanError("HAVING requires aggregate targets")
        if stmt.group_by:
            raise PlanError(
                "GROUP BY with row-level operators (conf/expectation) is "
                "not supported; aggregate with expected_* instead"
            )
        base_items = [
            (item.output_name(index), item.expr)
            for index, item in classification.plain
        ]
        ops = [
            P.AggSpec(item.output_name(index), item.aggregate, item.expr)
            for index, item in classification.row_ops
        ]
        if any(spec.kind == "aconf" for spec in ops) and len(ops) > 1:
            raise PlanError(
                "aconf() coalesces duplicate rows and cannot be combined "
                "with other row-level operators in one SELECT"
            )
        node = P.RowOps(node, base_items, classification.star, ops)
    else:
        if stmt.having is not None:
            raise PlanError("HAVING requires aggregate targets")
        items = [
            (item.output_name(index), item.expr)
            for index, item in classification.plain
        ]
        node = P.Project(node, items, star=classification.star)
        if stmt.group_by:
            # GROUP BY without aggregates: every target must be a grouping
            # column, and grouping degenerates to duplicate elimination.
            validate_group_by(classification, stmt.group_by)
            node = P.Distinct(node)
        elif stmt.distinct:
            node = P.Distinct(node)

    if stmt.order_by:
        node = P.OrderBy(node, stmt.order_by)
    if stmt.limit is not None:
        node = P.Limit(node, stmt.limit, stmt.offset)
    return node


def _lower_sources(sources):
    qualify = len(sources) > 1
    plans = [_lower_source(source, qualify) for source in sources]
    combined = plans[0]
    for plan in plans[1:]:
        combined = P.Product(combined, plan)
    return combined


def _lower_source(source, qualify):
    if isinstance(source, TableRef):
        alias = source.alias or (source.name if qualify else None)
        return P.Scan(source.name, alias)
    if isinstance(source, AstJoin):
        left = _lower_source(source.left, qualify=True)
        right = _lower_source(source.right, qualify=True)
        disjuncts = to_dnf(source.on)
        if len(disjuncts) != 1:
            raise PlanError("JOIN … ON must be a conjunction")
        return P.Join(left, right, disjuncts[0])
    if isinstance(source, SubquerySource):
        inner = plan_statement(source.statement)
        if source.alias:
            return P.Prefix(inner, source.alias)
        return inner
    raise PlanError("unknown source %r" % (source,))


# ---------------------------------------------------------------------------
# Pass 1: constant folding
# ---------------------------------------------------------------------------


def _fold_expr(expr):
    """Replace a fully-deterministic expression by its constant value."""
    if not isinstance(expr, Expression) or isinstance(expr, Constant):
        return expr
    if expr_param_names(expr) or contains_var_create(expr):
        return expr
    if expr.is_constant:
        try:
            return Constant(expr.const_value())
        except PIPError:
            return expr
    return expr


def _fold_filter(node):
    if not isinstance(node, P.Filter) or node.disjuncts is None:
        return node
    disjuncts = []
    for conjunction in node.disjuncts:
        kept = []
        conjunction_false = False
        for atom in conjunction:
            try:
                decided = atom.decided()
            except PIPError:
                decided = None
            if decided is True:
                continue
            if decided is False:
                conjunction_false = True
                break
            kept.append(atom)
        if conjunction_false:
            continue
        # An all-true conjunction stays as an empty disjunct: under the
        # bag encoding each surviving disjunct contributes its own copy
        # of the matching rows, so it cannot simply vanish.
        disjuncts.append(tuple(kept))
    if len(disjuncts) == 1 and not disjuncts[0]:
        return node.child  # the filter as a whole is TRUE
    if tuple(disjuncts) == node.disjuncts:
        return node
    return P.Filter(node.child, disjuncts=tuple(disjuncts))


def fold_constants(plan):
    """Fold deterministic scalar expressions and decide deterministic
    predicates before any condition-column rewriting happens."""
    plan = P.map_plan_exprs(plan, _fold_expr)
    return P.transform(plan, _fold_filter)


# ---------------------------------------------------------------------------
# Pass 2: predicate pushdown
# ---------------------------------------------------------------------------


def _claimed_prefixes(plan):
    """The set of qualifier prefixes a subtree's output columns carry, or
    ``None`` when unknown (which blocks pushdown into that side)."""
    if isinstance(plan, P.Scan):
        return {plan.alias} if plan.alias else {plan.table_name}
    if isinstance(plan, P.Prefix):
        return {plan.alias}
    if isinstance(plan, (P.Join, P.Product)):
        left = _claimed_prefixes(plan.left)
        right = _claimed_prefixes(plan.right)
        if left is None or right is None:
            return None
        return left | right
    if isinstance(plan, (P.Filter, P.OrderBy, P.Limit, P.Distinct)):
        return _claimed_prefixes(plan.child)
    return None


def _atom_side(atom, left_prefixes, right_prefixes):
    """Which side of a product/join an atom can move to, if any."""
    refs = atom.column_refs()
    if not refs:
        return None
    prefixes = set()
    for ref in refs:
        if "." not in ref:
            return None  # unqualified: ownership unknown
        prefixes.add(ref.split(".", 1)[0])
    if prefixes <= left_prefixes:
        return "left"
    if prefixes <= right_prefixes:
        return "right"
    return None


def _rename_map_through(plan):
    """For a Filter directly above [Prefix →] Project made only of simple
    renames: mapping output-name → source-name, plus the inner node chain.
    Returns ``(mapping, rebuild)`` or ``None`` when unsupported."""
    prefix_alias = None
    project = plan
    if isinstance(project, P.Prefix):
        prefix_alias = project.alias
        project = project.child
    if not isinstance(project, P.Project) or project.star:
        return None
    mapping = {}
    for item in project.items:
        if isinstance(item, str):
            out_name, source = item, item
        else:
            out_name, expr = item
            if not isinstance(expr, ColumnTerm):
                return None
            source = expr.name
        mapping[out_name] = source
        if prefix_alias:
            mapping["%s.%s" % (prefix_alias, out_name.split(".")[-1])] = source
    return mapping, (prefix_alias, project)


def _factor_common_atoms(node):
    """Split ``(A OR B) AND C`` DNF — ``[[A,C],[B,C]]`` — into a residual
    disjunctive filter over a conjunctive ``C`` filter.  The conjunctive
    part then pushes down like any single-conjunction filter, undoing the
    DNF distribution for the common atoms.  Bag semantics are preserved:
    the residual keeps one (possibly empty) conjunction per disjunct, so
    rows matching several disjuncts still duplicate."""
    keys_per_disjunct = [
        {atom.key() for atom in conjunction} for conjunction in node.disjuncts
    ]
    common = set.intersection(*keys_per_disjunct)
    if not common:
        return node
    common_atoms = tuple(
        atom for atom in node.disjuncts[0] if atom.key() in common
    )
    residual = tuple(
        tuple(atom for atom in conjunction if atom.key() not in common)
        for conjunction in node.disjuncts
    )
    inner = P.Filter(node.child, disjuncts=(common_atoms,))
    return P.Filter(inner, disjuncts=residual)


def _push_filter(node):
    if not isinstance(node, P.Filter) or node.disjuncts is None:
        return node
    if len(node.disjuncts) > 1:
        factored = _factor_common_atoms(node)
        if factored is not node:
            return factored
    child = node.child

    # Below a simple-rename projection (optionally behind a Prefix).
    renames = _rename_map_through(child)
    if renames is not None:
        mapping, (prefix_alias, project) = renames
        refs = {
            ref for conj in node.disjuncts for atom in conj for ref in atom.column_refs()
        }
        if refs and all(ref in mapping for ref in refs):
            pushed = node.map_exprs(
                lambda expr: _substitute_columns(expr, mapping)
            )
            inner = P.Filter(project.child, disjuncts=pushed.disjuncts)
            rebuilt = P.Project(inner, project.items, star=project.star)
            if prefix_alias:
                rebuilt = P.Prefix(rebuilt, prefix_alias)
            return rebuilt

    # Into the sides of a product/join (single-conjunction filters only:
    # a disjunction straddling both sides cannot split).
    if isinstance(child, (P.Product, P.Join)) and len(node.disjuncts) == 1:
        left_prefixes = _claimed_prefixes(child.left)
        right_prefixes = _claimed_prefixes(child.right)
        if left_prefixes and right_prefixes:
            left_atoms, right_atoms, rest = [], [], []
            for atom in node.disjuncts[0]:
                side = _atom_side(atom, left_prefixes, right_prefixes)
                if side == "left":
                    left_atoms.append(atom)
                elif side == "right":
                    right_atoms.append(atom)
                else:
                    rest.append(atom)
            if left_atoms or right_atoms:
                left = child.left
                right = child.right
                if left_atoms:
                    left = P.Filter(left, disjuncts=(tuple(left_atoms),))
                if right_atoms:
                    right = P.Filter(right, disjuncts=(tuple(right_atoms),))
                if isinstance(child, P.Join):
                    rebuilt = P.Join(left, right, child.atoms)
                else:
                    rebuilt = P.Product(left, right)
                if rest:
                    rebuilt = P.Filter(rebuilt, disjuncts=(tuple(rest),))
                return rebuilt
    return node


def _substitute_columns(expr, mapping):
    """Rewrite ColumnTerm names through ``mapping``."""

    def replace(node):
        if isinstance(node, ColumnTerm) and mapping.get(node.name, node.name) != node.name:
            return ColumnTerm(mapping[node.name])
        return None

    return map_expr_tree(expr, replace)


#: Fixpoint bound for the pushdown pass (plans are shallow; 8 is plenty).
_PUSHDOWN_ROUNDS = 8


def pushdown_filters(plan):
    """Move filters toward the leaves until nothing changes."""
    for _round in range(_PUSHDOWN_ROUNDS):
        rewritten = P.transform(plan, _push_filter)
        if rewritten is plan:
            return plan
        plan = rewritten
    return plan


# ---------------------------------------------------------------------------
# Pass 3: projection pruning
# ---------------------------------------------------------------------------


def _covered(name, required):
    """Conservative match: exact, or shared unqualified suffix (the same
    fallback :meth:`Schema.index_of` applies at bind time)."""
    if name in required:
        return True
    suffix = name.split(".")[-1]
    return any(ref.split(".")[-1] == suffix for ref in required)


def _item_name(item):
    return item if isinstance(item, str) else item[0]


def _item_refs(item):
    if isinstance(item, str):
        return {item}
    return set(item[1].column_refs())


def _spec_refs(specs):
    refs = set()
    for spec in specs:
        if spec.expr is not None:
            refs |= set(spec.expr.column_refs())
    return refs


def prune_projections(plan):
    """Drop projection items no ancestor consumes (see module docstring)."""
    return _prune(plan, None)


def _prune(node, required):
    if isinstance(node, P.Project):
        items = node.items
        if required is not None and not node.star:
            kept = [
                item
                for item in items
                if _covered(_item_name(item), required)
                or (isinstance(item, tuple) and contains_var_create(item[1]))
            ]
            if kept and len(kept) < len(items):
                items = tuple(kept)
        child_required = None
        if not node.star:
            child_required = set()
            for item in items:
                child_required |= _item_refs(item)
        child = _prune(node.child, child_required)
        if items is node.items and child is node.child:
            return node
        return P.Project(child, items, star=node.star)

    if isinstance(node, P.Prefix):
        child_required = None
        if required is not None:
            marker = node.alias + "."
            child_required = {
                ref[len(marker):] if ref.startswith(marker) else ref
                for ref in required
            }
        child = _prune(node.child, child_required)
        return node if child is node.child else P.Prefix(child, node.alias)

    if isinstance(node, P.Filter):
        child_required = None
        if required is not None and node.disjuncts is not None:
            child_required = set(required)
            for conjunction in node.disjuncts:
                for atom in conjunction:
                    child_required |= set(atom.column_refs())
        child = _prune(node.child, child_required)
        return node if child is node.child else node.with_children((child,))

    if isinstance(node, P.OrderBy):
        child_required = None
        if required is not None:
            child_required = set(required) | {column for column, _d in node.keys}
        child = _prune(node.child, child_required)
        return node if child is node.child else node.with_children((child,))

    if isinstance(node, P.Limit):
        child = _prune(node.child, required)
        return node if child is node.child else node.with_children((child,))

    if isinstance(node, (P.Product, P.Join)):
        side_required = None
        if required is not None:
            side_required = set(required)
            if isinstance(node, P.Join):
                for atom in node.atoms:
                    side_required |= set(atom.column_refs())
        left = _prune(node.left, side_required)
        right = _prune(node.right, side_required)
        if left is node.left and right is node.right:
            return node
        return node.with_children((left, right))

    if isinstance(node, P.Aggregate):
        child_required = set(node.group_by) | _spec_refs(node.specs)
        child = _prune(node.child, child_required)
        return node if child is node.child else node.with_children((child,))

    if isinstance(node, P.RowOps):
        child_required = None
        if not node.star:
            child_required = _spec_refs(node.ops)
            for item in node.base_items:
                child_required |= _item_refs(item)
        child = _prune(node.child, child_required)
        return node if child is node.child else node.with_children((child,))

    if isinstance(node, P.Having):
        child = _prune(node.child, None)
        return node if child is node.child else node.with_children((child,))

    # Distinct, Union, Difference, Rename, condition/fn-Filters and leaves:
    # semantics depend on the full row set — stop propagating requirements.
    children = node.children
    if not children:
        return node
    pruned = tuple(_prune(child, None) for child in children)
    if all(new is old for new, old in zip(pruned, children)):
        return node
    return node.with_children(pruned)


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


def optimize(plan):
    """The standard rewrite pipeline, in dependency order."""
    plan = fold_constants(plan)
    plan = pushdown_filters(plan)
    plan = prune_projections(plan)
    return plan


def plan_sql(text, params=None, allow_unbound=True):
    """Parse + lower + optimize one SQL statement (the prepare path)."""
    from repro.engine.parser import parse_sql

    statement = parse_sql(text, params=params, allow_unbound=allow_unbound)
    return optimize(plan_statement(statement))
