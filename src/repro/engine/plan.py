"""Logical query plans — the IR between the query front ends and the
executor.

Both front ends (the SQL parser and the fluent :class:`QueryBuilder`)
lower into the same operator tree; the executor interprets plans against
the c-table algebra and the sampling operators.  Separating the plan from
the AST buys three things the paper's architecture (Section V) implies
but our original eager pipeline collapsed:

* **Prepared statements** — parse + plan once, re-bind ``:name``
  parameters per execution (see :mod:`repro.engine.prepared`).
* **Introspection** — :meth:`PlanNode.explain` renders the operator tree
  with each node's classification: *deterministic* (pure relational work
  the host optimiser may reorder freely), *condition-rewriting* (the
  Section V-A rewrite: predicates over random variables become condition
  columns, or new variables enter the data), and *probability-removing*
  (the sampling operators that turn symbolic state into numbers).
* **Rewrites** — the passes in :mod:`repro.engine.planner` (predicate
  pushdown, projection pruning, constant folding) work on this IR, never
  on the AST, so every future optimizer touches one representation.

Plans are immutable; transformation helpers rebuild nodes structurally
and preserve object identity for unchanged subtrees.
"""

from repro.engine.sqlast import (
    BoolExpr,
    expr_param_names,
    substitute_params,
)
from repro.symbolic.atoms import Atom
from repro.util.errors import ParseError, PlanError

#: Node classifications (the Section V-A trichotomy).
DETERMINISTIC = "deterministic"
CONDITIONING = "condition-rewriting"
PROBABILITY_REMOVING = "probability-removing"


class PlanNode:
    """Base class for logical plan operators."""

    __slots__ = ()

    #: Default classification; nodes override statically or per-instance.
    classification = DETERMINISTIC

    @property
    def children(self):
        return ()

    def with_children(self, children):
        """Structural copy with replaced children (same payload)."""
        if not children:
            return self
        raise PlanError("%s has no children" % type(self).__name__)

    def map_exprs(self, fn):
        """Structural copy with ``fn`` applied to every scalar expression
        payload (not recursing into children)."""
        return self

    # -- rendering -------------------------------------------------------------

    def label(self):
        """One-line payload description for EXPLAIN output."""
        return ""

    def explain(self, profile=None):
        """Render the operator tree, one node per line::

            Aggregate [probability-removing]: expected_sum(price)
              Filter [condition-rewriting]: o.cust = 'Joe'
                Scan [deterministic]: orders AS o

        With a :class:`~repro.engine.results.PlanProfile` (the EXPLAIN
        ANALYZE path), each executed node gains an ``(actual: ...)``
        annotation — inclusive wall time, output rows, and the sampling
        effort its subtree triggered.
        """
        lines = []
        self._explain_into(lines, 0, profile)
        return "\n".join(lines)

    def _explain_into(self, lines, depth, profile=None):
        detail = self.label()
        line = "%s%s [%s]%s" % (
            "  " * depth,
            type(self).__name__,
            self.classification,
            (": " + detail) if detail else "",
        )
        if profile is not None:
            entry = profile.lookup(self)
            line += (
                "  (actual: %s)" % (entry.render(),)
                if entry is not None
                else "  (never executed)"
            )
        lines.append(line)
        for child in self.children:
            child._explain_into(lines, depth + 1, profile)

    def walk(self):
        """Pre-order iteration over the tree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self):
        detail = self.label()
        return "<%s%s>" % (type(self).__name__, (" " + detail) if detail else "")


class _Unary(PlanNode):
    """Shared plumbing for single-child operators."""

    __slots__ = ("child",)

    def __init__(self, child):
        self.child = child

    @property
    def children(self):
        return (self.child,)


class _Binary(PlanNode):
    """Shared plumbing for two-child operators."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    @property
    def children(self):
        return (self.left, self.right)

    def with_children(self, children):
        (left, right) = children
        return type(self)(left, right)


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class Scan(PlanNode):
    """Read a stored table by name (optionally alias-qualifying columns)."""

    __slots__ = ("table_name", "alias")

    def __init__(self, table_name, alias=None):
        self.table_name = table_name
        self.alias = alias

    def label(self):
        if self.alias and self.alias != self.table_name:
            return "%s AS %s" % (self.table_name, self.alias)
        if self.alias:
            return "%s (qualified)" % (self.table_name,)
        return self.table_name


class TableValue(PlanNode):
    """A literal c-table (builder roots over unregistered tables)."""

    __slots__ = ("table",)

    def __init__(self, table):
        self.table = table

    def label(self):
        name = getattr(self.table, "name", None)
        return "<%s: %d rows>" % (name or "anonymous", len(self.table))


# ---------------------------------------------------------------------------
# Relational operators
# ---------------------------------------------------------------------------


class Prefix(_Unary):
    """Qualify every column of the child as ``alias.column``."""

    __slots__ = ("alias",)

    def __init__(self, child, alias):
        super().__init__(child)
        self.alias = alias

    def with_children(self, children):
        (child,) = children
        return Prefix(child, self.alias)

    def label(self):
        return "AS " + self.alias


class Filter(_Unary):
    """Selection.  Exactly one predicate payload is set:

    * ``disjuncts`` — DNF from the SQL front end: a tuple of conjunctions
      (tuples of :class:`Atom`).  One selection per disjunct, bag-unioned
      (the paper's "disjunctive terms are encoded as separate rows").
      ``()`` is the folded-FALSE plan (zero rows); ``((),)`` is TRUE.
    * ``condition`` — a prebuilt symbolic condition (builder ``where``).
    * ``fn`` — a Python row predicate (builder ``where_fn``).

    Predicates over random variables are not evaluated here — they are
    rewritten into the output rows' condition columns, which is what makes
    this node *condition-rewriting*.
    """

    __slots__ = ("disjuncts", "condition", "fn")

    classification = CONDITIONING

    def __init__(self, child, disjuncts=None, condition=None, fn=None):
        super().__init__(child)
        self.disjuncts = (
            tuple(tuple(d) for d in disjuncts) if disjuncts is not None else None
        )
        self.condition = condition
        self.fn = fn

    def with_children(self, children):
        (child,) = children
        return Filter(
            child, disjuncts=self.disjuncts, condition=self.condition, fn=self.fn
        )

    def map_exprs(self, fn):
        if self.disjuncts is None:
            return self
        disjuncts = tuple(
            tuple(_map_atom(atom, fn) for atom in conj) for conj in self.disjuncts
        )
        if disjuncts == self.disjuncts:
            return self
        return Filter(self.child, disjuncts=disjuncts)

    def label(self):
        if self.fn is not None:
            return "python predicate"
        if self.condition is not None:
            return repr(self.condition)
        if not self.disjuncts:
            return "FALSE"
        conjs = [
            " AND ".join(repr(a) for a in conj) if conj else "TRUE"
            for conj in self.disjuncts
        ]
        if len(conjs) == 1:
            return conjs[0]
        return " OR ".join("(%s)" % (c,) for c in conjs)


class Project(_Unary):
    """Projection.  ``items`` holds bare column names or ``(name, expr)``
    pairs; ``star`` prepends every child column.  Deterministic unless an
    item allocates per-row variables via ``create_variable()`` — then the
    output gains fresh symbolic state and the node is classified as
    condition-rewriting.
    """

    __slots__ = ("items", "star")

    def __init__(self, child, items, star=False):
        super().__init__(child)
        self.items = tuple(items)
        self.star = star

    @property
    def classification(self):
        from repro.engine.sqlast import contains_var_create

        for item in self.items:
            if isinstance(item, tuple) and contains_var_create(item[1]):
                return CONDITIONING
        return DETERMINISTIC

    def with_children(self, children):
        (child,) = children
        return Project(child, self.items, star=self.star)

    def map_exprs(self, fn):
        items = tuple(
            (item[0], fn(item[1])) if isinstance(item, tuple) else item
            for item in self.items
        )
        if all(new is old or new == old for new, old in zip(items, self.items)):
            return self
        return Project(self.child, items, star=self.star)

    def label(self):
        parts = (["*"] if self.star else []) + [
            "%s AS %s" % (repr(item[1]), item[0])
            if isinstance(item, tuple)
            else str(item)
            for item in self.items
        ]
        return ", ".join(parts)


class Join(_Binary):
    """θ-join; the ON conjunction may rewrite into condition columns."""

    __slots__ = ("atoms",)

    classification = CONDITIONING

    def __init__(self, left, right, atoms):
        super().__init__(left, right)
        self.atoms = tuple(atoms)

    def with_children(self, children):
        (left, right) = children
        return Join(left, right, self.atoms)

    def map_exprs(self, fn):
        atoms = tuple(_map_atom(a, fn) for a in self.atoms)
        if all(new is old for new, old in zip(atoms, self.atoms)):
            return self
        return Join(self.left, self.right, atoms)

    def label(self):
        return "ON " + " AND ".join(repr(a) for a in self.atoms)


class Product(_Binary):
    """Cartesian product (comma-join)."""

    __slots__ = ()


class Union(_Binary):
    """Bag union (UNION ALL; plain UNION is Distinct(Union(...)))."""

    __slots__ = ()


class Difference(_Binary):
    """Bag difference (builder-only)."""

    __slots__ = ()


class Distinct(_Unary):
    """Coalesce duplicate rows, OR-ing their conditions into DNF — the
    Section III-B encoding, hence condition-rewriting."""

    __slots__ = ()

    classification = CONDITIONING

    def with_children(self, children):
        (child,) = children
        return Distinct(child)


class Rename(_Unary):
    """Column renaming (builder-only)."""

    __slots__ = ("mapping",)

    def __init__(self, child, mapping):
        super().__init__(child)
        self.mapping = dict(mapping)

    def with_children(self, children):
        (child,) = children
        return Rename(child, self.mapping)

    def label(self):
        return ", ".join("%s -> %s" % kv for kv in sorted(self.mapping.items()))


class OrderBy(_Unary):
    """Sort by one or more columns."""

    __slots__ = ("keys",)

    def __init__(self, child, keys):
        super().__init__(child)
        self.keys = tuple(keys)

    def with_children(self, children):
        (child,) = children
        return OrderBy(child, self.keys)

    def label(self):
        return ", ".join(
            "%s %s" % (column, "DESC" if descending else "ASC")
            for column, descending in self.keys
        )


class Limit(_Unary):
    """LIMIT/OFFSET."""

    __slots__ = ("count", "offset")

    def __init__(self, child, count, offset=0):
        super().__init__(child)
        self.count = count
        self.offset = offset

    def with_children(self, children):
        (child,) = children
        return Limit(child, self.count, self.offset)

    def label(self):
        if self.offset:
            return "%d OFFSET %d" % (self.count, self.offset)
        return str(self.count)


# ---------------------------------------------------------------------------
# Sampling operators (probability-removing)
# ---------------------------------------------------------------------------


class AggSpec:
    """One probability-removing target: output name + operator + argument."""

    __slots__ = ("name", "kind", "expr")

    def __init__(self, name, kind, expr):
        self.name = name
        self.kind = kind
        self.expr = expr

    def map_expr(self, fn):
        if self.expr is None:
            return self
        expr = fn(self.expr)
        if expr is self.expr:
            return self
        return AggSpec(self.name, self.kind, expr)

    def __repr__(self):
        arg = repr(self.expr) if self.expr is not None else ""
        core = "%s(%s)" % (self.kind, arg)
        if self.name != self.kind:
            core += " AS %s" % (self.name,)
        return core


class RowOps(_Unary):
    """Row-level probability-removing operators (``conf``, ``aconf``,
    ``expectation``): per-row sampling semantics, deterministic output."""

    __slots__ = ("base_items", "star", "ops")

    classification = PROBABILITY_REMOVING

    def __init__(self, child, base_items, star, ops):
        super().__init__(child)
        self.base_items = tuple(base_items)
        self.star = star
        self.ops = tuple(ops)

    def with_children(self, children):
        (child,) = children
        return RowOps(child, self.base_items, self.star, self.ops)

    def map_exprs(self, fn):
        base_items = tuple(
            (item[0], fn(item[1])) if isinstance(item, tuple) else item
            for item in self.base_items
        )
        ops = tuple(s.map_expr(fn) for s in self.ops)
        if all(new is old for new, old in zip(ops, self.ops)) and all(
            new is old or new == old
            for new, old in zip(base_items, self.base_items)
        ):
            return self
        return RowOps(self.child, base_items, self.star, ops)

    def label(self):
        return ", ".join(repr(s) for s in self.ops)


class Aggregate(_Unary):
    """Per-table sampling aggregates (``expected_*``), optionally grouped
    on deterministic columns."""

    __slots__ = ("specs", "group_by")

    classification = PROBABILITY_REMOVING

    def __init__(self, child, specs, group_by=()):
        super().__init__(child)
        self.specs = tuple(specs)
        self.group_by = tuple(group_by)

    def with_children(self, children):
        (child,) = children
        return Aggregate(child, self.specs, self.group_by)

    def map_exprs(self, fn):
        specs = tuple(s.map_expr(fn) for s in self.specs)
        if all(new is old for new, old in zip(specs, self.specs)):
            return self
        return Aggregate(self.child, specs, self.group_by)

    def label(self):
        core = ", ".join(repr(s) for s in self.specs)
        if self.group_by:
            core += " GROUP BY " + ", ".join(self.group_by)
        return core


class Having(_Unary):
    """Filter over (deterministic) aggregate output rows."""

    __slots__ = ("predicate",)

    def __init__(self, child, predicate):
        super().__init__(child)
        self.predicate = predicate

    def with_children(self, children):
        (child,) = children
        return Having(child, self.predicate)

    def map_exprs(self, fn):
        predicate = _map_bool(self.predicate, fn)
        if predicate is self.predicate:
            return self
        return Having(self.child, predicate)

    def label(self):
        return repr(self.predicate)


# ---------------------------------------------------------------------------
# DDL / DML statements
# ---------------------------------------------------------------------------


class CreateTable(PlanNode):
    __slots__ = ("table_name", "columns")

    def __init__(self, table_name, columns):
        self.table_name = table_name
        self.columns = list(columns)

    def label(self):
        return "%s (%s)" % (
            self.table_name,
            ", ".join("%s %s" % pair for pair in self.columns),
        )


class InsertRows(PlanNode):
    """INSERT literal rows; values may hold parameter-bearing expressions
    that fold to constants at bind time."""

    __slots__ = ("table_name", "rows")

    def __init__(self, table_name, rows):
        self.table_name = table_name
        self.rows = tuple(tuple(row) for row in rows)

    def map_exprs(self, fn):
        from repro.symbolic.expression import Expression

        rows = tuple(
            tuple(fn(value) if isinstance(value, Expression) else value for value in row)
            for row in self.rows
        )
        if rows == self.rows:
            return self
        return InsertRows(self.table_name, rows)

    def label(self):
        return "%s (%d rows)" % (self.table_name, len(self.rows))


class DropTable(PlanNode):
    __slots__ = ("table_name",)

    def __init__(self, table_name):
        self.table_name = table_name

    def label(self):
        return self.table_name


class DeleteRows(PlanNode):
    """DELETE with an optional DNF predicate (``None`` = every row).

    The predicate must decide per row once cell values are bound; the
    executor raises for anything still symbolic.  ``disjuncts`` follows
    the :class:`Filter` encoding (tuple of atom-conjunctions), so
    parameter binding and folding reuse the same machinery.
    """

    __slots__ = ("table_name", "disjuncts")

    def __init__(self, table_name, disjuncts=None):
        self.table_name = table_name
        self.disjuncts = (
            tuple(tuple(d) for d in disjuncts) if disjuncts is not None else None
        )

    def map_exprs(self, fn):
        if self.disjuncts is None:
            return self
        disjuncts = tuple(
            tuple(_map_atom(atom, fn) for atom in conj) for conj in self.disjuncts
        )
        if disjuncts == self.disjuncts:
            return self
        return DeleteRows(self.table_name, disjuncts)

    def label(self):
        if self.disjuncts is None:
            return "%s (all rows)" % (self.table_name,)
        conjs = [
            " AND ".join(repr(a) for a in conj) if conj else "TRUE"
            for conj in self.disjuncts
        ]
        return "%s WHERE %s" % (
            self.table_name,
            " OR ".join("(%s)" % (c,) for c in conjs) if len(conjs) > 1 else (conjs[0] if conjs else "FALSE"),
        )


class UpdateRows(PlanNode):
    """UPDATE with per-column assignment expressions and an optional DNF
    predicate (``None`` = every row).

    ``assignments`` is a tuple of ``(column_name, expression)`` pairs —
    expressions are bound against each matched row at execution time, so
    they may reference the row's own columns.  The predicate follows the
    :class:`DeleteRows` contract: it must decide per row once cell values
    are bound; anything still symbolic is an executor error.
    """

    __slots__ = ("table_name", "assignments", "disjuncts")

    def __init__(self, table_name, assignments, disjuncts=None):
        self.table_name = table_name
        self.assignments = tuple(assignments)
        self.disjuncts = (
            tuple(tuple(d) for d in disjuncts) if disjuncts is not None else None
        )

    def map_exprs(self, fn):
        assignments = tuple((name, fn(expr)) for name, expr in self.assignments)
        disjuncts = self.disjuncts
        if disjuncts is not None:
            disjuncts = tuple(
                tuple(_map_atom(atom, fn) for atom in conj) for conj in disjuncts
            )
        if assignments == self.assignments and disjuncts == self.disjuncts:
            return self
        return UpdateRows(self.table_name, assignments, disjuncts)

    def label(self):
        core = "%s SET %s" % (
            self.table_name,
            ", ".join("%s = %r" % (name, expr) for name, expr in self.assignments),
        )
        if self.disjuncts is None:
            return core
        conjs = [
            " AND ".join(repr(a) for a in conj) if conj else "TRUE"
            for conj in self.disjuncts
        ]
        joined = (
            " OR ".join("(%s)" % (c,) for c in conjs)
            if len(conjs) > 1
            else (conjs[0] if conjs else "FALSE")
        )
        return "%s WHERE %s" % (core, joined)


class TransactionControl(PlanNode):
    """BEGIN / COMMIT / ROLLBACK — delegated to the current session's
    transaction machinery (no relational output)."""

    __slots__ = ("kind",)

    def __init__(self, kind):
        self.kind = kind

    def label(self):
        return self.kind.upper()


class Explain(_Unary):
    """``EXPLAIN [ANALYZE]`` over a relational child.

    Plain EXPLAIN renders the child tree without executing it; ANALYZE
    executes the child with per-operator profiling and renders the tree
    annotated with actual timings, row counts and sampling effort.  The
    node itself is deterministic — profiling observes execution, it
    never changes what the child computes — and the output is a string,
    not a c-table, so it sits outside the relational surface (see
    ``is_relational``).
    """

    __slots__ = ("analyze",)

    def __init__(self, child, analyze=False):
        super().__init__(child)
        self.analyze = analyze

    def with_children(self, children):
        (child,) = children
        return Explain(child, analyze=self.analyze)

    def label(self):
        return "ANALYZE" if self.analyze else ""


# ---------------------------------------------------------------------------
# Tree transformation helpers
# ---------------------------------------------------------------------------


def _map_atom(atom, fn):
    lhs = fn(atom.lhs)
    rhs = fn(atom.rhs)
    if lhs is atom.lhs and rhs is atom.rhs:
        return atom
    return Atom(lhs, atom.op, rhs)


def _map_bool(node, fn):
    if node is None:
        return None
    if node.kind == "atom":
        atom = _map_atom(node.parts, fn)
        return node if atom is node.parts else BoolExpr("atom", atom)
    if node.kind == "not":
        part = _map_bool(node.parts, fn)
        return node if part is node.parts else BoolExpr("not", part)
    parts = [_map_bool(part, fn) for part in node.parts]
    if all(new is old for new, old in zip(parts, node.parts)):
        return node
    return BoolExpr(node.kind, parts)


def transform(plan, fn):
    """Bottom-up rewrite: apply ``fn`` to every node after rebuilding its
    children.  ``fn`` returns a replacement node (or the input unchanged)."""
    children = plan.children
    if children:
        new_children = tuple(transform(child, fn) for child in children)
        if any(new is not old for new, old in zip(new_children, children)):
            plan = plan.with_children(new_children)
    return fn(plan)


def map_plan_exprs(plan, fn):
    """Apply ``fn`` to every scalar expression in the whole tree."""
    return transform(plan, lambda node: node.map_exprs(fn))


def collect_params(plan):
    """Names of every unbound ``:name`` parameter in the plan."""
    names = set()

    def visit(expr):
        names.update(expr_param_names(expr))
        return expr

    map_plan_exprs(plan, visit)
    return names


def bind_params(plan, params=None, param_names=None):
    """Bind ``:name`` parameters, returning an executable plan.

    One bottom-up pass fuses substitution with predicate re-folding (a
    bound constant can decide predicates the planner had to leave open).
    ``param_names`` lets callers with a cached name set (prepared
    statements) skip the collection walk.  Raises :class:`ParseError`
    (the same error the eager path produced at parse time) when any
    parameter is left unbound.
    """
    from repro.engine.planner import _fold_filter  # lazy: planner imports us

    params = params or {}
    needed = param_names if param_names is not None else collect_params(plan)
    missing = sorted(needed - set(params))
    if missing:
        raise ParseError(
            "missing query parameter :%s" % (", :".join(missing),)
        )
    if not needed:
        return plan

    def rebind(node):
        node = node.map_exprs(lambda expr: substitute_params(expr, params))
        return _fold_filter(node)

    return transform(plan, rebind)
