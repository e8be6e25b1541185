"""Abstract syntax for the SQL dialect.

Parsed statements are plain data; the rewriter and planner transform them
into logical plans over c-tables.  Scalar expressions reuse the symbolic
layer's :class:`~repro.symbolic.expression.Expression` trees directly
(columns become :class:`ColumnTerm` leaves) — there is no separate SQL
expression AST, which is exactly how PIP piggybacks on the host's
expression machinery.
"""

from repro.symbolic.expression import Expression
from repro.util.errors import PlanError


class SelectItem:
    """One SELECT target: expression + optional alias + aggregate tag.

    ``aggregate`` is None for plain expressions, or a name from
    :mod:`repro.core.operators`' ``ROW_OPERATORS`` / ``AGGREGATES`` — the
    probability-removing functions of Section V-A.
    """

    __slots__ = ("expr", "alias", "aggregate")

    def __init__(self, expr, alias=None, aggregate=None):
        self.expr = expr
        self.alias = alias
        self.aggregate = aggregate

    def output_name(self, index):
        if self.alias:
            return self.alias
        if self.aggregate:
            return self.aggregate
        from repro.symbolic.expression import ColumnTerm

        if isinstance(self.expr, ColumnTerm):
            return self.expr.name.split(".")[-1]
        return "col%d" % index

    def __repr__(self):
        core = "%s(%r)" % (self.aggregate, self.expr) if self.aggregate else repr(self.expr)
        return core + (" AS %s" % self.alias if self.alias else "")


class TableRef:
    """FROM-clause source: a stored table with an optional alias."""

    __slots__ = ("name", "alias")

    def __init__(self, name, alias=None):
        self.name = name
        self.alias = alias

    def __repr__(self):
        return self.name + ((" " + self.alias) if self.alias else "")


class Join:
    """Explicit JOIN … ON …."""

    __slots__ = ("left", "right", "on")

    def __init__(self, left, right, on):
        self.left = left
        self.right = right
        self.on = on

    def __repr__(self):
        return "(%r JOIN %r ON %r)" % (self.left, self.right, self.on)


class BoolExpr:
    """Boolean formula over atoms: ('atom', Atom) / ('and'|'or', parts) /
    ('not', part).  Normalised to DNF by the rewriter."""

    __slots__ = ("kind", "parts")

    def __init__(self, kind, parts):
        self.kind = kind
        self.parts = parts

    def __repr__(self):
        if self.kind == "atom":
            return repr(self.parts)
        if self.kind == "not":
            return "NOT(%r)" % (self.parts,)
        joiner = " AND " if self.kind == "and" else " OR "
        return "(" + joiner.join(repr(p) for p in self.parts) + ")"


class SelectStatement:
    """A parsed SELECT."""

    __slots__ = (
        "items",
        "distinct",
        "sources",
        "where",
        "group_by",
        "having",
        "order_by",
        "limit",
        "offset",
    )

    def __init__(
        self,
        items,
        sources,
        where=None,
        distinct=False,
        group_by=(),
        having=None,
        order_by=(),
        limit=None,
        offset=0,
    ):
        self.items = items
        self.sources = sources
        self.where = where
        self.distinct = distinct
        self.group_by = tuple(group_by)
        self.having = having
        self.order_by = tuple(order_by)
        self.limit = limit
        self.offset = offset


class UnionStatement:
    """UNION [ALL] of two selects (bag union; plain UNION adds distinct)."""

    __slots__ = ("left", "right", "all")

    def __init__(self, left, right, all=True):
        self.left = left
        self.right = right
        self.all = all


class CreateTableStatement:
    __slots__ = ("name", "columns")

    def __init__(self, name, columns):
        self.name = name
        self.columns = columns


class InsertStatement:
    __slots__ = ("name", "rows")

    def __init__(self, name, rows):
        self.name = name
        self.rows = rows


class DropTableStatement:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class UpdateStatement:
    """``UPDATE name SET col = expr [, ...] [WHERE predicate]``.

    ``assignments`` is a sequence of ``(column_name, expression)`` pairs;
    expressions are evaluated per matched row with that row's cells bound
    (so ``SET v = v * 2`` works), and may produce symbolic results when
    the row's cells are symbolic.  The WHERE predicate follows the DELETE
    rule: it must be deterministic per row once cell values are bound —
    rewriting a row whose membership is uncertain would collapse possible
    worlds.  ``where`` is a :class:`BoolExpr` or ``None`` (all rows).
    """

    __slots__ = ("name", "assignments", "where")

    def __init__(self, name, assignments, where=None):
        self.name = name
        self.assignments = tuple(assignments)
        self.where = where


class ExplainStatement:
    """``EXPLAIN [ANALYZE] <select>``.

    ``statement`` is the wrapped query AST (SELECT or UNION);
    ``analyze`` selects execution-with-profiling over plain rendering.
    Only queries can be explained — profiling a DML statement would
    have to execute its side effects, which EXPLAIN must never do.
    """

    __slots__ = ("statement", "analyze")

    def __init__(self, statement, analyze=False):
        self.statement = statement
        self.analyze = analyze


class TransactionStatement:
    """``BEGIN [TRANSACTION]`` / ``COMMIT`` / ``ROLLBACK``.

    ``kind`` is one of ``"begin"``, ``"commit"``, ``"rollback"``.  These
    statements only make sense on a :class:`~repro.session.Session`
    (``db.connect()``); executing them without a session raises
    :class:`~repro.util.errors.PlanError`.
    """

    __slots__ = ("kind",)

    def __init__(self, kind):
        self.kind = kind


class DeleteStatement:
    """``DELETE FROM name [WHERE predicate]``.

    The predicate must be deterministic per row (decidable once cell
    values are bound); the executor rejects anything still symbolic —
    deleting a row whose membership is uncertain would collapse possible
    worlds.  ``where`` is a :class:`BoolExpr` or ``None`` (all rows).
    """

    __slots__ = ("name", "where")

    def __init__(self, name, where=None):
        self.name = name
        self.where = where


class ParamTerm(Expression):
    """An unbound ``:name`` placeholder surviving into the logical plan.

    Produced only when parsing with ``allow_unbound`` (the prepared-
    statement path); binding replaces every occurrence with a
    :class:`~repro.symbolic.expression.Constant` before execution, so a
    ParamTerm must never reach evaluation.
    """

    __slots__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("ParamTerm is immutable")

    @property
    def is_constant(self):
        return False  # unknown until bound

    def key(self):
        return ("param", self.name)

    def variables(self):
        return frozenset()

    def column_refs(self):
        return frozenset()

    def evaluate(self, assignment):
        raise PlanError("unbound query parameter :%s" % (self.name,))

    def evaluate_batch(self, arrays):
        self.evaluate(arrays)

    def substitute(self, mapping):
        return self

    def bind_columns(self, row):
        return self

    def degree(self):
        return None

    def linear_form(self):
        return None

    def __repr__(self):
        return ":" + self.name


class VarCreateTerm(Expression):
    """``create_variable('dist', p1, p2, …)`` inside a SELECT target.

    A fresh random variable is allocated *per output row* at execution
    time, with parameters evaluated against that row — PIP's ``CREATE
    VARIABLE`` / MCDB's VG-function invocation embedded in a query.  The
    term participates in arithmetic like any expression; the executor
    replaces it with a concrete :class:`VarTerm` during projection, so it
    must never survive to evaluation.
    """

    __slots__ = ("dist_name", "param_exprs")

    def __init__(self, dist_name, param_exprs):
        object.__setattr__(self, "dist_name", dist_name.lower())
        object.__setattr__(self, "param_exprs", tuple(param_exprs))

    def __setattr__(self, name, value):
        raise AttributeError("VarCreateTerm is immutable")

    def key(self):
        return ("varcreate", self.dist_name) + tuple(
            p.key() for p in self.param_exprs
        )

    def variables(self):
        out = frozenset()
        for param in self.param_exprs:
            out |= param.variables()
        return out

    def column_refs(self):
        out = frozenset()
        for param in self.param_exprs:
            out |= param.column_refs()
        return out

    def evaluate(self, assignment):
        raise PlanError(
            "create_variable() must be instantiated by the executor before "
            "evaluation"
        )

    def evaluate_batch(self, arrays):
        self.evaluate(arrays)

    def substitute(self, mapping):
        return VarCreateTerm(
            self.dist_name, [p.substitute(mapping) for p in self.param_exprs]
        )

    def bind_columns(self, row):
        return VarCreateTerm(
            self.dist_name, [p.bind_columns(row) for p in self.param_exprs]
        )

    def degree(self):
        return None

    def linear_form(self):
        return None

    def __repr__(self):
        return "create_variable(%r, %s)" % (
            self.dist_name,
            ", ".join(repr(p) for p in self.param_exprs),
        )


def _walk_expr(expr):
    """Yield every node of an expression tree (pre-order)."""
    from repro.symbolic.expression import BinOp, FuncTerm, UnaryOp

    yield expr
    if isinstance(expr, BinOp):
        yield from _walk_expr(expr.left)
        yield from _walk_expr(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from _walk_expr(expr.operand)
    elif isinstance(expr, FuncTerm):
        for arg in expr.args:
            yield from _walk_expr(arg)
    elif isinstance(expr, VarCreateTerm):
        for param in expr.param_exprs:
            yield from _walk_expr(param)


def contains_var_create(expr):
    """Whether an expression tree contains a :class:`VarCreateTerm`."""
    return any(isinstance(node, VarCreateTerm) for node in _walk_expr(expr))


def expr_param_names(expr):
    """Names of every :class:`ParamTerm` in an expression tree."""
    return {node.name for node in _walk_expr(expr) if isinstance(node, ParamTerm)}


def map_expr_tree(expr, fn):
    """Generic structural rewrite of an expression tree.

    ``fn(node)`` returns a replacement (used as-is, no further recursion)
    or ``None`` (recurse into children).  Unchanged subtrees keep their
    object identity, so rewrites of shared plan templates stay cheap.
    """
    from repro.symbolic.expression import BinOp, FuncTerm, UnaryOp

    replaced = fn(expr)
    if replaced is not None:
        return replaced
    if isinstance(expr, BinOp):
        left = map_expr_tree(expr.left, fn)
        right = map_expr_tree(expr.right, fn)
        if left is expr.left and right is expr.right:
            return expr
        return type(expr)(expr.op, left, right)
    if isinstance(expr, UnaryOp):
        operand = map_expr_tree(expr.operand, fn)
        if operand is expr.operand:
            return expr
        return type(expr)(expr.op, operand)
    if isinstance(expr, FuncTerm):
        args = [map_expr_tree(a, fn) for a in expr.args]
        if all(new is old for new, old in zip(args, expr.args)):
            return expr
        return type(expr)(expr.func, args)
    if isinstance(expr, VarCreateTerm):
        params = [map_expr_tree(p, fn) for p in expr.param_exprs]
        if all(new is old for new, old in zip(params, expr.param_exprs)):
            return expr
        return VarCreateTerm(expr.dist_name, params)
    return expr


def substitute_params(expr, mapping):
    """Replace :class:`ParamTerm` leaves by constants from ``mapping``.

    Leaves unknown parameters in place (the planner reports them with
    their names in one error); returns the original object when nothing
    changed, so bound plans share structure with the cached template.
    """
    from repro.symbolic.expression import Constant

    def replace(node):
        if isinstance(node, ParamTerm) and node.name in mapping:
            return Constant(mapping[node.name])
        return None

    return map_expr_tree(expr, replace)
