"""Recursive-descent / Pratt parser for the PIP SQL dialect.

Supported statements::

    CREATE TABLE name (col [type], …)
    INSERT INTO name VALUES (…), (…)
    DELETE FROM name [WHERE deterministic-cond]
    UPDATE name SET col = expr [, ...] [WHERE deterministic-cond]
    BEGIN [TRANSACTION] | COMMIT | ROLLBACK
    SELECT [DISTINCT] targets FROM sources [WHERE cond]
        [GROUP BY cols] [ORDER BY col [ASC|DESC], …] [LIMIT n [OFFSET m]]
    select UNION [ALL] select
    EXPLAIN [ANALYZE] select

Targets may use the probability-removing functions ``conf()``, ``aconf()``,
``expectation(e)``, ``expected_sum(e)``, ``expected_count(*)``,
``expected_avg(e)``, ``expected_max(e)``, ``expected_min(e)``,
``expected_stddev(e)``, ``expected_sum_hist(e)``, ``expected_max_hist(e)``
(the vocabulary of :mod:`repro.core.operators`); scalar expressions may
call ``create_variable('dist', p…)`` (alias ``pip_var``) plus the usual
math functions.  WHERE conditions are arbitrary AND/OR/NOT combinations of
comparisons; the rewriter normalises them to DNF.
"""

from repro.core.operators import AGGREGATES, ROW_OPERATORS
from repro.engine.lexer import (
    EOF,
    IDENT,
    KEYWORD,
    NUMBER,
    OP,
    PARAM,
    PUNCT,
    STRING,
    tokenize,
)
from repro.engine.sqlast import (
    BoolExpr,
    CreateTableStatement,
    DeleteStatement,
    DropTableStatement,
    ExplainStatement,
    InsertStatement,
    Join,
    ParamTerm,
    SelectItem,
    SelectStatement,
    TableRef,
    TransactionStatement,
    UnionStatement,
    UpdateStatement,
    VarCreateTerm,
    expr_param_names,
)
from repro.symbolic.atoms import Atom
from repro.symbolic.expression import (
    ColumnTerm,
    Constant,
    FuncTerm,
    UnaryOp,
    binop,
)
from repro.util.errors import ParseError

#: Every probability-removing operator a SELECT target may name: the one
#: vocabulary of :mod:`repro.core.operators`.
AGGREGATE_FUNCTIONS = frozenset(ROW_OPERATORS) | frozenset(AGGREGATES)

SCALAR_FUNCTIONS = frozenset(
    {"exp", "log", "sqrt", "abs", "floor", "ceil", "least", "greatest"}
)

VAR_FUNCTIONS = frozenset({"create_variable", "pip_var"})

_COMPARISONS = frozenset({"=", "<>", "<", "<=", ">", ">="})


class Parser:
    """One-statement parser over a token list."""

    def __init__(self, text, params=None, allow_unbound=False):
        self.text = text
        self.tokens = tokenize(text)
        self.position = 0
        self.params = params or {}
        self.allow_unbound = allow_unbound

    # -- token plumbing ---------------------------------------------------------

    @property
    def current(self):
        return self.tokens[self.position]

    def advance(self):
        token = self.tokens[self.position]
        if token.kind != EOF:
            self.position += 1
        return token

    def expect(self, kind, value=None):
        token = self.current
        if not token.matches(kind, value):
            raise ParseError(
                "expected %s%s, found %r"
                % (kind, " %r" % value if value else "", token.value),
                token.position,
                self.text,
            )
        return self.advance()

    def accept(self, kind, value=None):
        if self.current.matches(kind, value):
            return self.advance()
        return None

    def error(self, message):
        raise ParseError(message, self.current.position, self.text)

    # -- statements ------------------------------------------------------------

    def parse_statement(self):
        token = self.current
        if token.matches(KEYWORD, "select"):
            statement = self.parse_select_union()
        elif token.matches(KEYWORD, "create"):
            statement = self.parse_create()
        elif token.matches(KEYWORD, "drop"):
            statement = self.parse_drop()
        elif token.matches(KEYWORD, "insert"):
            statement = self.parse_insert()
        elif token.matches(KEYWORD, "delete"):
            statement = self.parse_delete()
        elif token.matches(KEYWORD, "update"):
            statement = self.parse_update()
        elif token.matches(KEYWORD, ("begin", "commit", "rollback")):
            statement = self.parse_transaction_control()
        elif token.matches(KEYWORD, "explain"):
            statement = self.parse_explain()
        else:
            self.error(
                "expected SELECT, CREATE, DROP, INSERT, DELETE, UPDATE, "
                "BEGIN, COMMIT, ROLLBACK or EXPLAIN"
            )
        self.accept(PUNCT, ";")
        if self.current.kind != EOF:
            self.error("unexpected trailing input")
        return statement

    def parse_explain(self):
        """``EXPLAIN [ANALYZE] <select>`` — queries only: explaining DML
        would either lie (not run it) or mutate (run it), so neither is
        offered."""
        self.expect(KEYWORD, "explain")
        analyze = self.accept(KEYWORD, "analyze") is not None
        if not self.current.matches(KEYWORD, "select"):
            self.error("EXPLAIN expects a SELECT statement")
        return ExplainStatement(self.parse_select_union(), analyze=analyze)

    def parse_create(self):
        self.expect(KEYWORD, "create")
        self.expect(KEYWORD, "table")
        name = self.expect(IDENT).value
        self.expect(PUNCT, "(")
        columns = []
        while True:
            col_name = self.expect(IDENT).value
            col_type = "any"
            if self.current.kind == IDENT:
                col_type = self.advance().value.lower()
            columns.append((col_name, col_type))
            if not self.accept(PUNCT, ","):
                break
        self.expect(PUNCT, ")")
        return CreateTableStatement(name, columns)

    def parse_drop(self):
        self.expect(KEYWORD, "drop")
        self.expect(KEYWORD, "table")
        name = self.expect(IDENT).value
        return DropTableStatement(name)

    def parse_delete(self):
        self.expect(KEYWORD, "delete")
        self.expect(KEYWORD, "from")
        name = self.expect(IDENT).value
        where = None
        if self.accept(KEYWORD, "where"):
            where = self.parse_bool_expr()
        return DeleteStatement(name, where)

    def parse_update(self):
        self.expect(KEYWORD, "update")
        name = self.expect(IDENT).value
        self.expect(KEYWORD, "set")
        assignments = []
        while True:
            column = self.expect(IDENT).value
            self.expect(OP, "=")
            assignments.append((column, self.parse_expression()))
            if not self.accept(PUNCT, ","):
                break
        where = None
        if self.accept(KEYWORD, "where"):
            where = self.parse_bool_expr()
        return UpdateStatement(name, assignments, where)

    def parse_transaction_control(self):
        if self.accept(KEYWORD, "begin"):
            self.accept(KEYWORD, "transaction")
            return TransactionStatement("begin")
        if self.accept(KEYWORD, "commit"):
            return TransactionStatement("commit")
        self.expect(KEYWORD, "rollback")
        return TransactionStatement("rollback")

    def parse_insert(self):
        self.expect(KEYWORD, "insert")
        self.expect(KEYWORD, "into")
        name = self.expect(IDENT).value
        self.expect(KEYWORD, "values")
        rows = []
        while True:
            self.expect(PUNCT, "(")
            values = []
            while True:
                expr = self.parse_expression()
                # Check for parameters first: a composite like `:x + 1`
                # reports is_constant (ParamTerm carries no variables or
                # column refs), but folding must wait for bind time.
                if expr_param_names(expr):
                    if expr.column_refs():
                        self.error("INSERT values must be constants")
                    values.append(expr)
                elif expr.is_constant:
                    values.append(expr.const_value())
                else:
                    self.error("INSERT values must be constants")
                if not self.accept(PUNCT, ","):
                    break
            self.expect(PUNCT, ")")
            rows.append(tuple(values))
            if not self.accept(PUNCT, ","):
                break
        return InsertStatement(name, rows)

    # -- SELECT -----------------------------------------------------------------

    def parse_select_union(self):
        left = self.parse_select_core()
        while self.accept(KEYWORD, "union"):
            keep_all = bool(self.accept(KEYWORD, "all"))
            right = self.parse_select_core()
            left = UnionStatement(left, right, all=keep_all)
        return left

    def parse_select_core(self):
        self.expect(KEYWORD, "select")
        distinct = bool(self.accept(KEYWORD, "distinct"))
        items = [self.parse_select_item()]
        while self.accept(PUNCT, ","):
            items.append(self.parse_select_item())
        self.expect(KEYWORD, "from")
        sources = [self.parse_source()]
        while self.accept(PUNCT, ","):
            sources.append(self.parse_source())
        where = None
        if self.accept(KEYWORD, "where"):
            where = self.parse_bool_expr()
        group_by = []
        if self.accept(KEYWORD, "group"):
            self.expect(KEYWORD, "by")
            group_by.append(self.expect(IDENT).value)
            while self.accept(PUNCT, ","):
                group_by.append(self.expect(IDENT).value)
        having = None
        if self.accept(KEYWORD, "having"):
            if not group_by:
                self.error("HAVING requires GROUP BY")
            having = self.parse_bool_expr()
        order_by = []
        if self.accept(KEYWORD, "order"):
            self.expect(KEYWORD, "by")
            while True:
                column = self.expect(IDENT).value
                descending = False
                if self.accept(KEYWORD, "desc"):
                    descending = True
                elif self.accept(KEYWORD, "asc"):
                    pass
                order_by.append((column, descending))
                if not self.accept(PUNCT, ","):
                    break
        limit = None
        offset = 0
        if self.accept(KEYWORD, "limit"):
            limit = int(self.expect(NUMBER).value)
            if self.accept(KEYWORD, "offset"):
                offset = int(self.expect(NUMBER).value)
        return SelectStatement(
            items,
            sources,
            where=where,
            distinct=distinct,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
        )

    def parse_select_item(self):
        if self.accept(OP, "*"):
            return SelectItem(None, alias=None, aggregate=None)  # SELECT *
        token = self.current
        aggregate = None
        expr = None
        if (
            token.kind == IDENT
            and token.value.lower() in AGGREGATE_FUNCTIONS
            and self.tokens[self.position + 1].matches(PUNCT, "(")
        ):
            aggregate = token.value.lower()
            self.advance()
            self.expect(PUNCT, "(")
            if not ROW_OPERATORS.get(aggregate, True):  # takes no argument
                self.expect(PUNCT, ")")
            elif self.accept(OP, "*"):
                self.expect(PUNCT, ")")
                expr = Constant(1)
            else:
                expr = self.parse_expression()
                self.expect(PUNCT, ")")
        else:
            expr = self.parse_expression()
        alias = None
        if self.accept(KEYWORD, "as"):
            alias = self.expect(IDENT).value
        elif self.current.kind == IDENT and not self._starts_clause():
            alias = self.advance().value
        return SelectItem(expr, alias=alias, aggregate=aggregate)

    def _starts_clause(self):
        return False  # bare IDENT after an expression is an alias

    def parse_source(self):
        source = self.parse_primary_source()
        while True:
            if self.accept(KEYWORD, "inner"):
                self.expect(KEYWORD, "join")
            elif not self.accept(KEYWORD, "join"):
                break
            right = self.parse_primary_source()
            self.expect(KEYWORD, "on")
            condition = self.parse_bool_expr()
            source = Join(source, right, condition)
        return source

    def parse_primary_source(self):
        if self.accept(PUNCT, "("):
            inner = self.parse_select_union()
            self.expect(PUNCT, ")")
            alias = None
            if self.accept(KEYWORD, "as"):
                alias = self.expect(IDENT).value
            elif self.current.kind == IDENT:
                alias = self.advance().value
            return SubquerySource(inner, alias)
        name = self.expect(IDENT).value
        alias = None
        if self.accept(KEYWORD, "as"):
            alias = self.expect(IDENT).value
        elif self.current.kind == IDENT:
            alias = self.advance().value
        return TableRef(name, alias)

    # -- boolean expressions ------------------------------------------------------

    def parse_bool_expr(self):
        return self.parse_or()

    def parse_or(self):
        parts = [self.parse_and()]
        while self.accept(KEYWORD, "or"):
            parts.append(self.parse_and())
        if len(parts) == 1:
            return parts[0]
        return BoolExpr("or", parts)

    def parse_and(self):
        parts = [self.parse_not()]
        while self.accept(KEYWORD, "and"):
            parts.append(self.parse_not())
        if len(parts) == 1:
            return parts[0]
        return BoolExpr("and", parts)

    def parse_not(self):
        if self.accept(KEYWORD, "not"):
            return BoolExpr("not", self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self):
        # A '(' may open either a parenthesised boolean formula or an
        # arithmetic sub-expression; backtrack on failure.
        if self.current.matches(PUNCT, "("):
            saved = self.position
            try:
                self.advance()
                inner = self.parse_bool_expr()
                self.expect(PUNCT, ")")
                return inner
            except ParseError:
                self.position = saved
        left = self.parse_expression()
        token = self.current
        if token.kind == OP and token.value in _COMPARISONS:
            op = self.advance().value
            right = self.parse_expression()
            return BoolExpr("atom", Atom(left, op, right))
        self.error("expected a comparison operator")

    # -- scalar expressions ----------------------------------------------------------

    def parse_expression(self):
        return self.parse_additive()

    def parse_additive(self):
        expr = self.parse_multiplicative()
        while True:
            if self.accept(OP, "+"):
                expr = binop("+", expr, self.parse_multiplicative())
            elif self.accept(OP, "-"):
                expr = binop("-", expr, self.parse_multiplicative())
            else:
                return expr

    def parse_multiplicative(self):
        expr = self.parse_unary()
        while True:
            if self.accept(OP, "*"):
                expr = binop("*", expr, self.parse_unary())
            elif self.accept(OP, "/"):
                expr = binop("/", expr, self.parse_unary())
            else:
                return expr

    def parse_unary(self):
        if self.accept(OP, "-"):
            inner = self.parse_unary()
            if isinstance(inner, Constant) and isinstance(inner.value, (int, float)):
                return Constant(-inner.value)
            return UnaryOp("-", inner)
        if self.accept(OP, "+"):
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_primary()
        if self.accept(OP, "^"):
            exponent = self.parse_unary()
            return binop("^", base, exponent)
        return base

    def parse_primary(self):
        token = self.current
        if token.kind == NUMBER:
            self.advance()
            return Constant(token.value)
        if token.kind == STRING:
            self.advance()
            return Constant(token.value)
        if token.kind == PARAM:
            self.advance()
            if token.value in self.params:
                return Constant(self.params[token.value])
            if self.allow_unbound:
                return ParamTerm(token.value)
            self.error("missing query parameter :%s" % token.value)
        if token.matches(KEYWORD, "null"):
            self.advance()
            return Constant(None)
        if token.matches(KEYWORD, "true"):
            self.advance()
            return Constant(True)
        if token.matches(KEYWORD, "false"):
            self.advance()
            return Constant(False)
        if token.matches(PUNCT, "("):
            self.advance()
            expr = self.parse_expression()
            self.expect(PUNCT, ")")
            return expr
        if token.kind == IDENT:
            name = self.advance().value
            lowered = name.lower()
            if self.current.matches(PUNCT, "("):
                return self.parse_function_call(lowered)
            return ColumnTerm(name)
        self.error("expected an expression")

    def parse_function_call(self, name):
        self.expect(PUNCT, "(")
        args = []
        if not self.current.matches(PUNCT, ")"):
            args.append(self.parse_expression())
            while self.accept(PUNCT, ","):
                args.append(self.parse_expression())
        self.expect(PUNCT, ")")
        if name in VAR_FUNCTIONS:
            if not args or not (
                isinstance(args[0], Constant) and isinstance(args[0].value, str)
            ):
                self.error("create_variable() needs a distribution name string")
            return VarCreateTerm(args[0].value, args[1:])
        if name in SCALAR_FUNCTIONS:
            return FuncTerm(name, args)
        if name in AGGREGATE_FUNCTIONS:
            self.error("aggregate %s() is only allowed as a top-level target" % name)
        self.error("unknown function %s()" % name)


class SubquerySource:
    """A parenthesised SELECT in the FROM clause."""

    __slots__ = ("statement", "alias")

    def __init__(self, statement, alias):
        self.statement = statement
        self.alias = alias

    def __repr__(self):
        return "(subquery AS %s)" % (self.alias,)


def parse_sql(text, params=None, allow_unbound=False):
    """Parse one SQL statement into its AST.

    With ``allow_unbound``, ``:name`` placeholders missing from ``params``
    become :class:`~repro.engine.sqlast.ParamTerm` leaves instead of
    raising — the prepared-statement path, which binds them against the
    cached logical plan at execution time.
    """
    return Parser(text, params=params, allow_unbound=allow_unbound).parse_statement()
