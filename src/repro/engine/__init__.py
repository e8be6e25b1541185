"""Query front ends: SQL (Section V-A rewrite semantics), fluent builder,
and the shared logical-plan IR both lower into."""

from repro.engine.lexer import tokenize
from repro.engine.parser import parse_sql
from repro.engine.rewriter import to_dnf, classify_targets
from repro.engine.planner import optimize, plan_statement, plan_sql
from repro.engine.executor import execute_plan
from repro.engine.builder import QueryBuilder, GroupedQuery
from repro.engine.prepared import PreparedStatement
from repro.engine.results import CellEstimate, ResultSet

__all__ = [
    "tokenize",
    "parse_sql",
    "to_dnf",
    "classify_targets",
    "optimize",
    "plan_statement",
    "plan_sql",
    "execute_plan",
    "QueryBuilder",
    "GroupedQuery",
    "PreparedStatement",
    "CellEstimate",
    "ResultSet",
]
