"""Property tests for planner constant folding / predicate pushdown
(ISSUE 8, satellite 2; style of ``test_commutation_property.py``).

Hypothesis builds randomized deterministic predicate trees; the
properties assert that (a) the optimized plan — constant folding,
pushdown, projection pruning — returns exactly what the unoptimized plan
returns, (b) both agree with brute-force Python evaluation of the same
DNF over the raw rows, and (c) predicates the folder can fully decide
really do fold away.
"""

import math

from hypothesis import given, settings, strategies as st

from repro import PIPDatabase
from repro.engine import plan as P
from repro.engine.executor import execute_plan
from repro.engine.parser import parse_sql
from repro.engine.planner import fold_constants, optimize, plan_statement
from repro.engine.results import ExecContext

from tests.differential.generator import row_path

ROWS = [
    (0, 2.5, -1.0),
    (1, -0.0, 4.0),
    (2, 3.0, 3.0),
    (3, float("nan"), 0.5),
    (4, -7.25, 2.0),
    (5, 10.0, -3.5),
]


def _db():
    db = PIPDatabase(seed=8)
    db.sql("CREATE TABLE t (id int, a float, b float)")
    db.insert_many("t", ROWS)
    return db


# One comparison, rendered to SQL and mirrored as a Python evaluator.
comparison = st.tuples(
    st.sampled_from(["a", "b", "id"]),
    st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
    st.one_of(
        st.floats(
            min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
        ),
        st.integers(-10, 10),
        st.sampled_from(["a", "b"]),
    ),
)
conjunction = st.lists(comparison, min_size=1, max_size=3)
disjunction = st.lists(conjunction, min_size=1, max_size=3)


def _sql_of(disjuncts):
    def term(side):
        return side if isinstance(side, str) else repr(float(side))

    return " OR ".join(
        "(" + " AND ".join(
            "%s %s %s" % (lhs, op, term(rhs)) for lhs, op, rhs in conj
        ) + ")"
        for conj in disjuncts
    )


def _eval_cmp(op, left, right):
    if math.isnan(left) or (isinstance(right, float) and math.isnan(right)):
        return op == "<>"
    return {
        "=": left == right,
        "<>": left != right,
        "<": left < right,
        "<=": left <= right,
        ">": left > right,
        ">=": left >= right,
    }[op]


def _brute_force(disjuncts):
    """The bag-union semantics of a DNF filter: each disjunct contributes
    its own pass over the table, in disjunct order."""
    out = []
    for conj in disjuncts:
        for row in ROWS:
            mapping = {"id": row[0], "a": row[1], "b": row[2]}
            if all(
                _eval_cmp(
                    op,
                    mapping[lhs],
                    mapping[rhs] if isinstance(rhs, str) else rhs,
                )
                for lhs, op, rhs in conj
            ):
                out.append(row[0])
    return out


def _ids(table):
    return [row.values[0] for row in table.rows]


@settings(max_examples=80, deadline=None)
@given(disjunction)
def test_optimized_plan_matches_unoptimized_and_brute_force(disjuncts):
    db = _db()
    text = "SELECT id FROM t WHERE %s" % _sql_of(disjuncts)
    statement = parse_sql(text)
    raw_plan = plan_statement(statement)
    opt_plan = optimize(plan_statement(statement))
    raw = execute_plan(db, raw_plan, ExecContext())
    opt = execute_plan(db, opt_plan, ExecContext())
    assert _ids(raw) == _ids(opt)
    assert _ids(opt) == _brute_force(disjuncts)


@settings(max_examples=80, deadline=None)
@given(disjunction)
def test_columnar_execution_agrees_with_brute_force(disjuncts):
    db = _db()
    text = "SELECT id FROM t WHERE %s" % _sql_of(disjuncts)
    expect = _brute_force(disjuncts)
    assert [r[0] for r in db.sql(text).rows()] == expect
    with row_path():
        assert [r[0] for r in db.sql(text).rows()] == expect


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
)
def test_constant_predicates_fold_away(left, right, op):
    """A WHERE over two literals must be decided at plan time: TRUE
    predicates drop the Filter node entirely, FALSE ones leave an empty
    disjunct list (the zero-row plan) — never a runtime comparison."""
    statement = parse_sql("SELECT id FROM t WHERE %d %s %d" % (left, op, right))
    folded = fold_constants(plan_statement(statement))

    def find_filters(node, acc):
        if isinstance(node, P.Filter):
            acc.append(node)
        for child in node.children:
            find_filters(child, acc)
        return acc

    filters = find_filters(folded, [])
    outcome = _eval_cmp(op, float(left), float(right))
    if outcome:
        assert filters == []  # folded to the bare scan
    else:
        assert len(filters) == 1 and filters[0].disjuncts == ()
