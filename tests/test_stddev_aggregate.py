"""expected_stddev: the non-linear aggregate of Section IV-C."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from repro.core.database import PIPDatabase
from repro.core.operators import expected_stddev, grouped_aggregate
from repro.ctables.table import CTable
from repro.samplefirst import (
    SampleFirstDatabase,
    SFTable,
    sf_expected_stddev,
)
from repro.symbolic import conjunction_of, var


@pytest.fixture
def db():
    return PIPDatabase(seed=17)


class TestPIP:
    def test_single_normal(self, db):
        y = db.create_variable("normal", (10.0, 3.0))
        table = CTable(["v"])
        table.add_row((var(y),))
        result = expected_stddev(table, "v", engine=db.engine, n_worlds=20000)
        assert result.value == pytest.approx(3.0, rel=0.05)
        assert result.method == "worlds-stddev"

    def test_independent_sum_adds_variances(self, db):
        table = CTable(["v"])
        for _ in range(4):
            y = db.create_variable("normal", (0.0, 2.0))
            table.add_row((var(y),))
        result = expected_stddev(table, "v", engine=db.engine, n_worlds=20000)
        assert result.value == pytest.approx(math.sqrt(4 * 4.0), rel=0.05)

    def test_gated_row_adds_presence_variance(self, db):
        """A certain constant has zero stddev; a gated one does not."""
        table = CTable(["v"])
        table.add_row((10.0,))
        certain = expected_stddev(table, "v", engine=db.engine, n_worlds=5000)
        assert certain.value == pytest.approx(0.0, abs=1e-12)

        gate = db.create_variable("normal", (0.0, 1.0))
        gated = CTable(["v"])
        gated.add_row((10.0,), conjunction_of(var(gate) > 0))
        result = expected_stddev(gated, "v", engine=db.engine, n_worlds=20000)
        # Bernoulli(1/2) scaled by 10: stddev = 10 * 0.5 = 5.
        assert result.value == pytest.approx(5.0, rel=0.05)

    def test_grouped(self, db):
        table = CTable(["g", "v"])
        a = db.create_variable("normal", (0.0, 1.0))
        b = db.create_variable("normal", (0.0, 4.0))
        table.add_row(("a", var(a)))
        table.add_row(("b", var(b)))
        result = grouped_aggregate(
            table, ["g"], "expected_stddev", "v", engine=db.engine, n_worlds=20000
        )
        values = {row.values[0]: row.values[1] for row in result.rows}
        assert values["a"] == pytest.approx(1.0, rel=0.08)
        assert values["b"] == pytest.approx(4.0, rel=0.08)

    def test_empty_table(self, db):
        table = CTable(["v"])
        result = expected_stddev(table, "v", engine=db.engine, n_worlds=100)
        assert result.value == 0.0


class TestSampleFirstAgreement:
    def test_engines_agree(self, db):
        y = db.create_variable("normal", (5.0, 2.0))
        gate = db.create_variable("normal", (0.0, 1.0))
        table = CTable(["v"])
        table.add_row((var(y),), conjunction_of(var(gate) > 0.5))
        pip_result = expected_stddev(table, "v", engine=db.engine, n_worlds=40000)

        sfdb = SampleFirstDatabase(n_worlds=40000, seed=18)
        sf_y = sfdb.create_variable("normal", (5.0, 2.0))
        sf_gate = sfdb.create_variable("normal", (0.0, 1.0))
        sf_table = SFTable([("v", "any")], sfdb.n_worlds)
        sf_table.add_row((sf_y,), presence=sf_gate.values > 0.5)
        sf_result = sf_expected_stddev(sf_table, "v")

        # Truth: X*B with X ~ N(5,2), B ~ Bern(p): var = p*(4+25) - (5p)^2.
        p = 1 - sps.norm.cdf(0.5)
        truth = math.sqrt(p * (4 + 25) - (5 * p) ** 2)
        assert pip_result.value == pytest.approx(truth, rel=0.05)
        assert sf_result.value == pytest.approx(truth, rel=0.05)


class TestSQL:
    def test_sql_form_is_the_operator(self, db):
        """``expected_stddev(e)`` in SQL is the Python operator: same
        worlds, same cells, grouped and not, with its estimate recorded."""
        db.sql("CREATE TABLE t (g str, m float)")
        db.sql("INSERT INTO t VALUES ('a', 1.0), ('b', 4.0), ('a', 2.0)")
        db.register(
            "model", db.sql("SELECT g, create_variable('normal', 0.0, m) AS v FROM t")
        )
        model = db.table("model")
        whole = db.sql("SELECT expected_stddev(v) AS s FROM model")
        assert whole.rows() == [(expected_stddev(model, "v", engine=db.engine).value,)]
        assert whole.rows()[0][0] == pytest.approx(math.sqrt(1 + 16 + 4), rel=0.1)
        estimate = whole.estimate("s")
        assert (estimate.method, estimate.exact, estimate.n_samples) == (
            "worlds-stddev", False, 1000,
        )
        grouped = db.sql("SELECT g, expected_stddev(v) AS s FROM model GROUP BY g")
        python = grouped_aggregate(model, ["g"], "expected_stddev", "v", engine=db.engine)
        assert grouped.rows() == [row.values for row in python.rows]
        assert [row[0] for row in grouped.rows()] == ["a", "b"]


class TestVocabulary:
    """``core/operators.py`` owns the operator vocabulary: the parser, the
    rewriter's classification, the executor and ``grouped_aggregate``
    accept exactly ``AGGREGATES`` (and SQL, besides, ``ROW_OPERATORS``)."""

    @pytest.fixture
    def model(self, db):
        db.sql("CREATE TABLE t (g str, m float)")
        db.sql("INSERT INTO t VALUES ('a', 1.0), ('b', 4.0)")
        return db.table("t")

    def test_every_front_end_accepts_exactly_the_table(self, db, model):
        from repro.core.operators import AGGREGATES, ROW_OPERATORS
        from repro.engine.parser import AGGREGATE_FUNCTIONS, parse_sql
        from repro.engine.rewriter import classify_targets
        from repro.util.errors import ParseError, PIPError

        assert "expected_stddev" in AGGREGATES and "expectation" in ROW_OPERATORS
        assert AGGREGATE_FUNCTIONS == set(AGGREGATES) | set(ROW_OPERATORS)
        for name in AGGREGATES:
            (item,) = parse_sql("SELECT %s(m) FROM t" % name).items
            assert item.aggregate == name
            assert classify_targets([item]).aggregates == [(0, item)]
            (row,) = db.sql("SELECT %s(m) AS x FROM t" % name).rows()
            grouped = grouped_aggregate(model, ["g"], name, "m", engine=db.engine)
            assert [r.values[0] for r in grouped.rows] == ["a", "b"]
        for name, takes_argument in ROW_OPERATORS.items():
            text = "SELECT %s(%s) FROM t" % (name, "m" if takes_argument else "")
            (item,) = parse_sql(text).items
            assert classify_targets([item]).row_ops == [(0, item)]
            assert len(db.sql(text).rows()) == 2
        for stranger in ("expected_median", "stddev", "conf"):
            with pytest.raises(PIPError, match="unknown aggregate"):
                grouped_aggregate(model, ["g"], stranger, "m", engine=db.engine)
        with pytest.raises(ParseError, match="unknown function"):
            parse_sql("SELECT expected_median(m) FROM t")

    def test_no_front_end_spells_a_name_of_its_own(self):
        """The parser and the rewriter read the names, they do not list
        them: no operator name is a string literal in either module."""
        import ast
        import os

        from repro.core.operators import AGGREGATES, ROW_OPERATORS
        from repro.engine import executor, parser, rewriter

        names = set(AGGREGATES) | set(ROW_OPERATORS)
        for module in (parser, rewriter):
            tree = ast.parse(open(module.__file__, encoding="utf-8").read())
            docstrings = {
                id(node.body[0].value)
                for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and node.body
                and isinstance(node.body[0], ast.Expr)
            }
            spelled = [
                (os.path.basename(module.__file__), node.lineno, node.value)
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and node.value in names
                and id(node) not in docstrings
            ]
            assert not spelled
        # ...and the executor keeps no dispatch table of its own.
        assert not hasattr(executor, "_AGG_DISPATCH")
