"""Fluent query builder and the PIPDatabase façade."""

import math

import pytest
from scipy import stats as sps

from repro.core.database import PIPDatabase
from repro.sampling.options import SamplingOptions
from repro.symbolic import col, conjunction_of, var
from repro.util.errors import PlanError, SchemaError


@pytest.fixture
def db():
    database = PIPDatabase(seed=11, options=SamplingOptions(n_samples=2000))
    database.create_table("orders", [("cust", "str"), ("shipto", "str"), ("price", "float")])
    database.insert_many(
        "orders", [("Joe", "NY", 100.0), ("Bob", "LA", 250.0)]
    )
    database.create_table("shipping", [("dest", "str"), ("duration", "any")])
    for dest, rate in (("NY", 0.2), ("LA", 0.5)):
        duration = database.create_variable("exponential", (rate,))
        database.insert("shipping", (dest, var(duration)))
    return database


class TestDatabase:
    def test_create_and_lookup(self, db):
        assert db.table("orders") is db.tables["orders"]
        with pytest.raises(SchemaError, match="no table"):
            db.table("missing")

    def test_duplicate_create(self, db):
        with pytest.raises(SchemaError):
            db.create_table("orders", ["x"])

    def test_drop(self, db):
        db.drop_table("orders")
        with pytest.raises(SchemaError):
            db.table("orders")

    def test_create_variable_expr(self, db):
        expr = db.create_variable_expr("normal", (0.0, 1.0))
        assert expr.variables()

    def test_create_variable_multivariate_expr(self, db):
        exprs = db.create_variable_expr(
            "mvnormal", (2, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0)
        )
        assert isinstance(exprs, list) and len(exprs) == 2

    def test_insert_with_condition(self, db):
        gate = db.create_variable("normal", (0.0, 1.0))
        db.insert("orders", ("Eve", "SF", 10.0), conjunction_of(var(gate) > 0))
        assert len(db.table("orders")) == 3

    def test_repair_key(self, db):
        db.create_table(
            "weather", [("day", "str"), ("forecast", "str"), ("p", "float")]
        )
        db.insert_many(
            "weather",
            [("mon", "rain", 0.3), ("mon", "sun", 0.7), ("tue", "rain", 1.0)],
        )
        repaired = db.repair_key("weather", ["day"], "p", new_name="weather_rk")
        assert repaired.schema.names == ("day", "forecast")
        assert len(repaired) == 3
        from repro.sampling.confidence import conf

        monday_rain = next(
            r for r in repaired.rows if r.values == ("mon", "rain")
        )
        assert conf(monday_rain.condition, engine=db.engine).probability == pytest.approx(0.3)

    def test_materialize(self, db):
        view = db.query("orders").where_fn(lambda r: r["cust"] == "Joe").to_ctable()
        db.materialize("joe_orders", view)
        assert len(db.table("joe_orders")) == 1

    def test_repr(self, db):
        assert "tables" in repr(db)


class TestBuilder:
    def test_running_example(self, db):
        result = (
            db.query("orders", alias="o")
            .join(db.query("shipping", alias="s"), on=[col("o.shipto").eq_(col("s.dest"))])
            .where(col("o.cust").eq_("Joe"), col("s.duration") >= 7)
            .select(("price", col("o.price")))
            .expected_sum("price")
        )
        assert result.value == pytest.approx(100.0 * math.exp(-1.4), abs=1e-6)

    def test_where_accepts_condition(self, db):
        condition = conjunction_of(col("cust").eq_("Bob"))
        assert len(db.query("orders").where(condition)) == 1

    def test_where_rejects_junk(self, db):
        with pytest.raises(PlanError):
            db.query("orders").where("cust = 'Joe'")

    def test_join_by_name(self, db):
        result = db.query("orders").join(
            "shipping", on=[col("shipto").eq_(col("dest"))]
        )
        assert len(result) == 2

    def test_select_distinct_union(self, db):
        both = db.query("orders").select("cust").union(
            db.query("orders").select("cust")
        )
        assert len(both) == 4
        assert len(both.distinct()) == 2

    def test_difference(self, db):
        joe = db.query("orders").select("cust").where(col("cust").eq_("Joe"))
        everyone = db.query("orders").select("cust")
        remaining = everyone.difference(joe)
        assert [r.values[0] for r in remaining.table.rows] == ["Bob"]

    def test_rename_order_limit(self, db):
        result = (
            db.query("orders")
            .rename({"cust": "customer"})
            .order_by("price", descending=True)
            .limit(1)
        )
        assert result.table.rows[0].values[0] == "Bob"

    def test_conf_terminal(self, db):
        late = (
            db.query("orders", alias="o")
            .join(db.query("shipping", alias="s"), on=[col("o.shipto").eq_(col("s.dest"))])
            .where(col("s.duration") >= 7)
            .select(("cust", col("o.cust")))
        )
        result = late.conf()
        by_cust = {row.values[0]: row.values[1] for row in result.rows}
        assert by_cust["Joe"] == pytest.approx(math.exp(-1.4), abs=1e-9)
        assert by_cust["Bob"] == pytest.approx(math.exp(-3.5), abs=1e-9)

    def test_expectation_terminal(self, db):
        result = (
            db.query("shipping")
            .where(col("duration") >= 7)
            .expectation("duration", with_confidence=True)
        )
        ny = result.rows[0]
        assert ny.values[-2] == pytest.approx(7 + 5.0, rel=0.1)  # memoryless

    def test_expectation_with_confidence_is_the_sql_statement(self, db):
        """``with_confidence`` is probability-removing, as ``conf()`` is:
        the builder and SQL return the same deterministic rows."""
        built = (
            db.query("shipping")
            .where(col("duration") >= 7)
            .expectation(col("duration") * col("duration"), with_confidence=True)
        )
        sql = db.sql(
            "SELECT dest, duration, expectation(duration * duration) AS expectation,"
            " conf() AS conf FROM shipping WHERE duration >= 7"
        ).to_ctable()
        assert built.schema.names == sql.schema.names
        assert len(built.rows) == len(sql.rows) == 2
        for ours, theirs in zip(built.rows, sql.rows):
            assert ours.values == theirs.values
            assert ours.condition is theirs.condition
            assert ours.condition.is_true

    def test_group_by_terminal(self, db):
        table = db.query("orders").group_by("cust").expected_sum("price")
        values = {row.values[0]: row.values[1] for row in table.rows}
        assert values == {"Joe": 100.0, "Bob": 250.0}

    def test_expected_min_max_count(self, db):
        q = db.query("orders")
        assert q.expected_max("price").value == pytest.approx(250.0)
        assert q.expected_min("price").value == pytest.approx(100.0)
        assert q.expected_count().value == pytest.approx(2.0)
        assert q.expected_avg("price").value == pytest.approx(175.0)

    def test_hist_terminals(self, db):
        samples = db.query("shipping").expected_sum_hist("duration", 500)
        assert samples.shape == (500,)
        max_samples = db.query("shipping").expected_max_hist("duration", 500)
        assert max_samples.shape == (500,)

    def test_materialize_through_builder(self, db):
        db.query("orders").select("cust").materialize("custs")
        assert len(db.table("custs")) == 2

    def test_len_and_repr(self, db):
        q = db.query("orders")
        assert len(q) == 2
        assert "QueryBuilder" in repr(q)


class TestClosedDatabaseIsFreed:
    """``close()`` and dropping the last reference free a database, its
    tables and its whole bank at once — by reference counting, not
    whenever a full collection of the cyclic collector happens to run.
    (Cycles that used to hold it: table watcher -> database, bundle
    store -> bank, conflict-rate gauge -> telemetry, durability manager
    -> database.)"""

    @staticmethod
    def _use(database):
        database.sql("CREATE TABLE t (k int, m float)")
        database.insert_many("t", [(i, 5.0 + i) for i in range(4)])
        database.register("model", database.sql(
            "SELECT k, create_variable('normal', m, 1.0) AS a,"
            " create_variable('normal', m, 2.0) AS b FROM t"))
        statement = database.prepare(
            "SELECT k, expected_sum(a * a) AS v FROM model WHERE a > b GROUP BY k")
        assert len(statement.run().rows()) == 4
        assert database.sample_bank.stats()["entries"] == 4
        return statement

    def _freed(self, build, parts):
        """Build, use, close and drop a database with the collector off;
        which of ``parts`` (attribute names, "" for the database) are gone."""
        import gc
        import weakref

        assert gc.isenabled()
        gc.disable()
        try:
            database = build()
            statement = self._use(database)
            refs = [weakref.ref(getattr(database, part) if part else database)
                    for part in parts]
            database.close()
            if not database.is_durable:
                # close() on an in-memory database keeps queries working.
                assert len(statement.run().rows()) == 4
            del database, statement
            return [ref() is None for ref in refs]
        finally:
            gc.enable()

    def test_in_memory(self):
        assert self._freed(
            lambda: PIPDatabase(seed=3, options=SamplingOptions(n_samples=100)),
            ("", "sample_bank", "telemetry", "engine"),
        ) == [True] * 4

    def test_durable(self, tmp_path):
        assert self._freed(
            lambda: PIPDatabase.open(
                str(tmp_path), seed=3, options=SamplingOptions(n_samples=100)),
            ("", "sample_bank", "telemetry"),
        ) == [True] * 3
