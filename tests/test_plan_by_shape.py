"""Plan by shape: a WHERE residual is planned once per statement.

A filter binds the first row of each kind of cells and shares that bound
conjunction's :class:`~repro.constraints.consistency.ConditionShape` with
every row of the kind; a row supplies only its variables.  Pinned here:
what a statement still does per row (counts), that every kind of cell
answers what the same condition built by hand and the row path answer
(``float.hex``), that nothing of it reaches a pickle, and what a plan key
tells apart.
"""

import math
import pickle

import numpy as np
import pytest

from repro import PIPDatabase
from repro.constraints import consistency, independence
from repro.ctables.table import CTable, CTRow
from repro.sampling import expectation
from repro.sampling.confidence import conf
from repro.sampling.options import SamplingOptions
from repro.sampling.plans import plan_key
from repro.symbolic import Atom, conjunction_of, var
from repro.symbolic.conditions import FALSE

from tests.differential.generator import row_path

ICEBERG = ("SELECT iceberg_id, conf() AS p FROM icebergs"
           " WHERE lat > :a AND lat < :b AND lon > :c AND lon < :d AND days < :days")


def _icebergs(n=120, seed=5):
    rng = np.random.default_rng(seed)
    db = PIPDatabase(seed=seed)
    db.sql("CREATE TABLE sightings (iceberg_id int, days float, lat0 float,"
           " lon0 float, sd_lat float, sd_lon float)")
    db.insert_many("sightings", [
        (i, float(i % 50), float(rng.uniform(40, 50)), float(rng.uniform(-55, -45)),
         float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.2, 1.5)))
        for i in range(n)
    ])
    db.register("icebergs", db.sql(
        "SELECT iceberg_id, days,"
        " create_variable('normal', lat0, sd_lat) AS lat,"
        " create_variable('normal', lon0, sd_lon) AS lon FROM sightings"))
    return db


class TestCounts:
    def test_one_statement_plans_one_shape(self, monkeypatch):
        db = _icebergs()
        statement = db.prepare(ICEBERG)
        statement.run(a=43.0, b=47.0, c=-52.0, d=-48.0, days=30.0).rows()  # store, masks
        params = dict(a=43.5, b=46.5, c=-51.5, d=-48.5, days=30.0)  # a box never seen
        counts = {"partition": 0, "consistency": 0, "forms": 0, "atoms": 0, "tighten": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        partition = counting("partition", independence.groups_for_condition)
        for module in (independence, consistency, expectation):
            monkeypatch.setattr(module, "groups_for_condition", partition)
        check = counting("consistency", consistency.check_consistency)
        for module in (consistency, expectation):
            monkeypatch.setattr(module, "check_consistency", check)
        monkeypatch.setattr(Atom, "_derive_forms", counting("forms", Atom._derive_forms))
        monkeypatch.setattr(Atom, "__init__", counting("atoms", Atom.__init__))
        monkeypatch.setattr(consistency, "_tighten", counting("tighten", consistency._tighten))

        rows = statement.run(params).rows()
        monkeypatch.undo()
        kept = sum(1 for _k, p in rows)
        assert kept > 20
        assert counts["partition"] == 1
        assert counts["forms"] <= 4
        assert counts["consistency"] == kept
        # The fixpoint reads only the shape (a constant folds into its
        # forms): once per part, the lat one and the lon one.
        assert counts["tighten"] == 2
        # Five for the statement's parameters (the plan rebinds its atoms),
        # four for the one row whose bind the shape is derived from: per
        # statement, not per row (four a row before).
        assert counts["atoms"] <= 5 + 4
        # The answers are the CDF's.
        with row_path():
            reference = _icebergs().prepare(ICEBERG).run(params).rows()
        assert [(k, p.hex()) for k, p in rows] == [(k, p.hex()) for k, p in reference]
        db.close()

    def test_an_empty_fixpoint_is_every_rows_strong_contradiction(self, monkeypatch):
        where = " FROM icebergs WHERE lat > 46 AND lat < 44"
        db = _icebergs()
        tightened = []
        tighten = consistency._tighten
        monkeypatch.setattr(consistency, "_tighten", lambda *a: tightened.append(a) or tighten(*a))
        rows = db.sql("SELECT iceberg_id, lat" + where).to_ctable().rows
        results = [consistency.check_consistency(row.condition) for row in rows]
        assert len(rows) == 120 and len(tightened) == 1
        assert all(r.is_inconsistent and r.strong and not r.bounds for r in results)
        monkeypatch.undo()
        got = [(k, p.hex()) for k, p in db.sql("SELECT iceberg_id, conf() AS p" + where).rows()]
        with row_path():
            reference = _icebergs()
            on_rows = reference.sql("SELECT iceberg_id, conf() AS p" + where).rows()
            reference.close()
        assert got == [(k, p.hex()) for k, p in on_rows]
        assert {p for _k, p in got} == {(0.0).hex()}
        db.close()


class TestPlanKeys:
    """A row's key is its shape's template and its variables' signatures:
    as fine as the condition's own structure, typed constants and all."""

    QUERY = "SELECT iceberg_id, lat FROM icebergs WHERE lat > %s AND lon < -48"

    def _keys(self, db, bound="44", params=None):
        rows = db.sql(self.QUERY % bound, params).to_ctable().rows
        return [plan_key(row.condition, ()) for row in rows]

    def test_rebound_rows_with_equal_variables_share_keys(self):
        db = _icebergs(40)
        first, again = self._keys(db), self._keys(db)
        assert len(set(first)) == 40 and None not in first
        assert first == again
        # The same atoms built by hand: an ad-hoc conjunction is its own shape.
        row = db.table("icebergs").rows[0]
        lat, lon = row.values[2], row.values[3]
        assert plan_key(conjunction_of(Atom(lat, ">", 44), Atom(lon, "<", -48)), ()) == first[0]
        db.close()

    def test_typed_constants_and_parameters_enter_the_key(self):
        db, other = _icebergs(40), _icebergs(40, seed=6)
        keys = self._keys(db, "1")
        assert all(a != b for a, b in zip(keys, self._keys(db, "1.0")))
        # Same vids, other distribution parameters.
        assert [r.values[2].var.vid for r in db.table("icebergs").rows] == [
            r.values[2].var.vid for r in other.table("icebergs").rows]
        assert all(a != b for a, b in zip(self._keys(db), self._keys(other)))
        assert set(self._keys(db, ":a", {"a": np.float64(44.0)})) == {None}
        assert None not in self._keys(db, ":a", {"a": 44.0})
        db.close()
        other.close()


def _mixed(factory_db):
    """Rows whose cells are every kind a symbolic column holds: a bare
    Normal, an expression, a plain number, an Exponential, one variable in
    two columns, a Poisson and a number in the pinned column."""
    db = factory_db
    normal = lambda m, s: var(db.create_variable("normal", (m, s)))  # noqa: E731
    poisson = lambda lam: var(db.create_variable("poisson", (lam,)))  # noqa: E731
    exponential = lambda rate: var(db.create_variable("exponential", (rate,)))  # noqa: E731
    shared = normal(0.5, 1.0)
    cells = [
        (0, normal(0.0, 1.0), normal(1.0, 2.0), poisson(3.0)),
        (1, 2 * normal(0.0, 1.0) + 1, normal(0.0, 1.0), poisson(2.0)),
        (2, 0.5, normal(1.0, 1.0), poisson(3.0)),
        (3, exponential(1.5), normal(0.0, 2.0), poisson(4.0)),
        (4, shared, shared, poisson(3.0)),
        (5, normal(0.0, 1.0), normal(1.0, 1.0), 2),
        (6, normal(0.2, 1.0), normal(0.0, 1.0), poisson(3.0)),
        (7, exponential(0.5), normal(1.0, 1.0), poisson(1.0)),
    ]
    table = CTable([("k", "int"), ("a", "any"), ("b", "any"), ("n", "any")], name="m")
    from repro.symbolic.conditions import TRUE

    table.rows = [CTRow(values, TRUE) for values in cells]
    db.register("m", table)
    return cells


MIXED = [
    ("a > -0.5 AND a < 2.0 AND b <> 0.25 AND n = 2",
     lambda a, b, n: [Atom(a, ">", -0.5), Atom(a, "<", 2.0), Atom(b, "<>", 0.25),
                      Atom(n, "=", 2)]),
    ("a > b AND b < 1.5",
     lambda a, b, n: [Atom(a, ">", b), Atom(b, "<", 1.5)]),
    ("a - b < 1.0 AND n >= 1 AND n < 4",
     lambda a, b, n: [Atom(a - b, "<", 1.0), Atom(n, ">=", 1), Atom(n, "<", 4)]),
]


def _answers(db, where):
    return [(k, p.hex()) for k, p in db.sql("SELECT k, conf() AS p FROM m WHERE " + where).rows()]


class TestMixedCells:
    @pytest.mark.parametrize("where,atoms", MIXED, ids=["box-pin", "two-slots", "difference"])
    def test_every_kind_of_cell_answers_as_built_by_hand(self, where, atoms):
        db = PIPDatabase(seed=11)
        cells = _mixed(db)
        got = _answers(db, where)
        by_hand = []
        for k, a, b, n in cells:
            # A ground atom (row 4's X > X) is decided at construction.
            condition = conjunction_of(*atoms(a, b, n))
            if condition is not FALSE:
                by_hand.append((k, conf(condition, engine=db.engine).probability.hex()))
        with row_path():
            reference = PIPDatabase(seed=11)
            _mixed(reference)
            on_rows = _answers(reference, where)
        assert got == by_hand == on_rows
        assert len(got) >= 5
        db.close()
        reference.close()

    def test_one_variable_in_two_slots_is_one_variable(self):
        db = PIPDatabase(seed=11)
        _mixed(db)
        # Row 4 holds one X in a and in b: ``X > X`` is false, ``X - X < 1`` true.
        assert 4 not in dict(db.sql("SELECT k, conf() FROM m WHERE a > b").rows())
        rows = dict(db.sql("SELECT k, conf() FROM m WHERE a - b < 1.0 AND a > 0.5").rows())
        assert rows[4] == 0.5
        db.close()


class TestPickles:
    QUERY = "SELECT iceberg_id, lat, lon FROM icebergs WHERE lat > 44.0 AND lon < -48.0"

    def test_a_bound_condition_pickles_as_its_bind(self):
        db = _icebergs(40)
        asked = _icebergs(40)
        plain = [pickle.dumps(row.condition) for row in db.sql(self.QUERY).to_ctable().rows]
        rows = asked.sql(self.QUERY).to_ctable().rows
        for row in rows:
            plan_key(row.condition, ())
            consistency.check_consistency(row.condition)
        planned = [pickle.dumps(row.condition) for row in rows]
        with row_path():
            reference = _icebergs(40)
            bound = [pickle.dumps(r.condition) for r in reference.sql(self.QUERY).to_ctable().rows]
        assert plain == planned == bound
        assert len(plain) > 5
        assert repr(rows[0].condition) == repr(pickle.loads(planned[0]))


class TestGroundAtoms:
    """An atom whose form has no variable left is a comparison of numbers:
    a conjunction decides it at construction, as a deterministic atom."""

    def _db(self, options=None):
        db = PIPDatabase(seed=3, options=options)
        db.sql("CREATE TABLE t (k int, m float)")
        db.insert_many("t", [(1, 0.0), (2, 1.0)])
        db.register("s", db.sql("SELECT k, create_variable('normal', m, 1.0) AS x FROM t"))
        return db

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
    def test_exact_sampled_and_closed_form_agree(self, exact):
        options = SamplingOptions(use_exact_probability=exact, n_samples=500)
        for path in (False, True):
            with row_path(path):
                db = self._db(options)
                assert db.sql("SELECT k, conf() FROM s WHERE x - x > 1").rows() == []
                assert db.sql("SELECT k, conf() FROM s WHERE x - x > 1 AND x > 0").rows() == []
                kept = dict(db.sql("SELECT k, conf() FROM s WHERE x - x < 1 AND x > 0").rows())
                closed = {k: 0.5 * math.erfc(-m / math.sqrt(2.0)) for k, m in ((1, 0.0), (2, 1.0))}
                for k, p in kept.items():
                    assert abs(p - closed[k]) < (1e-12 if exact else 0.06), (k, p)
                assert sorted(kept) == [1, 2]
                # Built by hand as well.
                x = db.table("s").rows[0].values[1]
                assert conjunction_of(Atom(x - x, ">", 1)) is FALSE
                assert conjunction_of(Atom(x - x, "<", 1), Atom(x, ">", 0)).atoms == (
                    Atom(x, ">", 0),)
                db.close()
