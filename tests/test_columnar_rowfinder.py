"""Cost proportional to matches: count-based pins, no wall clock.

Finding rows — for SELECT, JOIN, UPDATE and DELETE — asks one mask and
pays for its hits.  These tests count the per-row work that used to scale
with the table (row mappings, ``CTRow`` constructions, predicate bindings,
column-store builds) and pin it to the number of matches.
"""

import pytest

from repro import PIPDatabase
from repro.columnar import columns as C
from repro.columnar import ops as cops
from repro.ctables import algebra
from repro.ctables.table import CTable, CTRow
from repro.symbolic.atoms import Atom
from repro.symbolic.conditions import TRUE, conjunction_of
from repro.symbolic.expression import col

from tests.differential.generator import row_path

N = 500


@pytest.fixture
def db():
    db = PIPDatabase(seed=3)
    db.sql("CREATE TABLE items (k int, price float, qty int)")
    db.insert_many("items", [(i, i * 0.25, i % 9) for i in range(N)])
    db.sql("SELECT k FROM items WHERE k = 1")  # warm the store
    return db


def _count_calls(monkeypatch, owner, name, wrap=lambda fn: fn):
    """Replace ``owner.name`` with a counting pass-through."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrap(counted))
    return calls


def test_point_select_touches_only_its_row(db, monkeypatch):
    mappings = _count_calls(monkeypatch, CTable, "row_mapping")
    rows = db.sql("SELECT k, price, qty FROM items WHERE k = 123").rows()
    assert rows == [(123, 30.75, 6)]
    assert mappings == []


@pytest.mark.parametrize("lo,hi", [(7, 8), (100, 140), (0, N), (N, N + 5)])
def test_filter_constructs_one_row_per_hit(db, monkeypatch, lo, hi):
    """A deterministic scan stays column-held through filter and projection
    (no ``CTRow``); the first read of ``.rows`` wraps each hit once."""
    built = _count_calls(monkeypatch, CTRow, "__init__")
    atoms = [Atom(col("k"), ">=", lo), Atom(col("k"), "<", hi)]
    kept = cops.select_vectorized(
        db, db.table("items"), atoms, conjunction_of(*atoms)
    )
    out = cops.project(db, kept, [("key", col("k")), "price"])
    hits = list(range(lo, min(hi, N)))
    assert kept.held and out.held and len(kept) == len(out) == len(hits)
    assert out.value_tuples() == [(k, k * 0.25) for k in hits]
    assert out.column_values("key") == hits
    assert built == []
    assert [row.values for row in out.rows] == [(k, k * 0.25) for k in hits]
    assert len(built) == len(hits) and not out.held
    assert all(row.condition is TRUE for row in out.rows)
    assert len(built) == len(hits)  # the second read builds nothing
    assert kept.held  # the projection's rows are not the filter's


def test_keyed_update_and_delete_decide_one_row(db, monkeypatch):
    decided = _count_calls(
        monkeypatch, PIPDatabase, "_predicate_matches", wrap=staticmethod
    )
    assert db.sql("UPDATE items SET qty = 0 WHERE k = 77") == 1
    assert len(decided) == 1
    assert db.sql("DELETE FROM items WHERE k = 78 OR k = 400") == 2
    assert len(decided) == 3
    assert db.sql("DELETE FROM items WHERE k = -5") == 0
    assert len(decided) == 3
    assert db.sql("SELECT k, qty FROM items WHERE k >= 76 AND k < 80").rows() == [
        (76, 4), (77, 0), (79, 7),
    ]


def test_row_database_still_decides_every_row(monkeypatch):
    """On the row path (``candidate_rows`` declines) every row is decided."""
    db = PIPDatabase(seed=3)
    db.sql("CREATE TABLE t (k int)")
    db.insert_many("t", [(i,) for i in range(40)])
    decided = _count_calls(
        monkeypatch, PIPDatabase, "_predicate_matches", wrap=staticmethod
    )
    with row_path():
        assert db.sql("UPDATE t SET k = 99 WHERE k = 7") == 1
    assert len(decided) == 40


def test_aliased_scan_builds_no_store(db, monkeypatch):
    source = C.store_for(db.table("items"))
    built = _count_calls(monkeypatch, C.ColumnStore, "__init__")
    rows = db.sql("SELECT i.k, i.price FROM items i WHERE i.k = 42").rows()
    assert rows == [(42, 10.5)]
    assert db.sql("SELECT * FROM items i").rows()[:1] == [(0, 0.0, 0)]
    assert built == []
    # The alias's store is the source's columns under other names: what
    # one materialised the other finds (here, the key column's array).
    alias = algebra.prefix(db.table("items"), "i")
    twin = alias.colstore
    assert twin is not source and twin.valid_for(alias)
    assert twin.resolve("i.k") == source.resolve("k") == 0
    assert twin.numeric(0) is source.numeric(0)
    assert twin.resolve("k") == 0 and twin.resolve("price") == 1  # unique suffix
    assert twin.resolve("nope") is None
    # A write drops the source's store; the alias keeps serving its rows.
    db.sql("UPDATE items SET price = -1.0 WHERE k = 42")
    assert db.table("items").colstore is None
    assert twin.valid_for(alias) and alias.rows[42].values[1] == 10.5


def test_no_store_for_a_conjunction_that_cannot_compile(db, monkeypatch):
    """``/`` never vectorizes, and ``scan_mask`` reads that off the atoms
    before it asks for a store: the statement runs the row path without
    building one — SELECT, UPDATE and DELETE alike, parameters or not."""
    db.sql("UPDATE items SET qty = 1 WHERE k = 3")  # drops the warm store
    assert db.table("items").colstore is None
    built = _count_calls(monkeypatch, C.ColumnStore, "__init__")
    assert db.sql("SELECT k FROM items WHERE price / 2.0 > 62.0").rows() == [
        (i,) for i in range(497, N)
    ]
    assert db.prepare("SELECT k FROM items WHERE k / :d = 1").run(d=250).rows() == [
        (250,)
    ]
    assert db.sql("UPDATE items SET qty = 2 WHERE k / 2 = 5") == 1
    assert db.sql("DELETE FROM items WHERE k / 2 = 6.5") == 1
    assert built == [] and db.table("items").colstore is None
    assert cops.scan_mask(db, db.table("items"), [Atom(col("k") / 2, "=", 5)]) is None
    assert built == []


def test_grouped_aggregates_build_no_store(db, monkeypatch):
    """GROUP BY sums within groups: no table per group is columnised, and
    an aggregate straight over a stored table reads its rows, not a store."""
    built = _count_calls(monkeypatch, C.ColumnStore, "__init__")
    rows = db.sql(
        "SELECT qty, expected_sum(price) AS s, expected_count(*) AS n,"
        " expected_max(price) AS hi, expected_min(k) AS lo"
        " FROM items WHERE k < 90 GROUP BY qty"
    ).rows()
    assert rows == [
        (q, sum(i * 0.25 for i in range(q, 90, 9)), 10.0, (81 + q) * 0.25, float(q))
        for q in range(9)
    ]
    assert db.sql("SELECT expected_avg(price) AS a FROM items").rows() == [
        (sum(i * 0.25 for i in range(N)) / N,)
    ]
    assert built == []


def test_mixed_table_keeps_table_order(db):
    """Deterministic hits and symbolic-remainder survivors interleave in
    table order, conditions as ``algebra.select`` builds them."""
    db.register(
        "noisy",
        db.sql(
            "SELECT k, price, price + create_variable('normal', 0.0, 1.0) AS u"
            " FROM items WHERE k < 60"
        ),
    )
    gated = db.sql("SELECT k, price FROM noisy WHERE u > 3.0").to_ctable()
    plain = db.sql("SELECT k, price FROM items WHERE k >= 60 AND k < 120").to_ctable()
    rows = [row for pair in zip(gated.rows, plain.rows) for row in pair]
    mixed = gated.with_rows(rows, name="mixed")
    assert not C.store_for(mixed).all_det and len(C.store_for(mixed).det_rows) == 60
    for atoms in (
        [Atom(col("price"), ">", 5.0)],
        [Atom(col("k"), "=", 70)],
        [Atom(col("price"), ">=", 2.0), Atom(col("k"), "<", 90)],
        [Atom(col("k"), "<", 0)],
    ):
        condition = conjunction_of(*atoms)
        want = algebra.select(mixed, condition)
        got = cops.select_vectorized(db, mixed, atoms, condition)
        assert [(r.values, repr(r.condition)) for r in got.rows] == [
            (r.values, repr(r.condition)) for r in want.rows
        ]

