"""Fallback-boundary fuzzer: force every vectorized operator through its
symbolic-fallback seam and prove the seam is invisible.

The differential harness samples realistic queries; this file aims the
generator straight at the boundaries — unsupported atoms, symbolic cells
in referenced columns, mixed det/symbolic tables, tiny chunk sizes (so
masks cross chunk boundaries), NaN/±0.0/huge-int cell values, and the
group-by / aggregate fallback gates — asserting the vectorized path and
the row path agree (or raise the same error) at every one.
"""

import math
import random

import numpy as np
import pytest

from repro import PIPDatabase
from repro.columnar import columns as C
from repro.columnar import ops as cops
from repro.ctables import algebra
from repro.symbolic.atoms import Atom
from repro.symbolic.conditions import conjunction_of
from repro.symbolic.expression import col
from repro.util.errors import PIPError

from tests.differential.generator import canon_value, on_both

OPS = ["=", "<>", "<", "<=", ">", ">="]


def _mixed_db():
    db = PIPDatabase(seed=9)
    db.sql("CREATE TABLE det (id int, v float, n int, s str)")
    rows = []
    rng = random.Random(31)
    for i in range(37):
        roll = rng.random()
        if roll < 0.08:
            v = float("nan")
        elif roll < 0.16:
            v = -0.0
        else:
            v = round(rng.uniform(-20.0, 20.0), 3)
        n = rng.choice([rng.randint(-9, 9), 2**53 + 1, -(2**53) - 1])
        rows.append((i, v, n, rng.choice(["x", "y", "z"])))
    db.insert_many("det", rows)
    db.register(
        "seeded",
        db.sql(
            "SELECT id, v, n, s,"
            " v + create_variable('normal', 0.0, 1.0) AS u FROM det"
        ),
    )
    db.register("mixed", db.sql("SELECT id, v, n, s FROM seeded WHERE u > 0.0"))
    db.insert_many("mixed", rows[:11])
    return db


def _canon_table(table):
    return [
        (tuple(canon_value(v) for v in row.values), repr(row.condition))
        for row in table.rows
    ]


def _run_select(fn):
    try:
        return ("ok", _canon_table(fn()))
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))


@pytest.mark.parametrize("table_name", ["det", "mixed"])
def test_filter_fuzz_tiny_chunks(table_name):
    """Randomized single-atom and two-atom conjunctions over every
    column/op/constant shape, with 3-row chunks so pruning and masking
    cross chunk boundaries constantly.  Wherever the vectorized filter
    runs at all, its output must match ``algebra.select`` bit for bit."""
    db = _mixed_db()
    table = db.tables[table_name]
    C.store_for(table, chunk_size=3)  # pin tiny chunks for the whole test
    rng = random.Random(77)
    constants = [
        0.0,
        -0.0,
        3.25,
        -17.5,
        float("nan"),
        2,
        2**53 + 1,
        "y",
        "missing",
    ]
    vectorized_runs = 0
    for _ in range(300):
        n_atoms = rng.choice([1, 1, 2])
        atoms = []
        for _a in range(n_atoms):
            lhs = col(rng.choice(["id", "v", "n", "s"]))
            rhs = rng.choice(constants)
            op = rng.choice(OPS)
            if rng.random() < 0.3:
                lhs, rhs = rhs, lhs  # constant on the left
            atoms.append(Atom(lhs, op, rhs))
        condition = conjunction_of(*atoms)
        row_out = _run_select(lambda: algebra.select(table, condition))
        vec_table = cops.select_vectorized(db, table, atoms, condition)
        if vec_table is None:
            continue  # fallback seam: the row path is the result
        vectorized_runs += 1
        assert ("ok", _canon_table(vec_table)) == row_out, (
            "divergence for %r" % (atoms,)
        )
    assert vectorized_runs > 50  # the fuzz actually exercised the fast path


def _seam_table():
    """Deterministic rows carrying symbolic cells (``u`` always, ``m`` on
    every third row), NaN / ±0.0 / huge-int cells, a column mixing numbers
    and strings (``x``), and a symbolic-remainder row after every fourth."""
    from repro.symbolic.expression import var

    db = PIPDatabase(seed=13)
    db.create_table(
        "seam",
        [("id", "int"), ("v", "float"), ("n", "any"), ("s", "str"),
         ("u", "any"), ("m", "any"), ("x", "any")],
    )
    rng = random.Random(41)
    for i in range(41):
        y = var(db.create_variable("normal", (0.0, 1.0)))
        v = rng.choice([float("nan"), -0.0, 0.0, round(rng.uniform(-9.0, 9.0), 2)])
        n = rng.choice([0, rng.randint(-4, 4), 2**53 + 1, 10**400])
        m = y * 2.0 if i % 3 == 0 else round(rng.uniform(-3.0, 3.0), 1)
        x = "w" if i % 7 == 5 else rng.randint(0, 5)
        values = (i, v, n, rng.choice(["x", "y"]), v + y, m, x)
        if i % 5 == 4:
            db.insert("seam", values, conjunction_of(Atom(y, ">", 0.25)))
        else:
            db.insert("seam", values)
    return db


_SEAM_ATOMS = {
    "mask": [
        Atom(col("id"), ">=", 7), Atom(col("id"), "<", 30),
        Atom(col("v"), ">", -1.0), Atom(col("s"), "=", "y"), Atom(2.5, ">=", col("v")),
    ],
    "all_symbolic": [
        Atom(col("u"), ">", 0.5), Atom(col("u") + col("v"), "<", 3.0),
        Atom(col("u") * col("id"), ">", col("v")),
    ],
    "mixed_cells": [
        Atom(col("m"), ">", 0.0), Atom(col("m") - 1.0, "<=", col("u")),
        Atom(col("m"), "<>", col("v")),
    ],
    "raises": [
        Atom(col("v") / col("n"), ">", 0.0), Atom(col("x"), "<", 3),
        Atom(col("s"), ">=", 1.0), Atom(col("n") * 1.5, ">", 0.0),
        Atom(col("nope"), "=", 1),
    ],
    "odd_constant": [
        Atom(col("m"), "=", "y"), Atom(col("u"), "<", 2**53 + 1),
        Atom(col("n"), "<", 2**53 + 1), Atom(col("m"), ">", "a"),
    ],
}


@pytest.mark.parametrize("chunk_size", [None, 3])
def test_mask_and_residual_seam_fuzz(chunk_size):
    """Mask atoms beside atoms that must be bound row by row, in every
    order: a table back means ``algebra.select``'s rows, order and
    conditions; where the row path raises, ``None`` or the same error."""
    import itertools

    db = _seam_table()
    table = db.tables["seam"]
    C.store_for(table, chunk_size=chunk_size)
    rng = random.Random(103)
    kinds = sorted(_SEAM_ATOMS) + ["mask", "mask", "all_symbolic", "mixed_cells"]
    split = whole = raised = 0
    for _ in range(90):
        drawn = [
            rng.choice(_SEAM_ATOMS[rng.choice(kinds)])
            for _a in range(rng.choice([2, 3, 3, 4]))
        ]
        for atoms in set(itertools.permutations(drawn)):
            condition = conjunction_of(*atoms)
            row_out = _run_select(lambda: algebra.select(table, condition))
            try:
                vec_table = cops.select_vectorized(db, table, list(atoms), condition)
            except Exception as exc:
                assert ("error", type(exc).__name__, str(exc)) == row_out, atoms
                continue
            raised += row_out[0] == "error"
            if vec_table is None:
                whole += 1
                continue
            split += 1
            assert ("ok", _canon_table(vec_table)) == row_out, (
                "divergence for %r" % (atoms,)
            )
    assert split > 200 and whole > 200 and raised > 100, (split, whole, raised)


def test_int_product_that_outgrows_a_float_is_not_skipped():
    """``k * k * … * 1.5`` over float64-exact ints raises OverflowError
    once the int product passes the largest float: ahead of a mask atom
    the split takes such a tree only while it is too small for that."""
    import functools
    import operator

    db = PIPDatabase(seed=2)
    db.sql("CREATE TABLE p (id int, k int)")
    # Only rows the mask drops hold the large factor.
    db.insert_many("p", [(i, 1 if i == 3 else 2**53) for i in range(6)])
    table = db.tables["p"]
    for factors, outcome in ((17, "ok"), (20, "error")):
        product = functools.reduce(operator.mul, [col("k")] * factors)
        atoms = [Atom(product * 1.5, ">", 0.0), Atom(col("id"), "=", 3)]
        condition = conjunction_of(*atoms)
        row_out = _run_select(lambda: algebra.select(table, condition))
        assert row_out[0] == outcome
        vec_table = cops.select_vectorized(db, table, atoms, condition)
        if outcome == "ok":
            assert ("ok", _canon_table(vec_table)) == row_out
            assert [row.values[0] for row in vec_table.rows] == [3]
        else:
            assert row_out[1] == "OverflowError" and vec_table is None


def test_unsupported_atom_falls_back_whole_conjunction():
    db = _mixed_db()
    table = db.tables["det"]
    atoms = [
        Atom(col("v"), ">", 0.0),
        Atom(col("v") / col("n"), ">", 0.0),  # division never vectorizes
    ]
    assert (
        cops.select_vectorized(db, table, atoms, conjunction_of(*atoms)) is None
    )


def test_symbolic_cell_in_referenced_column_is_bound_not_compared():
    """An Expression cell makes the row path treat the atom as symbolic;
    the column must refuse to vectorize rather than compare the object,
    and the atom is bound row by row as ``algebra.select`` binds it."""
    db = _mixed_db()
    table = db.tables["seeded"]  # u column holds expressions on det rows
    atoms = [Atom(col("u"), "=", 1.0)]
    condition = conjunction_of(*atoms)
    assert _canon_table(
        cops.select_vectorized(db, table, atoms, condition)
    ) == _canon_table(algebra.select(table, condition))
    store = C.store_for(table)
    assert store.det_objects(store.resolve("u")) is None
    assert store.numeric(store.resolve("u")) is None


def test_huge_int_column_refuses_float64():
    db = _mixed_db()
    store = C.store_for(db.tables["det"])
    assert store.numeric(store.resolve("n")) is None  # 2**53+1 present
    assert store.numeric(store.resolve("v")) is not None


def test_project_expression_items_fall_back():
    pair = (PIPDatabase(seed=1), PIPDatabase(seed=1))
    for db in pair:
        db.sql("CREATE TABLE t (a int, b float)")
        db.insert_many("t", [(i, i * 0.5) for i in range(40)])
    for query in (
        "SELECT a, b FROM t",
        "SELECT b + 1.0 AS y, a FROM t",
        "SELECT a FROM t WHERE b >= 3.0",
    ):
        row_rows, col_rows = on_both(pair, lambda db: db.sql(query).rows())
        assert row_rows == col_rows


def test_partition_fallback_seams():
    """Sort-based keying handles exactly one numeric NaN-free column;
    strings, NaN keys and multi-column groups take the row path, and an
    Expression group cell raises on both paths."""
    pair = (PIPDatabase(seed=2), PIPDatabase(seed=2))
    for db in pair:
        db.sql("CREATE TABLE g (k int, f float, s str, v float)")
        rows = []
        rng = random.Random(5)
        for i in range(50):
            rows.append(
                (
                    rng.randint(0, 4),
                    rng.choice([1.5, -0.0, 0.0, float("nan")]),
                    rng.choice(["a", "b"]),
                    rng.uniform(0, 10),
                )
            )
        db.insert_many("g", rows)
    for query in (
        "SELECT k, expected_sum(v) AS sv FROM g GROUP BY k",
        "SELECT s, expected_sum(v) AS sv FROM g GROUP BY s",
        "SELECT f, expected_count(*) AS n FROM g GROUP BY f",  # NaN keys
        "SELECT k, s, expected_count(*) AS n FROM g GROUP BY k, s",
    ):
        row_rows, col_rows = on_both(pair, lambda db: db.sql(query).rows())
        assert [
            tuple(canon_value(v) for v in r) for r in row_rows
        ] == [tuple(canon_value(v) for v in r) for r in col_rows], query

    # Expression group cells: identical PIPError from both paths.
    def group_by_symbolic_cell(db):
        db.register(
            "sym",
            db.sql("SELECT create_variable('normal', 0.0, 1.0) AS u, v FROM g"),
        )
        with pytest.raises(PIPError):
            db.sql("SELECT u, expected_sum(v) AS sv FROM sym GROUP BY u")

    on_both(pair, group_by_symbolic_cell)


def test_aggregate_kernel_seams():
    """Aggregates fall back (and still agree) on: symbolic rows present,
    non-column targets, NaN columns for max/min, infinities, and empty
    tables; and agree with closed forms where the kernel does run."""
    pair = (PIPDatabase(seed=3), PIPDatabase(seed=3))

    def load(db):
        db.sql("CREATE TABLE a (v float, w float)")
        db.insert_many(
            "a",
            [(1.5, 2.0), (float("nan"), 3.0), (-0.25, float("inf")), (4.0, 0.5)],
        )
        db.sql("CREATE TABLE empty (v float, w float)")
        db.register(
            "symrows",
            db.sql(
                "SELECT v, w, create_variable('normal', 0.0, 1.0) AS u FROM a"
            ),
        )
        db.register("gated", db.sql("SELECT v, w FROM symrows WHERE u > 0.0"))

    on_both(pair, load)
    for query in (
        "SELECT expected_sum(v) AS x FROM a",  # NaN row skipped by both
        "SELECT expected_avg(v) AS x FROM a",
        "SELECT expected_max(v) AS x FROM a",  # NaN: isfinite gate -> row path
        "SELECT expected_min(v) AS x FROM a",
        "SELECT expected_max(w) AS x FROM a",  # inf -> row path, inf result
        "SELECT expected_sum(v + w) AS x FROM a",  # non-column target
        "SELECT expected_count(*) AS x FROM empty",
        "SELECT expected_max(v) AS x FROM empty",
        "SELECT expected_min(v) AS x FROM empty",
        "SELECT expected_sum(v) AS x FROM gated",  # symbolic conditions
        "SELECT expected_max(v) AS x FROM gated",
    ):
        row_res, col_res = on_both(pair, lambda db: db.sql(query))
        assert [
            tuple(canon_value(v) for v in r) for r in row_res.rows()
        ] == [tuple(canon_value(v) for v in r) for r in col_res.rows()], query
        row_est = [
            (e.column, e.method, e.n_samples, e.exact) for e in row_res.estimates
        ]
        col_est = [
            (e.column, e.method, e.n_samples, e.exact) for e in col_res.estimates
        ]
        assert row_est == col_est, query


def test_masks_respect_numpy_python_comparison_parity():
    """Spot-check the IEEE edge cases the mask path leans on: NaN fails
    every comparison but <>, and -0.0 == 0.0."""
    db = PIPDatabase(seed=4)
    db.sql("CREATE TABLE e (v float)")
    db.insert_many("e", [(float("nan"),), (-0.0,), (0.0,), (1.0,)])
    table = db.tables["e"]
    for op in OPS:
        atoms = [Atom(col("v"), op, 0.0)]
        vec = cops.select_vectorized(db, table, atoms, conjunction_of(*atoms))
        ref = algebra.select(table, conjunction_of(*atoms))
        assert vec is not None
        assert _canon_table(vec) == _canon_table(ref), op
    assert np.isnan(float("nan"))  # sanity: numpy is the comparison engine
    assert math.copysign(1.0, -0.0) == -1.0


#: Cells outside ``ctables.schema.PLAIN`` in an ``any`` column, on rows
#: whose condition is TRUE: each is the row path's to bind (a random
#: variable makes the atom symbolic, a container raises in
#: ``as_expression``, a NumPy scalar converts).
ODD_CELLS = {
    "random-variable": lambda db: db.create_variable("normal", [0.0, 1.0]),
    "list": lambda db: [1],
    "dict": lambda db: {"a": 1},
    "tuple": lambda db: (1,),
    "bytes": lambda db: b"x",
    "numpy-scalar": lambda db: np.float64(1.0),
}


def _odd_cell_outcome(db, text):
    try:
        out = db.sql(text)
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))
    if isinstance(out, int):  # DELETE: the count, then what is left
        return ("ok", out, _canon_table(db.table("t")))
    return ("ok", _canon_table(out.to_ctable()))


@pytest.mark.parametrize("kind", sorted(ODD_CELLS))
def test_non_plain_cells_take_the_row_path(kind):
    """A column holding one non-plain cell answers ``=``, ``<>`` and
    ``<`` — in a SELECT and a DELETE — with the row path's rows, order and
    conditions, or its error type and text."""
    for op in ("=", "<>", "<"):
        for verb in ("SELECT k, c FROM t WHERE", "DELETE FROM t WHERE"):
            text = "%s c %s 1" % (verb, op)

            def run(db):
                db.create_table("t", [("k", "int"), ("c", "any")])
                odd = ODD_CELLS[kind](db)
                db.insert_many("t", [(0, 5), (1, odd), (2, 1), (3, "x"), (4, 1.0)])
                return _odd_cell_outcome(db, text)

            row_out, col_out = on_both((PIPDatabase(seed=1), PIPDatabase(seed=1)), run)
            assert col_out == row_out, (kind, text)
