"""Differential coverage for the mask-driven row finder.

The seeded generator (``generator.py``) has no alias, no join, no
``UPDATE`` and no ``DELETE`` — exactly the statements that now find their
rows through ``columnar.ops.scan_mask``.  This file runs them through two
databases, the first built and queried inside ``row_path()`` (the
oracle), and requires the same rows in the same order under the same
conditions, the same errors, the same affected counts, the same tables
afterwards and, on a durable pair, the same WAL bytes.  Every case also
runs with 3-row chunks, so masks and zone maps cross chunk boundaries on
every statement.

``PIP_DIFF_DEEP=1`` widens the sweep: more seeds, larger tables.
"""

import os
import random

import pytest

from repro import PIPDatabase
from repro.columnar import columns as C
from repro.symbolic.atoms import Atom
from repro.symbolic.conditions import conjunction_of
from repro.symbolic.expression import Constant, var
from repro.util.errors import PlanError, SchemaError

from tests.differential.generator import canon_value, on_both, row_path

DEEP = os.environ.get("PIP_DIFF_DEEP", "").strip() not in ("", "0")
SEEDS = [11, 22] + ([33, 44, 55] if DEEP else [])
N_DET = 400 if DEEP else 60


@pytest.fixture(params=[None, 3], ids=["chunk-default", "chunk-3"])
def chunk(request, monkeypatch):
    """Default chunks, then 3-row chunks for every store built (stores
    are rebuilt after each write, so pinning one store is not enough)."""
    if request.param is not None:
        monkeypatch.setattr(C, "DEFAULT_CHUNK", request.param)
    return request.param


def _load(db, seed):
    """``det`` (all deterministic), ``other`` (join partner), ``mixed``
    (deterministic rows between rows under symbolic conditions, plain
    cells throughout) and ``symcell`` (a symbolic cell in column ``u``)."""
    rng = random.Random(seed)
    db.sql("CREATE TABLE det (id int, grp int, v float, n int, s str)")
    db.insert_many(
        "det",
        [
            (
                i,
                rng.randint(0, 4),
                rng.choice([float("nan"), -0.0, round(rng.uniform(-30, 30), 2)]),
                rng.choice([rng.randint(-9, 9), 2**53 + 1]),
                rng.choice(["ash", "fir", "oak"]),
            )
            for i in range(N_DET)
        ],
    )
    db.sql("CREATE TABLE other (grp int, label str, factor float)")
    db.insert_many(
        "other", [(g % 5, "g%d" % g, 1.0 + g / 4.0) for g in range(7)]
    )
    db.sql("CREATE TABLE src (id int, grp int, v float)")
    db.insert_many(
        "src",
        [(i, rng.randint(0, 4), round(rng.uniform(-30, 30), 2)) for i in range(12)],
    )
    db.register(
        "noisy",
        db.sql(
            "SELECT id, grp, v,"
            " v + create_variable('normal', 0.0, 2.0) AS u FROM src"
        ),
    )
    db.register("mixed", db.sql("SELECT id, grp, v FROM noisy WHERE u > 0.5"))
    db.insert_many(
        "mixed",
        [(100 + i, rng.randint(0, 4), round(rng.uniform(-30, 30), 2)) for i in range(15)],
    )
    db.register("mixed", _interleaved(db.table("mixed")))
    db.register("symcell", db.sql("SELECT id, v, u FROM noisy"))
    # Drawn after the older inputs, which stand: deterministic rows whose
    # ``u`` is symbolic and whose ``m`` is on every third, between rows
    # under symbolic conditions, with a number-or-string column ``x``.
    db.create_table(
        "blend", [("id", "int"), ("grp", "int"), ("v", "float"), ("u", "any"),
                  ("m", "any"), ("x", "any")]
    )
    for i in range(N_DET // 2):
        y = var(db.create_variable("normal", (0.0, 1.5)))
        v = rng.choice([float("nan"), -0.0, round(rng.uniform(-30, 30), 2)])
        m = y * 2.0 if i % 3 == 0 else round(rng.uniform(-3, 3), 1)
        values = (i, rng.randint(0, 4), v, v + y, m, "w" if i % 7 == 5 else i % 4)
        if i % 5 == 4:
            db.insert("blend", values, conjunction_of(Atom(y, ">", 0.25)))
        else:
            db.insert("blend", values)


def _interleaved(table):
    """The same rows with the deterministic ones spread between the
    symbolic ones, so order-preserving merges have something to merge."""
    rows = list(table.rows)
    half = len(rows) // 2
    shuffled = [row for pair in zip(rows[:half], rows[half:]) for row in pair]
    shuffled.extend(rows[2 * half:])
    return table.with_rows(shuffled, name="mixed")


def _pair(seed, tmp_path=None):
    dbs = []
    for columnar in (False, True):
        with row_path(not columnar):
            if tmp_path is None:
                db = PIPDatabase(seed=5)
            else:
                db = PIPDatabase.open(str(tmp_path / ("col%d" % columnar)), seed=5)
            _load(db, seed)
        dbs.append(db)
    return dbs


def _canon_table(table):
    return (
        list(table.schema.names),
        [
            (tuple(canon_value(v) for v in row.values), repr(row.condition))
            for row in table.rows
        ],
    )


def _outcome(fn):
    try:
        out = fn()
    except Exception as exc:  # must fail identically on both paths
        return ("error", type(exc).__name__, str(exc))
    if hasattr(out, "to_ctable"):
        return ("ok", _canon_table(out.to_ctable()))
    return ("ok", out)


def _both(pair, fn):
    """The outcome of ``fn(db)`` on each of a pair, the first on the row path."""
    return on_both(pair, lambda db: _outcome(lambda: fn(db)))


def _constants(seed):
    rng = random.Random(seed * 31 + 7)
    return [round(rng.uniform(-25, 25), 2) for _ in range(3)]


@pytest.mark.parametrize("seed", SEEDS)
def test_alias_and_join(seed, chunk):
    pair = _pair(seed)
    queries = ["SELECT * FROM det d WHERE d.grp = 2", "SELECT m.id, m.v FROM mixed m"]
    for c in _constants(seed):
        queries += [
            "SELECT d.id, o.label, d.v FROM det d JOIN other o"
            " ON d.grp = o.grp WHERE d.v > %s" % c,
            "SELECT d.id, o.label, d.v * o.factor AS adj FROM det d JOIN other o"
            " ON d.grp = o.grp WHERE d.v > %s AND d.id < 40" % c,
            "SELECT m.id, o.label FROM mixed m JOIN other o"
            " ON m.grp = o.grp WHERE m.v > %s" % c,
            "SELECT d.id, m.id AS mid FROM det d JOIN mixed m"
            " ON d.grp = m.grp AND d.v > m.v WHERE d.id < 25",
            "SELECT d.id FROM det d JOIN other o ON d.n / 2 = o.grp"  # row path
            " WHERE d.id < 30",
            "SELECT i.id, i.v FROM det i WHERE i.v > %s OR i.id = 3" % c,
        ]
    for query in queries:
        expected, got = _both(pair, lambda db: db.sql(query))
        assert expected[0] == "ok", (query, expected)
        assert got == expected, query


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_where_and_on(seed, chunk):
    """Deterministic atoms beside atoms over symbolic cells, in a WHERE
    and in a join's ON, in either order — the mask keeps the rows, the
    rest is bound on them — and beside atoms that raise on some rows,
    where both executors fail alike or neither does."""
    pair = _pair(seed)
    queries = []
    for c in _constants(seed):
        window = "id >= %d AND id < %d" % (abs(int(c)), abs(int(c)) + 9)
        for symbolic in ("u > %s" % c, "u > v", "m > 0.5", "m - 1.0 <= u",
                         "u * 2.0 + m < %s" % c, "m = 'oak'",
                         "u < 9007199254740993"):
            queries += [
                "SELECT id, u FROM blend WHERE %s AND %s" % (symbolic, window),
                "SELECT id, m FROM blend WHERE %s AND %s" % (window, symbolic),
                "SELECT id FROM blend WHERE id >= 3 AND %s AND grp = 2" % symbolic,
                "SELECT o.label, b.id FROM other o JOIN blend b"
                " ON %s AND o.grp = b.grp WHERE b.id < 30"
                % symbolic.replace("u", "b.u").replace("m ", "b.m ").replace(" v", " o.factor"),
                "SELECT o.label, b.u FROM other o JOIN blend b"
                " ON o.grp = b.grp AND b.id < 12 AND %s"
                % symbolic.replace("u", "b.u").replace("m ", "b.m ").replace(" v", " b.v"),
            ]
        for raising in ("x < 3", "v / x > %s" % c, "u > nope", "x * 1.5 > %s" % c):
            queries += [
                "SELECT id FROM blend WHERE %s AND %s" % (raising, window),
                "SELECT id FROM blend WHERE %s AND %s" % (window, raising),
                "SELECT id FROM blend WHERE id = 5 AND %s" % raising,
                "SELECT id FROM blend WHERE id = 4 AND %s" % raising,
                "SELECT id FROM blend WHERE id = -1 AND %s" % raising,
                "SELECT o.label FROM other o JOIN blend b ON o.grp = b.grp AND %s"
                % raising.replace("x", "b.x").replace("u ", "b.u ").replace("v ", "b.v "),
            ]
    results = set()
    for query in queries:
        expected, got = _both(pair, lambda db: db.sql(query))
        results.add(expected[0])
        assert got == expected, query
    assert results == {"ok", "error"}


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_projection_seams(seed, chunk):
    """What a projected reference must not pass through untouched: a
    symbolic cell, a Constant-expression cell (the row path unwraps it),
    and a name that does not resolve — an error on a table with rows,
    none on an empty one, exactly as the row path has it."""
    pair = _pair(seed)
    for db in pair:
        db.create_table("wrapped", [("k", "int"), ("c", "any")])
        db.insert_many("wrapped", [(1, Constant(2.5)), (2, 3.5), (3, Constant("x"))])
        db.sql("CREATE TABLE empty (k int, v float)")
    queries = [
        "SELECT id, u FROM symcell",
        "SELECT u AS renamed, id FROM symcell WHERE id > 3",
        "SELECT k, c FROM wrapped",
        "SELECT c AS c2 FROM wrapped WHERE k >= 2",
        "SELECT w.c, w.k FROM wrapped w",
        "SELECT k, v FROM empty",
        "SELECT nope FROM empty",
        "SELECT e.nope AS x FROM empty e",
        "SELECT nope FROM det",
        "SELECT id, d.nope FROM det d WHERE d.id < 5",
        "SELECT d.id, o.grp, grp FROM det d JOIN other o ON d.grp = o.grp",  # ambiguous
    ]
    for query in queries:
        expected, got = _both(pair, lambda db: db.sql(query))
        assert got == expected, query
    db_col = pair[1]
    unwrapped = db_col.sql("SELECT k, c FROM wrapped").rows()
    assert unwrapped == [(1, 2.5), (2, 3.5), (3, "x")]
    assert _outcome(lambda: db_col.sql("SELECT nope FROM empty"))[0] == "ok"
    with pytest.raises(SchemaError):
        db_col.sql("SELECT nope FROM det")


def _dml_statements(seed):
    lo, mid, hi = sorted(_constants(seed))
    predicates = [
        "id = 7",
        "grp = 3",
        "s = 'fir'",
        "v >= %s AND v < %s" % (lo, hi),
        "v > %s OR id = 2" % hi,
        "grp = 1 OR grp = 4",
        "v / 2.0 > %s" % mid,  # '/' never vectorizes: whole-predicate fallback
        "grp = 0 OR v / 2.0 > %s" % hi,  # one disjunct falls back -> all do
        "n = 4",  # 2**53 + 1 in the column: no float64 array, object equality
        "id = -1",  # matches nothing
    ]
    statements = []
    for position, predicate in enumerate(predicates):
        if position % 2:
            statements.append("DELETE FROM %s WHERE " + predicate)
        else:
            statements.append("UPDATE %s SET v = v + 1.5 WHERE " + predicate)
    statements.append("UPDATE %s SET v = 0.25 WHERE id >= 0 AND id < 5")
    statements.append("DELETE FROM %s WHERE v <> v")  # the NaN rows
    return statements


def _run_dml(dbs, table, statements):
    for template in statements:
        if table != "det" and (" s = " in template or " n = " in template):
            continue  # those columns exist on det only
        text = template % table
        outcomes = _both(dbs, lambda db: db.sql(text))
        assert outcomes[0] == outcomes[1], text
        tables = [_canon_table(db.table(table)) for db in dbs]
        assert tables[0] == tables[1], "tables differ after %r" % text


@pytest.mark.parametrize("table", ["det", "mixed"])
@pytest.mark.parametrize("seed", SEEDS)
def test_update_delete(seed, table, chunk):
    dbs = _pair(seed)
    _run_dml(dbs, table, _dml_statements(seed))
    assert len(dbs[0].table(table).rows) > 0  # something was left to compare


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_update_delete_in_transaction(seed, chunk):
    """``Transaction.stage_update`` / ``stage_delete`` find rows the same
    way; staged, rolled back and committed, both databases agree."""
    dbs = _pair(seed)
    sessions = [db.connect() for db in dbs]
    statements = _dml_statements(seed)
    for session in sessions:
        session.begin()
    _run_dml(sessions, "det", statements[:4])
    for session in sessions:
        session.rollback()
    assert _canon_table(dbs[0].table("det")) == _canon_table(dbs[1].table("det"))
    for session in sessions:
        session.begin()
    _run_dml(sessions, "mixed", statements)
    for session in sessions:
        session.commit()
    assert _canon_table(dbs[0].table("mixed")) == _canon_table(dbs[1].table("mixed"))


@pytest.mark.parametrize("verb", ["DELETE FROM symcell", "UPDATE symcell SET v = 1.0"])
def test_symbolic_cell_in_predicate_column(verb, chunk):
    """An undecided predicate is the same PlanError, naming the same first
    offending row — also when the symbolic cell sits only in a row the
    store does not columnise (a symbolic-condition row)."""
    db_row, db_col = pair = _pair(SEEDS[0])
    for text in (
        verb + " WHERE u > 0.0",
        verb + " WHERE id = 3 OR u > 0.0",
        verb + " WHERE v > 0.0 AND u > 0.0",
    ):
        expected, got = _both(pair, lambda db: db.sql(text))
        assert expected[:2] == ("error", "PlanError"), expected
        assert "predicate is not deterministic for row" in expected[2]
        assert got == expected, text
        assert _canon_table(db_row.table("symcell")) == _canon_table(
            db_col.table("symcell")
        )

    from repro.symbolic import var
    from repro.symbolic.atoms import Atom
    from repro.symbolic.conditions import conjunction_of

    messages = []
    for columnar, db in zip((False, True), pair):
        db.sql("CREATE TABLE late (k int, w float)")
        db.insert_many("late", [(i, float(i)) for i in range(8)])
        x = db.create_variable("normal", (0.0, 1.0))
        db.insert("late", (8, var(x) + 1.0), conjunction_of(Atom(var(x), ">", 0.0)))
        db.insert_many("late", [(9, 9.0), (10, 10.0)])
        with row_path(not columnar), pytest.raises(PlanError) as info:
            db.sql(verb.replace("symcell", "late").replace("v =", "w =") + " WHERE w > 8.5")
        messages.append(str(info.value))
        assert len(db.table("late").rows) == 11
    assert messages[0] == messages[1]


def test_durable_pair_wal_bytes(tmp_path, chunk):
    """The journal records row *indices* and resolved values: found
    through a mask or through a walk, the WAL segment is the same bytes,
    and reopening replays to the same tables."""
    seed = SEEDS[0]
    dbs = _pair(seed, tmp_path)
    statements = _dml_statements(seed)
    _run_dml(dbs, "det", statements)
    _run_dml(dbs, "mixed", statements)
    for columnar, db in zip((False, True), dbs):  # a frame written by commit
        with row_path(not columnar), db.connect() as session, session.transaction():
            session.sql("UPDATE det SET v = -1.0 WHERE grp = 2 OR id = 11")
            session.sql("DELETE FROM mixed WHERE grp = 2")
    segments = []
    for columnar, db in zip((False, True), dbs):
        with open(str(tmp_path / ("col%d" % columnar) / "wal.log"), "rb") as handle:
            segments.append(handle.read())
        db.close()
    assert len(segments[0]) > 0
    assert segments[0] == segments[1]
    reopened = []
    for columnar in (False, True):
        with row_path(not columnar):
            reopened.append(PIPDatabase.open(str(tmp_path / ("col%d" % columnar))))
    try:
        for name in ("det", "mixed"):
            assert _canon_table(reopened[0].table(name)) == _canon_table(
                reopened[1].table(name)
            )
    finally:
        for db in reopened:
            db.close()
