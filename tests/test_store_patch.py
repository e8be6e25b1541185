"""A patched column store equals a fresh build.

An append (INSERT, ``insert_many``) and an in-place UPDATE hand the row
they wrote to the table's live :class:`~repro.columnar.columns.ColumnStore`,
which writes the cells into every cache it has built instead of being
dropped and rebuilt by the next reader.  Seeded scripts of writes run
over a mixed table (deterministic rows plus a symbolic remainder, 3-row
chunks), one database on the row path and one on the column path:

* after every step each cache the live store answers (numeric arrays as
  ``float.hex``, zone maps, ``positions()``, ``det_objects``, ``total``,
  ``objects``) equals what ``ColumnStore(table)`` answers;
* SELECT answers, UPDATE counts and the table itself equal the row
  path's, errors included;
* an alias taken before a write still reads the old cells.

The count checks pin the point of it: a keyed UPDATE right after an
INSERT builds no store and converts no column, and appends grow the
numeric arrays geometrically (no copy of the table per insert).  The
rebuilds that remain convert a column in one NumPy pass, checked against
the per-cell loop it replaced.
"""

import random

import pytest

from repro import PIPDatabase
from repro.columnar import columns as C
from repro.ctables import algebra
from repro.ctables.table import table_from_rows
from repro.sampling.options import SamplingOptions
from repro.symbolic.atoms import Atom
from repro.symbolic.conditions import TRUE, conjunction_of
from repro.symbolic.expression import col

from tests.differential.generator import canon_value, on_both, run_workload

CHUNK = 3

QUERIES = [
    "SELECT k, v FROM t WHERE v > 0.5",
    "SELECT k, w FROM t WHERE w = 3",
    "SELECT k FROM t WHERE w >= 2 AND k < 30",
    "SELECT k, s FROM t WHERE s = 'b'",
    "SELECT k FROM t WHERE k >= 5 AND k < 12",
    "SELECT k FROM t WHERE v * 2.0 - 1.0 < w",
    "SELECT k FROM t WHERE s < 'c' AND v <> 1.5",
    "SELECT k, v FROM t WHERE v = 9007199254740993",
]


def _cell(rng, usual):
    """A cell for the ``any`` column whose cells are mostly of type
    ``usual``; else the other number type (an int in an all-float column
    turns its arithmetic verdict), or rarely an odd cell: an int past
    2**53 (2**60 round-trips a float, 2**53 + 1 does not), NaN, -0.0, a
    string, a bool, None, or ``"expr"`` — an expression over a fresh
    variable, minted when the step runs."""
    numbers = [round(rng.uniform(-4.0, 4.0), 2), rng.randint(-3, 5)]
    roll = rng.random()
    if roll < 0.95:
        return numbers[usual is int]
    if roll < 0.97:
        return numbers[usual is float]
    return rng.choice(
        [float("nan"), -0.0, 2**53 + 1, 2**60, "b", True, None, "expr"]
    )


def _resolve(db, cell):
    if cell == "expr":
        return db.create_variable_expr("normal", (0.0, 1.0)) * 2.0
    return cell


def _values(db, spec):
    k, v, w, s = spec
    return (k, _resolve(db, v), _resolve(db, w), s)


def _condition(db, symbolic):
    if not symbolic:
        return None
    y = db.create_variable_expr("normal", (0.0, 1.0))
    return conjunction_of(Atom(y, ">", 0.25))


def _insert(target, spec, symbolic):
    db = getattr(target, "db", target)  # a session writes through its database
    values, condition = _values(db, spec), _condition(db, symbolic)
    target.insert("t", values, condition or TRUE)


def make_steps(seed, n_steps=60):
    """A seeded list of ``(kind, payload)`` writes over keys ``0..``."""
    rng = random.Random(seed)
    next_key = [20]

    def spec():
        k = next_key[0]
        next_key[0] += 1
        return (k, _cell(rng, float), _cell(rng, int), rng.choice(["a", "b", "c"]))

    steps = []
    for _ in range(n_steps):
        kind = rng.choice([
            "insert", "insert", "insert_sym", "insert_many", "update",
            "update", "repair", "repair", "update_expr", "delete", "commit",
            "rollback",
        ])
        if kind in ("insert", "insert_sym"):
            steps.append((kind, spec()))
        elif kind == "insert_many":
            steps.append((kind, [(spec(), rng.random() < 0.3) for _ in range(3)]))
        elif kind in ("update", "repair", "update_expr", "delete"):
            name, usual = rng.choice([("v", float), ("w", int)])
            steps.append((kind, (rng.randrange(next_key[0]), name, _cell(rng, usual))))
        else:
            steps.append((kind, (spec(), rng.randrange(next_key[0]), _cell(rng, int))))
    return steps


def apply_step(db, step):
    """One write; returns what it reports (a count or an error)."""
    kind, payload = step
    try:
        if kind in ("insert", "insert_sym"):
            _insert(db, payload, kind == "insert_sym")
        elif kind == "insert_many":
            db.insert_many("t", [
                (_values(db, spec), _condition(db, symbolic) or TRUE)
                for spec, symbolic in payload
            ])
        elif kind in ("update", "repair"):
            key, name, cell = payload
            if kind == "repair":  # overwrite the first cell float64 refuses
                usual, index = (float, 1) if name == "v" else (int, 2)
                odd = [row.values[0] for row in db.table("t").rows
                       if type(row.values[index]) is not usual
                       or C.exact_float(row.values[index]) is None]
                key, cell = (odd or [key])[0], usual(2)
            return db.sql("UPDATE t SET %s = :x WHERE k = :k" % name,
                          {"x": 1.25 if cell == "expr" else cell, "k": key})
        elif kind == "update_expr":
            return db.update("t", {payload[1]: _resolve(db, "expr")},
                             where=[[Atom(col("k"), "=", payload[0])]])
        elif kind == "delete":
            return db.sql("DELETE FROM t WHERE k = :k", {"k": payload[0]})
        else:
            spec, key, cell = payload
            session = db.connect()
            session.begin()
            _insert(session, spec, False)
            session.execute("UPDATE t SET w = :x WHERE k = :k",
                            {"x": 7 if cell == "expr" else cell, "k": key})
            if kind == "commit":
                session.commit()
            else:
                session.rollback()
            session.close()
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))
    return None


def _canon_zone(zone):
    return tuple(None if bound is None else canon_value(bound) for bound in zone)


def store_answers(store):
    """Everything ``store`` answers, canonical (it builds what it lacks)."""
    out = {
        "flags": list(store.det_flags),
        "det_rows": [id(row) for row in store.det_rows],
        "all_det": store.all_det,
        "positions": [half.tolist() for half in store.positions()],
        "chunks": store.chunks(),
    }
    for i, name in enumerate(store.schema_names):
        numeric, det = store.numeric(i), store.det_objects(i)
        out[name] = (
            [canon_value(cell) for cell in store.objects(i)],
            None if det is None else [canon_value(cell) for cell in det],
            numeric and ([x.hex() for x in numeric[0].tolist()], numeric[1]),
            numeric and [_canon_zone(zone) for zone in store.zones(i)],
            store.total(name),
        )
    return out


def _warm(store, rng):
    """Build a random subset of the caches, so patches meet partial ones."""
    for i, name in enumerate(store.schema_names):
        for ask in rng.sample(["objects", "det_objects", "numeric", "zones", "total"], 3):
            if ask == "zones":
                if store.numeric(i) is not None:
                    store.zones(i)
            elif ask == "total":
                store.total(name)
            else:
                getattr(store, ask)(i)
    if rng.random() < 0.5:
        store.positions()


def table_state(db):
    table = db.table("t")
    return [
        (tuple(canon_value(cell) for cell in row.values), repr(row.condition))
        for row in table.rows
    ]


def _open(path):
    return PIPDatabase.open(path, seed=23, options=SamplingOptions(n_samples=50))


def _setup(db):
    db.sql("CREATE TABLE t (k int, v any, w any, s any)")
    rng = random.Random(5)
    for k in range(20):
        spec = (k, _cell(rng, float), _cell(rng, int), rng.choice(["a", "b", "c"]))
        _insert(db, spec, False)  # the script adds the symbolic remainder


@pytest.mark.parametrize("seed", [3, 29, 71])
def test_patched_store_equals_fresh_build(tmp_path, seed):
    """A seeded write script on a row-path and a column-path database,
    both reopened halfway (the WAL replays): after every step the live
    store answers what a fresh build does, an alias taken before the
    write reads its old cells, and table and answers are the row path's."""
    paths = (str(tmp_path / "row"), str(tmp_path / "col"))
    pair = [_open(path) for path in paths]
    on_both(pair, _setup)
    rng = random.Random(seed * 31)
    steps = make_steps(seed)
    patched = 0
    for number, step in enumerate(steps):
        if number == len(steps) // 2:  # reopen both: the WAL replays
            for db in pair:
                db.close()
            pair = [_open(path) for path in paths]
        col_db = pair[1]
        table = col_db.table("t")
        live = C.store_for(table, chunk_size=CHUNK)  # every cache built, or
        if rng.random() < 0.5:  # a fresh store with some of them
            live = table.colstore = C.ColumnStore(table, chunk_size=CHUNK)
            _warm(live, rng)
        alias = algebra.prefix(table, "a") if rng.random() < 0.3 else None
        before = alias and store_answers(alias.colstore)

        outcomes = on_both(pair, lambda db: apply_step(db, step))
        assert outcomes[0] == outcomes[1], step

        table = col_db.table("t")
        if table.colstore is live:
            patched += 1
        store = C.store_for(table, chunk_size=CHUNK)
        assert store_answers(store) == store_answers(
            C.ColumnStore(table, chunk_size=CHUNK)
        ), step
        if alias is not None:
            assert alias.colstore.valid_for(alias)
            assert store_answers(alias.colstore) == before
        states = on_both(pair, table_state)
        assert states[0] == states[1], step
        answers = on_both(pair, lambda db: run_workload(db, QUERIES))
        assert answers[0] == answers[1], step
    for db in pair:
        db.close()
    assert patched >= len(steps) // 3  # most writes patched the live store


def _count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` with a counting pass-through."""
    original, calls = getattr(owner, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_keyed_update_after_insert_builds_and_converts_nothing(monkeypatch):
    """The ``write_mix`` pattern: two INSERTs, then a keyed UPDATE.  The
    UPDATE finds its row through the store the INSERTs patched — no
    ``ColumnStore`` built, no column converted to float64."""
    db = PIPDatabase(seed=1)
    db.sql("CREATE TABLE orders (k int, region int, amount float)")
    db.insert_many("orders", [(k, k % 16, k * 0.5) for k in range(500)])
    update = "UPDATE orders SET amount = :a WHERE k = :k"
    assert db.sql(update, {"a": 1.0, "k": 3}) == 1  # builds the store
    store = db.table("orders").colstore
    built = _count_calls(monkeypatch, C.ColumnStore, "__init__")
    converted = _count_calls(monkeypatch, C, "_floats")
    insert = "INSERT INTO orders VALUES (:k, :r, :a)"
    for k in range(500, 540, 2):
        db.sql(insert, {"k": k, "r": k % 16, "a": 2.5})
        db.sql(insert, {"k": k + 1, "r": k % 16, "a": 3.5})
        assert db.sql(update, {"a": float(k), "k": k - 250}) == 1
    assert built == [] and converted == []
    assert db.table("orders").colstore is store
    assert db.sql("SELECT k, amount FROM orders WHERE k >= 537").rows() == [
        (537, 3.5), (538, 2.5), (539, 3.5),
    ]
    assert db.sql("SELECT k, amount FROM orders WHERE k = 288").rows() == [(288, 538.0)]
    assert built == [] and converted == []


def test_appends_grow_arrays_geometrically():
    """An append writes past the end of the numeric array's buffer; only
    a full buffer is copied, into one twice the size — a few copies for
    two thousand inserts, not one per insert."""
    db = PIPDatabase(seed=1)
    db.sql("CREATE TABLE t (k int, v float)")
    db.insert("t", (0, 0.0))
    db.sql("SELECT k FROM t WHERE k = 0 AND v < 1.0")  # k's and v's arrays
    store = db.table("t").colstore
    buffer, copies = store.numeric(0)[0].base, 0
    for k in range(1, 2000):
        db.insert("t", (k, k * 0.5))
        copies += store.numeric(0)[0].base is not buffer
        buffer = store.numeric(0)[0].base
    assert db.table("t").colstore is store and copies <= 8
    assert store.numeric(0)[0].tolist() == [float(k) for k in range(2000)]
    assert store.zones(1) == [(0.0, 999.5, False)]
    assert db.sql("SELECT k FROM t WHERE v = 999.5").rows() == [(1999,)]


#: Cells written one after another over a float column: each may turn a
#: verdict (all-float, float64-exact, plain, total) one way or the other.
TURNS = [7, float("nan"), -0.0, 1.25, "expr", 2**53 + 1, 2.0, 2**60, "x",
         0.5, True, None, 3, float("inf")]


@pytest.mark.parametrize("write", ["update", "append"])
def test_cells_that_turn_a_verdict(write):
    """Overwritten, a cell may turn any verdict either way; appended, it
    can only refuse.  After each write the patched store answers what a
    fresh build does (a symbolic-remainder row sits before the target)."""
    db = PIPDatabase(seed=4)
    db.sql("CREATE TABLE t (k int, v any)")
    for k in range(7):
        db.insert("t", (k, k + 0.5), _condition(db, k == 2) or TRUE)
    table = db.table("t")
    store = C.store_for(table, chunk_size=CHUNK)
    for n, cell in enumerate(TURNS):
        store_answers(store)  # every cache built before the write
        value = _resolve(db, cell)
        if write == "update":
            db.update("t", {"v": value}, where=[[Atom(col("k"), "=", 4)]])
        else:
            db.insert("t", (7 + n, value))
        assert table.colstore is store
        fresh = C.ColumnStore(table, chunk_size=CHUNK)
        assert store_answers(store) == store_answers(fresh), cell


def _numeric_loop(values):
    """The per-cell conversion ``ColumnStore.numeric`` made before its
    one NumPy pass, kept as the reference: ``(hex cells, all_float)`` or
    ``None`` (a bool, a non-number, or an int float64 cannot hold)."""
    floats, all_float = [], True
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        if isinstance(value, int):
            all_float = False
            try:
                if float(value) != value:
                    return None
            except OverflowError:
                return None
        floats.append(float(value).hex())
    return floats, all_float


#: Cells at and around every edge of the verdict: the float64 limit of
#: exact ints (both signs), ints past the largest float, bools, NaN, inf.
EDGE_CELLS = [
    1, -3, 2.5, -0.0, float("nan"), float("inf"), 1e308, 2**53, -(2**53),
    2**53 + 1, -(2**53 + 1), 2**60, -(2**60) - 1, 2**1023, 2**1024, 10**400,
    True, False, "s", None,
]


def test_one_pass_conversion_matches_the_per_cell_loop():
    """``numeric()`` decides exactness in one NumPy pass; on seeded
    columns of edge cells it gives the per-cell loop's verdicts and bits."""
    rng = random.Random(17)
    columns = [[rng.choice(EDGE_CELLS) for _ in range(rng.randint(0, 6))]
               for _ in range(400)]
    columns += [[cell] for cell in EDGE_CELLS]
    for cells in columns:
        table = table_from_rows(["v"], [(cell,) for cell in cells])
        numeric = C.ColumnStore(table).numeric(0)
        got = numeric and ([x.hex() for x in numeric[0].tolist()], numeric[1])
        assert got == _numeric_loop(cells), cells
