"""Four routes, one state.

A mutation reaches the catalog by one of four routes — (i) an autocommit
statement, (ii) a statement staged in a transaction and swapped in at
commit, (iii) replay of (i)'s WAL records, (iv) replay of (ii)'s
``txn_begin`` … ``txn_commit`` frame — and all four run the one
``repro.storage.records.apply``.  A seeded random script over the whole
mutation vocabulary (DDL, conditional and FALSE-condition inserts, an
``insert_many`` that hits a schema error mid-batch, keyed and expression
``UPDATE``, ``DELETE`` with DNF predicates, zero-row writes, ``register``
with replacement and aliases, ``repair_key``, ``materialize``,
``create_variable``, a registered distribution) therefore has to leave
the same rows, row conditions, alias identities, variable-id watermark
and sampled answers behind on every route; and a rolled-back script has
to equal one that never began.

``PIP_DIFF_DEEP=1`` widens the sweep: more seeds, longer scripts.
"""

import os
import random

import pytest

from repro import PIPDatabase
from repro.distributions import Distribution
from repro.sampling.options import SamplingOptions
from repro.symbolic.conditions import FALSE, TRUE, conjunction_of
from repro.util.errors import PIPError
from repro.util.intervals import Interval

from tests.differential.generator import canon_value

DEEP = os.environ.get("PIP_DIFF_DEEP", "").strip() not in ("", "0")
SEEDS = [3, 14, 159] + ([26, 535, 8979, 32384] if DEEP else [])
N_STEPS = 150 if DEEP else 60

DET = [("k", "int"), ("g", "int"), ("v", "float")]
SYM = [("k", "int"), ("e", "any")]
CHOICE = [("door", "str"), ("alt", "int"), ("p", "float")]


class WriteRouteTriangular(Distribution):
    """A custom class (module-level, so pickle can re-import it)."""

    name = "pip_write_route_triangular"

    def validate_params(self, params):
        lo, mode, hi = (float(p) for p in params)
        return (lo, mode, hi)

    def generate_batch(self, params, rng, size):
        return rng.triangular(*params, size)

    def support(self, params):
        return Interval(params[0], params[2])


# -- the script: plain data, so every route runs exactly the same steps ----------


def make_script(seed, rewindable=False):
    """``(kind, *args)`` steps in two parts — a base every route runs in
    autocommit, and the part under test — plus the alias pairs the whole
    script leaves.  The generator keeps a model of which names exist (and
    what shape they have) so most steps are valid; a few are wrong on
    purpose and must fail the same way on every route.
    ``rewindable`` leaves out the steps that mint variables outside
    ``create_variable`` (``repair_key``, SELECT-time ``create_variable``),
    after which a rollback provably returns every identifier.
    """
    rng = random.Random(seed * 7907 + 5)
    shapes = {}  # visible name -> "det" | "sym" | "choice"
    groups = {}  # visible name -> alias-group id (names sharing one object)
    n_slots = 0
    fresh = iter(range(10**6))
    steps = [("register_distribution",)]

    def names(shape):
        return sorted(name for name, s in shapes.items() if s == shape)

    def bind(name, shape, group=None):
        shapes[name] = shape
        groups[name] = next(fresh) if group is None else group

    def new_name(prefix):
        return "%s%d" % (prefix, next(fresh))

    def det_row():
        return (rng.randint(0, 12), rng.randint(0, 3), round(rng.uniform(-9, 9), 2))

    def add(*step):
        steps.append(step)

    # Every script starts with one table of each shape and two variables.
    for name, shape in (("d0", "det"), ("s0", "sym"), ("c0", "choice")):
        add("create_table", name, shape)
        bind(name, shape)
    add("insert_many", "d0", [det_row() for _ in range(12)])
    add(
        "insert_many",
        "c0",
        [("a", 0, 0.25), ("a", 1, 0.75), ("b", 0, 0.5), ("b", 1, 0.5)],
    )
    for _ in range(2):
        add("create_variable", n_slots, "normal", (0.0, 1.0))
        n_slots += 1

    def create():
        name = new_name("d")
        add("create_table", name, "det")
        bind(name, "det")

    def create_existing():
        add("create_table", rng.choice(sorted(shapes)), "det")  # fails

    def drop():
        droppable = [n for n in sorted(shapes) if n not in ("d0", "s0", "c0")]
        if droppable:
            name = rng.choice(droppable)
            add("drop_table", name)
            del shapes[name], groups[name]

    def insert():
        add("insert", rng.choice(names("det")), det_row())

    def insert_symbolic(false=False):
        add(
            "insert_symbolic",
            rng.choice(names("sym")),
            rng.randint(0, 5),
            (rng.randrange(n_slots), rng.randrange(n_slots)),
            round(rng.uniform(-1, 1), 2),
            false,
        )

    def insert_many(bad=False):
        rows = [det_row() for _ in range(rng.randint(2, 5))]
        if bad:  # fails mid-batch, after at least one good row
            rows.insert(rng.randint(1, len(rows)), (1, 2))  # wrong arity
        add("insert_many", rng.choice(names("det")), rows)

    def update_keyed():
        add("sql", "UPDATE %s SET v = %s WHERE k = %d"
            % (rng.choice(names("det")), round(rng.uniform(-9, 9), 2), rng.randint(0, 12)))

    def update_expression():
        add("sql", "UPDATE %s SET v = v * 2 + g, g = g + 1"
            " WHERE g = %d OR (v > %s AND k < %d)"
            % (rng.choice(names("det")), rng.randint(0, 3),
               round(rng.uniform(-5, 5), 1), rng.randint(0, 12)))

    def delete_dnf():
        add("sql", "DELETE FROM %s WHERE k = %d OR (g = %d AND v < %s)"
            % (rng.choice(names("det")), rng.randint(0, 12), rng.randint(0, 3),
               round(rng.uniform(-5, 5), 1)))

    def zero_rows():
        add("sql", rng.choice(["UPDATE %s SET v = 0 WHERE k = -1",
                               "DELETE FROM %s WHERE k = -1"]) % rng.choice(names("det")))

    def delete_symbolic():
        add("sql", "DELETE FROM %s WHERE k = %d"
            % (rng.choice(names("sym")), rng.randint(0, 5)))

    def update_api():
        add("update_api", rng.choice(names("det")), rng.randint(0, 3))

    def register_query(replace=False):
        views = [n for n in names("det") if n.startswith("v")]
        name = rng.choice(views) if replace and views else new_name("v")
        add("register_query", name, "SELECT k, g, v FROM %s WHERE g <= %d"
            % (rng.choice(names("det")), rng.randint(0, 3)))
        bind(name, "det")

    def register_alias():
        source = rng.choice(sorted(shapes))
        name = new_name("a")
        add("register_alias", name, source)
        bind(name, shapes[source], groups[source])

    def repair_key():
        name = new_name("r")
        add("repair_key", "c0", name)
        bind(name, "choice")

    def register_symbolic_query():
        name = new_name("s")
        add("register_query", name,
            "SELECT k, create_variable('normal', v, 1.0) AS e FROM %s"
            % rng.choice(names("det")))
        bind(name, "sym")

    def materialize():
        source = rng.choice(sorted(shapes))
        name = new_name("m")
        add("materialize", name, source)
        bind(name, shapes[source])

    def create_variable():
        nonlocal n_slots
        dist, params = rng.choice([
            ("normal", (1.0, 2.0)),
            ("exponential", (0.5,)),
            (WriteRouteTriangular.name, (0.0, 1.0, 3.0)),
        ])
        add("create_variable", n_slots, dist, params)
        n_slots += 1

    vocabulary = [
        create, create_existing, drop, insert, insert_symbolic,
        lambda: insert_symbolic(false=True), insert_many,
        lambda: insert_many(bad=True), update_keyed, update_expression,
        delete_dnf, zero_rows, delete_symbolic, update_api, register_query,
        lambda: register_query(replace=True), register_alias, materialize,
        create_variable,
    ]
    if not rewindable:
        vocabulary += [repair_key, register_symbolic_query]
    # Every word once, in a seeded order — the part every route runs in
    # autocommit, so the transaction finds stored tables, aliases and
    # views to copy on write — then every word again, then seeded picks.
    base = len(steps)
    for word in rng.sample(vocabulary, len(vocabulary)):
        word()
    split = base if rewindable else len(steps)
    for word in rng.sample(vocabulary, len(vocabulary)):
        word()
    while len(steps) < N_STEPS:
        rng.choice(vocabulary)()
    aliases = sorted(
        (a, b) for a in groups for b in groups if a < b and groups[a] == groups[b]
    )
    return steps[:split], steps[split:], aliases


def run_script(handle, steps, slots):
    """Run ``steps`` through ``handle`` (a database or a session: the
    mutation API is the same); returns the log of per-step outcomes.
    ``slots`` holds the variables the steps create and use."""
    log = []
    for kind, *args in steps:
        try:
            log.append(_STEP[kind](handle, slots, *args))
        except PIPError as exc:
            log.append((type(exc).__name__, str(exc)))
    return log


def _create_table(h, slots, name, shape):
    h.create_table(name, {"det": DET, "sym": SYM, "choice": CHOICE}[shape])


def _insert_symbolic(h, slots, name, k, pair, threshold, false):
    x, y = slots[pair[0]], slots[pair[1]]
    condition = FALSE if false else conjunction_of(x + y > threshold)
    h.insert(name, (k, x * y + 1.0), condition)


def _update_api(h, slots, name, g):
    return h.update(name, {"v": -1.0}, lambda row: row["g"] == g)


def _create_variable(h, slots, slot, dist, params):
    slots[slot] = h.create_variable_expr(dist, params)


_STEP = {
    "register_distribution": lambda h, s: h.register_distribution(WriteRouteTriangular).name,
    "create_table": _create_table,
    "drop_table": lambda h, s, name: h.drop_table(name),
    "insert": lambda h, s, name, row: h.insert(name, row, TRUE),
    "insert_symbolic": _insert_symbolic,
    "insert_many": lambda h, s, name, rows: len(h.insert_many(name, rows)),
    "sql": lambda h, s, text: h.sql(text),
    "update_api": _update_api,
    "register_query": lambda h, s, name, text: len(h.register(name, h.sql(text))),
    "register_alias": lambda h, s, name, source: len(h.register(name, h.table(source))),
    "repair_key": lambda h, s, source, name: len(
        h.repair_key(source, ["door"], "p", new_name=name)
    ),
    "materialize": lambda h, s, name, source: len(h.materialize(name, h.table(source))),
    "create_variable": _create_variable,
}


# -- what a route leaves behind ---------------------------------------------------------

PROBE = "SELECT k, expected_sum(e) AS total, expected_count(*) AS n FROM s0 GROUP BY k"


def state(db):
    tables = {
        name: (
            [(c.name, c.ctype) for c in table.schema.columns],
            [
                (tuple(canon_value(cell) for cell in row.values), repr(row.condition))
                for row in table.rows
            ],
        )
        for name, table in sorted(db.tables.items())
    }
    aliases = sorted(
        (a, b) for a in db.tables for b in db.tables
        if a < b and db.table(a) is db.table(b)
    )
    # Asked once: an answer does not depend on what the bank holds, so a
    # recovered bank warm from its spill tier answers as a cold one.
    probe = [tuple(canon_value(cell) for cell in row) for row in db.sql(PROBE).rows()]
    return {
        "tables": tables,
        "aliases": aliases,
        "next_vid": db.factory._next_vid,
        "distributions": sorted(db._journaled_distributions),
        "probe": probe,
    }


def _open(path):
    return PIPDatabase.open(path, seed=17, options=SamplingOptions(n_samples=120))


@pytest.mark.parametrize("seed", SEEDS)
def test_four_routes_one_state(tmp_path, seed):
    base, steps, aliases = make_script(seed)
    auto_root, txn_root = str(tmp_path / "auto"), str(tmp_path / "txn")

    db = _open(auto_root)  # (i) autocommit
    slots = {}
    run_script(db, base, slots)
    log_auto = run_script(db, steps, slots)
    live_auto = state(db)
    db.close()

    db = _open(txn_root)  # (ii) one transaction
    slots = {}
    run_script(db, base, slots)
    session = db.connect()
    session.begin()
    log_txn = run_script(session, steps, slots)
    session.commit()
    live_txn = state(db)
    db.close()

    assert log_auto == log_txn
    # The script's own alias model: the shared identities are really there.
    assert live_auto["aliases"] == aliases
    failed = [outcome[0] for outcome in log_auto if isinstance(outcome, tuple)]
    assert failed.count("SchemaError") >= 2  # the existing name, the bad batch
    assert live_txn == live_auto
    for root in (auto_root, txn_root):  # (iii) the records, (iv) the frame
        db = _open(root)
        recovered = state(db)
        db.close()
        assert recovered == live_auto, root


@pytest.mark.parametrize("seed", SEEDS)
def test_rolled_back_script_equals_never_begun(tmp_path, seed):
    prefix, rest, _aliases = make_script(seed, rewindable=True)
    outcomes = []
    for rolled_back in (False, True):
        db = _open(str(tmp_path / ("rolled" if rolled_back else "never")))
        slots = {}
        run_script(db, prefix, slots)  # autocommit base state for the script to write over
        db.sql(PROBE)  # warm the bank: a rollback must not evict it
        invalidated = db.sample_bank.stats()["invalidated"]
        if rolled_back:
            session = db.connect()
            session.begin()
            run_script(session, rest, slots)
            session.rollback()
        assert db.sample_bank.stats()["invalidated"] == invalidated
        outcomes.append(state(db))
        db.close()
        db = _open(db._durability.path)
        assert state(db) == outcomes[-1]
        db.close()
    assert outcomes[0] == outcomes[1]
