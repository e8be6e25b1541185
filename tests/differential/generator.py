"""Deterministic query/data generator for the differential harness.

``make_spec(seed)`` derives a complete workload — randomized schemas,
table contents (pure-deterministic, pure-symbolic and mixed c-tables)
and a query list — from one integer seed.  ``apply_spec`` loads it into
a database.  Both are pure functions of the seed, so two databases built
from the same spec differ **only** in the executor path under test (one
built and queried inside :func:`row_path`, one outside), and every bit of
divergence between them is the columnar executor's fault.

``canon_result`` / ``canon_value`` canonicalize results for comparison
at bit granularity: floats compare by their IEEE-754 byte pattern (so
``-0.0 != 0.0`` and NaN payloads must match), ints stay ints (so a path
that silently floatified a cell fails loudly), and row conditions
compare by ``repr`` (variable identifiers included — both paths must
mint the same variables in the same order).
"""

import contextlib
import random
import struct

from repro import PIPDatabase
from repro.columnar import ops as cops
from repro.sampling.options import SamplingOptions

_STRINGS = ["ash", "birch", "cedar", "fir", "oak"]


def make_spec(seed, deep=False):
    """The full workload for one seed: table rows + SQL query list."""
    rng = random.Random(seed * 7919 + 11)
    n_det = rng.randint(300, 500) if deep else rng.randint(40, 70)
    n_src = rng.randint(8, 12)
    n_mixed_det = rng.randint(10, 18)

    def value(allow_special=True):
        roll = rng.random()
        if allow_special and roll < 0.04:
            return float("nan")
        if allow_special and roll < 0.08:
            return -0.0
        if roll < 0.5:
            return round(rng.uniform(-50.0, 50.0), 3)
        return rng.uniform(-50.0, 50.0)

    det_rows = [
        (
            i,
            rng.randint(0, 5),
            value(),
            value(),
            rng.randint(-100, 100),
            rng.choice(_STRINGS),
        )
        for i in range(n_det)
    ]
    src_rows = [
        (rng.randint(0, 3), round(rng.uniform(-10.0, 10.0), 3))
        for _ in range(n_src)
    ]
    mixed_rows = [
        (rng.randint(0, 3), round(rng.uniform(-10.0, 10.0), 3))
        for _ in range(n_mixed_det)
    ]

    def c():
        return round(rng.uniform(-40.0, 40.0), 2)

    queries = [
        "SELECT * FROM det WHERE v > %s" % c(),
        "SELECT id, v FROM det WHERE v >= %s AND w < %s" % (c(), c()),
        "SELECT id, s FROM det WHERE grp = %d" % rng.randint(0, 5),
        "SELECT id, v FROM det WHERE s = '%s'" % rng.choice(_STRINGS),
        "SELECT id FROM det WHERE s <> '%s' AND n >= %d"
        % (rng.choice(_STRINGS), rng.randint(-50, 50)),
        "SELECT id FROM det WHERE v > %s OR w <= %s" % (c(), c()),
        "SELECT id, v + w AS t FROM det WHERE v + w > %s" % c(),
        "SELECT id FROM det WHERE v * %s - w <= %s" % (c(), c()),
        "SELECT id FROM det WHERE v / 2.0 > %s" % c(),  # division: row path
        "SELECT id FROM det WHERE n > %d" % rng.randint(-80, 80),
        "SELECT id FROM det WHERE %s < v" % c(),  # constant on the left
        "SELECT expected_count(*) AS n FROM det WHERE v < %s" % c(),
        "SELECT grp, expected_sum(v) AS sv, expected_avg(w) AS aw"
        " FROM det GROUP BY grp",
        "SELECT grp, expected_max(v) AS mv, expected_min(w) AS mw"
        " FROM det GROUP BY grp",
        "SELECT s, expected_count(*) AS n FROM det GROUP BY s",
        "SELECT id, v FROM det WHERE v > %s ORDER BY id LIMIT 7" % c(),
        "SELECT grp, x, conf() AS p FROM gated",
        "SELECT expected_sum(x) AS sx FROM gated",
        "SELECT expected_count(*) AS n FROM gated WHERE x > 0.0",
        "SELECT grp, v FROM mixed WHERE v > %s" % c(),
        "SELECT expected_count(*) AS n FROM mixed WHERE v > %s" % c(),
        "SELECT grp, expected_sum(v) AS sv FROM mixed GROUP BY grp",
    ]
    # GROUP BY keys that are equal without being identical (1, 1.0 and
    # True are one dict key, first seen wins), that no sort can code
    # ('a' beside numbers) and that equal nothing (NaN: one group per
    # object) — drawn after everything above, so the older inputs stand.
    nan = float("nan")
    keyed_rows = [
        (
            rng.choice([1, 1.0, True, "a", nan, float("nan"), 2, -0.0, 0]),
            rng.randint(0, 2),
            value(),
        )
        for _ in range(rng.randint(30, 50))
    ]
    queries += [
        "SELECT k, expected_sum(v) AS sv, expected_count(*) AS n FROM keyed GROUP BY k",
        "SELECT k, expected_max(v) AS mv, expected_avg(v) AS av FROM keyed"
        " WHERE j < 2 GROUP BY k",
        "SELECT k, j, expected_sum(v) AS sv, expected_min(v) AS mv FROM keyed"
        " GROUP BY k, j",
        "SELECT grp, s, expected_count(*) AS n, expected_avg(v) AS av FROM det"
        " GROUP BY grp, s",
        "SELECT grp, v, expected_count(*) AS n FROM mixed GROUP BY grp, v",
    ]
    return {
        "det_rows": det_rows,
        "src_rows": src_rows,
        "mixed_rows": mixed_rows,
        "keyed_rows": keyed_rows,
        "queries": queries,
    }


def apply_spec(db, spec):
    """Load the spec's tables: ``det`` (pure deterministic), ``gated``
    (every row carries a symbolic condition), ``mixed`` (symbolic rows
    from ``gated``'s construction plus plain deterministic rows) and
    ``keyed`` (deterministic, grouped by keys of several types)."""
    db.sql("CREATE TABLE det (id int, grp int, v float, w float, n int, s str)")
    db.insert_many("det", spec["det_rows"])
    db.sql("CREATE TABLE src (grp int, base float)")
    db.insert_many("src", spec["src_rows"])
    db.register(
        "gated_all",
        db.sql(
            "SELECT grp, base,"
            " base + create_variable('normal', 0.0, 2.0) AS x FROM src"
        ),
    )
    db.register("gated", db.sql("SELECT grp, x FROM gated_all WHERE x > -1.0"))
    db.register(
        "mixed",
        db.sql("SELECT grp, base AS v FROM gated_all WHERE x > 0.5"),
    )
    db.insert_many("mixed", spec["mixed_rows"])
    db.sql("CREATE TABLE keyed (k any, j int, v float)")
    db.insert_many("keyed", spec["keyed_rows"])


# -- the oracle -------------------------------------------------------------------

#: The columnar entry points: σ's mask, π's column pass-through, and the
#: row search of UPDATE / DELETE.  Each returns ``None`` to decline.
ENTRY_POINTS = ("select_vectorized", "_project_vectorized", "candidate_rows")


def _decline(*args, **kwargs):
    return None


@contextlib.contextmanager
def row_path(active=True):
    """Run the body on the row path, the differential reference: every
    columnar entry point declines, as it does for a shape that cannot
    compile, so σ, π and the row search take ``algebra.select``,
    ``algebra.project`` and the per-row check.  The patch is
    process-wide: a database queried outside it must not run meanwhile.
    ``active=False`` runs the body as it is (the column path)."""
    if not active:
        yield
        return
    saved = [(name, getattr(cops, name)) for name in ENTRY_POINTS]
    for name, _ in saved:
        setattr(cops, name, _decline)
    try:
        yield
    finally:
        for name, entry in saved:
            setattr(cops, name, entry)


def on_both(pair, fn):
    """``[fn(first), fn(second)]`` for a pair of databases: the first on
    the row path, the second on the column path, one after the other."""
    out = []
    for columnar, db in zip((False, True), pair):
        with row_path(not columnar):
            out.append(fn(db))
    return out


def build_db(spec, parallel=False, path=None):
    options = SamplingOptions(
        n_samples=150, parallel_workers=4 if parallel else 0
    )
    if path is not None:
        db = PIPDatabase.open(path, seed=5, options=options)
    else:
        db = PIPDatabase(seed=5, options=options)
    apply_spec(db, spec)
    return db


# -- canonicalization --------------------------------------------------------------


def canon_value(value):
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, float):
        return ("float", struct.pack(">d", value))
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, str):
        return ("str", value)
    return ("obj", repr(value))


def _canon_interval(interval):
    if interval is None:
        return None
    return tuple(canon_value(float(bound)) for bound in interval)


def canon_result(result):
    """Everything a ResultSet exposes, bit-canonical: rows (values AND
    conditions, in order), schema, per-cell estimates with intervals, and
    the statement's bank-effort stats."""
    table = result.to_ctable()
    rows = [
        (
            tuple(canon_value(cell) for cell in row.values),
            repr(row.condition),
        )
        for row in table.rows
    ]
    estimates = [
        (
            est.column,
            est.row_index,
            est.method,
            est.n_samples,
            est.exact,
            _canon_interval(est.interval),
        )
        for est in result.estimates
    ]
    stats = result.stats
    return {
        "columns": list(result.columns),
        "rows": rows,
        "estimates": estimates,
        "stats": {
            "rows": stats.rows,
            "bank_hits": stats.bank_hits,
            "bank_misses": stats.bank_misses,
            "samples_drawn": stats.samples_drawn,
            "samples_reused": stats.samples_reused,
        },
    }


def run_workload(db, queries):
    """Canonical outcome of the query list (results or typed errors)."""
    out = []
    for text in queries:
        try:
            out.append(("ok", canon_result(db.sql(text))))
        except Exception as exc:  # must fail identically on both paths
            out.append(("error", type(exc).__name__, str(exc)))
    return out
