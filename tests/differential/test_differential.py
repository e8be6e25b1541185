"""Differential harness: columnar executor vs row interpreter.

Every workload runs through two databases that differ only in the path
that finds and projects rows — one built and queried inside
:func:`~tests.differential.generator.row_path`, the oracle, one outside
it; results must be **bit-identical** — rows, row order,
conditions, schemas, estimate metadata (methods, sample counts,
exactness, confidence intervals), per-statement bank stats, the bank's
global counters, and (for durable databases) the exact WAL bytes
written.  Each workload runs twice per database: the first pass is a
cold sample bank, the second a warm one, and both passes must agree.

``PIP_DIFF_DEEP=1`` widens the sweep: more seeds, larger tables.
"""

import os

import pytest

from tests.differential.generator import (
    build_db,
    canon_value,
    make_spec,
    row_path,
    run_workload,
)

SEEDS = [101, 202, 303]
DEEP = os.environ.get("PIP_DIFF_DEEP", "").strip() not in ("", "0")
if DEEP:
    SEEDS = SEEDS + [404, 505, 606, 707]


def _run_pair(seed, parallel, tmp_path=None):
    spec = make_spec(seed, deep=DEEP)
    outcomes = {}
    counters = {}
    for columnar in (False, True):
        path = None
        if tmp_path is not None:
            path = str(tmp_path / ("db-col%d" % columnar))
        with row_path(not columnar):
            db = build_db(spec, parallel=parallel, path=path)
            try:
                cold = run_workload(db, spec["queries"])
                warm = run_workload(db, spec["queries"])
                outcomes[columnar] = (cold, warm)
                counters[columnar] = dict(db.sample_bank.stats_counters.as_dict())
                if path is not None:
                    counters[columnar]["wal_bytes"] = (
                        db.telemetry.wal_bytes_total.value
                    )
            finally:
                if path is not None:
                    db.close()
    return spec, outcomes, counters


def _assert_identical(spec, outcomes, counters):
    cold_row, warm_row = outcomes[False]
    cold_col, warm_col = outcomes[True]
    for label, row_path, col_path in (
        ("cold", cold_row, cold_col),
        ("warm", warm_row, warm_col),
    ):
        for query, row_out, col_out in zip(spec["queries"], row_path, col_path):
            assert row_out == col_out, "%s-bank divergence on %r" % (label, query)
    assert counters[False] == counters[True], "bank counter divergence"


@pytest.mark.parametrize("seed", SEEDS)
def test_bit_identical_serial(seed):
    spec, outcomes, counters = _run_pair(seed, parallel=False)
    _assert_identical(spec, outcomes, counters)


@pytest.mark.parametrize("seed", SEEDS[:2] if not DEEP else SEEDS)
def test_bit_identical_parallel_workers(seed):
    spec, outcomes, counters = _run_pair(seed, parallel=True)
    _assert_identical(spec, outcomes, counters)


def test_bit_identical_durable_wal(tmp_path):
    """Durable pair: the columnar path must leave storage untouched —
    identical WAL byte counts, identical recovered contents."""
    spec, outcomes, counters = _run_pair(SEEDS[0], parallel=False, tmp_path=tmp_path)
    _assert_identical(spec, outcomes, counters)
    assert counters[False]["wal_bytes"] == counters[True]["wal_bytes"]


def test_row_order_contract():
    """Satellite check for the ResultSet.rows() ordering contract: the
    columnar mask filter must emit surviving rows in input order, even on
    mixed tables where the deterministic partition is vectorized and the
    symbolic remainder is not."""
    spec = make_spec(SEEDS[0], deep=False)
    with row_path():
        db_row = build_db(spec)
    db_col = build_db(spec)
    for query in spec["queries"]:
        try:
            with row_path():
                rows_row = db_row.sql(query).rows()
        except Exception:
            continue
        rows_col = db_col.sql(query).rows()
        canon_row = [tuple(canon_value(c) for c in r) for r in rows_row]
        canon_col = [tuple(canon_value(c) for c in r) for r in rows_col]
        assert canon_row == canon_col, "order/content drift on %r" % (query,)


#: Figure 5's ``expected_count`` under a quantity threshold at three
#: selectivities, a Figure 6-flavoured revenue band, and a point probe on
#: a key column — the statements the columnar scan bench used to time.
TPCH_SCAN_QUERIES = [
    "SELECT expected_count(*) AS n FROM lineitem WHERE quantity >= 2.0",
    "SELECT expected_count(*) AS n FROM lineitem WHERE quantity >= 45.0",
    "SELECT expected_count(*) AS n FROM lineitem WHERE quantity = 50.0",
    "SELECT expected_sum(extendedprice) AS rev FROM lineitem"
    " WHERE quantity >= 25.0 AND quantity <= 40.0",
    "SELECT quantity, extendedprice FROM lineitem WHERE partkey = 7",
]


def test_tpch_scan_statements_identical():
    """TPC-H lineitems at scale 0.5 (twice the paper's figures): the
    deterministic scans and aggregates over them answer the same through
    both executors.  How fast is perfbench ``adhoc_local``'s to say."""
    from repro import PIPDatabase
    from repro.workloads import generate_tpch
    from repro.workloads.tpch import load_pip

    data = generate_tpch(scale=0.5, seed=7)
    outcomes = {}
    for columnar in (False, True):
        with row_path(not columnar):
            db = PIPDatabase(seed=7)
            load_pip(db, data)
            outcomes[columnar] = (
                run_workload(db, TPCH_SCAN_QUERIES),  # cold column store
                run_workload(db, TPCH_SCAN_QUERIES),  # warm
            )
    assert all(kind == "ok" for kind, *_ in outcomes[True][0])
    assert outcomes[False] == outcomes[True]
    assert outcomes[True][0] == outcomes[True][1]


def test_row_path_oracle_runs_the_row_path(monkeypatch):
    """Everything above compares against ``row_path()``; it must really run
    the row path, or the suite would compare the column path with itself.
    On ``docs/columnar.md``'s 20 000-row table: σ binds every row and no
    store is built, π takes ``algebra.project``, and UPDATE decides every
    row — and on leaving the block all three are columnar again."""
    from repro import PIPDatabase
    from repro.columnar import columns as C
    from repro.ctables import algebra

    def counted(owner, name, wrap=lambda fn: fn):
        original, calls = getattr(owner, name), []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrap(counting))
        return calls

    db = PIPDatabase(seed=1)
    db.sql("CREATE TABLE t (id int, v float)")
    db.insert_many("t", [(i, float(i)) for i in range(20000)])
    built = counted(C.ColumnStore, "__init__")
    projected = counted(algebra, "project")
    decided = counted(PIPDatabase, "_predicate_matches", wrap=staticmethod)
    explain = "EXPLAIN ANALYZE SELECT id FROM t WHERE v = 19999.0"
    update = "UPDATE t SET v = -1.0 WHERE id = 7"

    with row_path():
        plan = db.sql(explain)
        assert "chunks scanned=0 pruned_zone=0 rows bound=20000" in plan
        assert built == [] and db.table("t").colstore is None
        assert len(projected) == 1
        assert db.sql(update) == 1 and len(decided) == 20000

    plan = db.sql(explain)
    assert "chunks scanned=1 pruned_zone=4" in plan
    assert len(built) == 1 and len(projected) == 1
    assert db.sql(update) == 1 and len(decided) == 20001
