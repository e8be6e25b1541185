"""Columnar scan speedup on Figure-5/6-shaped queries (ISSUE 8, satellite 6).

The paper's Figures 5/6 run their selectivity/query sweeps at TPC-H
scale 0.25; this bench loads **100x that data size** (scale 25, ~10^5
lineitems) and times the deterministic-scan portion — selection +
``expected_count`` over a deterministic table — through the row
interpreter vs the vectorized columnar executor on the same database.
The columnar path must return bit-identical results; its speedup (11–33x
on the 2-core host, by what else the machine is doing) is printed and
recorded, not asserted — a wall-clock ratio belongs to ``perfbench``
(``adhoc_local``, ``columnar.*_ms``), not to a test that has to pass on
a busy shared machine.

``PIP_COLUMNAR_SMOKE=1`` (CI) only shrinks the data to scale 0.5.

The report is written to ``bench_results/BENCH_columnar_scan.txt``
(git-ignored, replaced by each run).
"""

import os
import time

from repro import PIPDatabase
from repro.bench.harness import record_bench
from repro.workloads import generate_tpch
from repro.workloads.tpch import load_pip

SMOKE = os.environ.get("PIP_COLUMNAR_SMOKE", "").strip() not in ("", "0")
SCALE = 0.5 if SMOKE else 25.0  # paper figures use 0.25; 25 = 100x
RESULT_FILE = os.path.join(
    os.path.dirname(__file__), "..", "bench_results", "BENCH_columnar_scan.txt"
)

QUERIES = [
    # Figure 5's shape: expected_count under a quantity threshold, at
    # three selectivity bands (quantity is uniform over 1..50).
    ("qty >= 2 (~98%)", "SELECT expected_count(*) AS n FROM lineitem WHERE quantity >= 2.0"),
    ("qty >= 45 (~12%)", "SELECT expected_count(*) AS n FROM lineitem WHERE quantity >= 45.0"),
    ("qty = 50 (~2%)", "SELECT expected_count(*) AS n FROM lineitem WHERE quantity = 50.0"),
    # Figure 6's flavour: a revenue-style aggregate over a band filter.
    (
        "revenue band",
        "SELECT expected_sum(extendedprice) AS rev FROM lineitem"
        " WHERE quantity >= 25.0 AND quantity <= 40.0",
    ),
    # Point probe on a key column (Bloom/zone pruning territory).
    ("partkey probe", "SELECT quantity, extendedprice FROM lineitem WHERE partkey = 7"),
]


def _time_queries(db):
    results = []
    for _label, text in QUERIES:
        start = time.perf_counter()
        result = db.sql(text)
        results.append((time.perf_counter() - start, result.rows()))
    return results


def test_columnar_scan_speedup():
    data = generate_tpch(scale=SCALE, seed=7)
    db = PIPDatabase(seed=7)
    load_pip(db, data)
    n_items = len(data.lineitem)

    db.columnar = True
    _time_queries(db)  # warm-up: builds the column store + pruning metadata
    columnar = _time_queries(db)
    db.columnar = False
    interpreted = _time_queries(db)
    db.columnar = True

    lines = [
        "columnar scan bench — TPC-H scale %s (%d lineitems)%s"
        % (SCALE, n_items, " [smoke]" if SMOKE else "")
    ]
    total_row = total_col = 0.0
    for (label, _), (t_col, rows_col), (t_row, rows_row) in zip(
        QUERIES, columnar, interpreted
    ):
        assert rows_col == rows_row, "result divergence on %s" % label
        total_row += t_row
        total_col += t_col
        lines.append(
            "  %-18s row: %8.2f ms   columnar: %8.2f ms   speedup: %6.1fx"
            % (label, t_row * 1e3, t_col * 1e3, t_row / max(t_col, 1e-9))
        )
    speedup = total_row / max(total_col, 1e-9)
    lines.append("  %-18s row: %8.2f ms   columnar: %8.2f ms   speedup: %6.1fx"
                 % ("TOTAL", total_row * 1e3, total_col * 1e3, speedup))
    report = "\n".join(lines)
    print("\n" + report)
    os.makedirs(os.path.dirname(RESULT_FILE), exist_ok=True)
    with open(RESULT_FILE, "w") as fh:
        fh.write(report + "\n")
    record_bench("columnar_scan", {
        "speedup": (speedup, "x"),
        "row_total": (total_row, "s"),
        "columnar_total": (total_col, "s"),
        "lineitems": (n_items, "count"),
    }, seed=7)
