"""Warm restart: reopening a durable database must beat a cold open.

The durability subsystem's payoff (ISSUE 4): PIP state is tiny symbolic
data plus deterministically seeded samples, so a restarted process
reloads its sample bank from the spill tier instead of re-running
rejection sampling.  This bench runs the same monitoring-style workload
twice against one on-disk database:

* **cold** — fresh directory: build the catalog, run the query (every
  group bundle is materialised by sampling), close (flushes the bank);
* **warm** — reopen the directory: recovery replays the tiny WAL, the
  same query serves every bundle from disk.

Acceptance: results are bit-identical, the warm run's bank records zero
misses (hit-rate 1.0) and draws no sample.  The cold/warm wall-clock ratio
is printed and recorded, not asserted: it measures how slow cold sampling
is (28x through scipy's Poisson ``ppf``, 2.0-2.7x with the tabulated one,
2-core host), and perfbench tracks ``storage.reopen_s``.
``PIP_DURABILITY_SMOKE=1`` runs the same checks at 1/8 size.
"""

import os
import shutil
import time

from repro.bench.harness import record_bench
from repro.core.database import PIPDatabase
from repro.sampling.options import SamplingOptions
from repro.symbolic import conjunction_of, var

SMOKE = os.environ.get("PIP_DURABILITY_SMOKE", "") not in ("", "0")

N_PARTS = 12 if SMOKE else 96
N_SAMPLES = 200 if SMOKE else 2000


def _options():
    return SamplingOptions(n_samples=N_SAMPLES)


def _build(db):
    """Fig6-shaped: per-part demand-vs-supply comparisons whose low
    acceptance rate (~10%) makes every bundle expensive to materialise."""
    db.create_table("parts", [("partkey", "int"), ("shortfall", "any")])
    for partkey in range(N_PARTS):
        demand = db.create_variable("poisson", (2.0 + partkey % 4,))
        supply = db.create_variable("exponential", (0.06,))
        condition = conjunction_of(var(demand) > var(supply))
        db.insert(
            "parts", (partkey, var(demand) - var(supply)), condition
        )


def _query(db):
    return db.sql(
        "SELECT partkey, expected_sum(shortfall) FROM parts GROUP BY partkey"
    ).rows()


def test_warm_restart_speedup(tmp_path):
    root = str(tmp_path / "db")

    start = time.perf_counter()
    db = PIPDatabase.open(root, seed=41, options=_options())
    _build(db)
    cold_rows = _query(db)
    db.close()
    cold_time = time.perf_counter() - start

    start = time.perf_counter()
    db2 = PIPDatabase.open(root, options=_options())
    warm_rows = _query(db2)
    warm_time = time.perf_counter() - start
    warm_stats = db2.sample_bank.stats()
    db2.close()

    speedup = cold_time / warm_time if warm_time else float("inf")
    print(
        "\nwarm restart (%d parts x %d samples): cold %.2fs  warm %.2fs  "
        "speedup %.2fx" % (N_PARTS, N_SAMPLES, cold_time, warm_time, speedup)
    )
    print("warm bank: %s" % (warm_stats,))
    record_bench("warm_restart", {
        "cold_seconds": (cold_time, "s"),
        "warm_seconds": (warm_time, "s"),
        "speedup": (speedup, "x"),
        "warm_bank_hits": (warm_stats["hits"], "count"),
    }, seed=41)

    # The hard contract: a restart changes nothing but the clock.
    assert warm_rows == cold_rows
    # Hit-rate 1.0: every group bundle came from the spilled bank.
    assert warm_stats["misses"] == 0
    assert warm_stats["hits"] == N_PARTS
    assert warm_stats["samples_drawn"] == 0

    shutil.rmtree(root, ignore_errors=True)
