"""Sample-bank reuse on a repeated-query (monitoring) workload.

Fig6/fig7-style setup: one expectation query over a table whose rows share
a small set of independent variable groups, evaluated repeatedly — the
shape of ``examples/iceberg_monitoring.py`` where the same threat query
runs every tick.  Without the bank every run re-samples every row's group
from scratch; with it the groups are materialised once (first run) and
every later row and run is served from cache.

Acceptance: the bank samples each group once and serves every repeat,
warm runs replay identical estimates, and those are statistically
identical to the uncached path.  The cold/warm wall-clock ratio (tens of
times on the 2-core host) is printed and recorded, not asserted: perfbench's
``warm_monitoring`` and ``cold_sampling`` are where speed is judged.
"""

import time

import pytest

from repro.bench.harness import record_bench
from repro.core.database import PIPDatabase
from repro.sampling.options import SamplingOptions
from repro.symbolic import conjunction_of, var

N_ROWS = 150
N_GROUPS = 10
N_SAMPLES = 3000
N_REPEATS = 5


def _build(seed, use_bank):
    db = PIPDatabase(
        seed=seed,
        options=SamplingOptions(n_samples=N_SAMPLES, use_sample_bank=use_bank),
    )
    db.create_table("readings", [("site", "str"), ("mw", "any")])
    gates = [db.create_variable("normal", (0.0, 1.0)) for _ in range(2 * N_GROUPS)]
    for i in range(N_ROWS):
        # Two-variable groups defeat both the exact-linear shortcut and
        # CDF-inversion, so the uncached path pays full rejection sampling
        # (acceptance ~3.9%) for every row, every run.
        a = gates[2 * (i % N_GROUPS)]
        b = gates[2 * (i % N_GROUPS) + 1]
        db.insert(
            "readings",
            ("s%03d" % i, var(a) * var(b) * 10.0),
            conjunction_of(var(a) + var(b) > 2.5),
        )
    return db


def _run_query(db):
    out = db.sql("SELECT expected_sum(mw) FROM readings")
    return out.scalar()


def test_samplebank_repeated_query_speedup():
    banked = _build(seed=31, use_bank=True)
    uncached = _build(seed=31, use_bank=False)

    # Cold runs: every evaluation pays full sampling cost.
    cold_start = time.perf_counter()
    cold_estimates = [_run_query(uncached) for _ in range(N_REPEATS)]
    cold_total = time.perf_counter() - cold_start

    first_start = time.perf_counter()
    first_estimate = _run_query(banked)  # materialises the bundles
    first_total = time.perf_counter() - first_start

    warm_start = time.perf_counter()
    warm_estimates = [_run_query(banked) for _ in range(N_REPEATS)]
    warm_total = time.perf_counter() - warm_start

    stats = banked.sample_bank.stats()
    print(
        "\nsample-bank reuse: cold %.0fms (%d runs)  first %.0fms  "
        "warm %.0fms (%d runs)  speedup %.1fx" % (
            cold_total * 1e3,
            N_REPEATS,
            first_total * 1e3,
            warm_total * 1e3,
            N_REPEATS,
            cold_total / warm_total,
        )
    )
    print("bank stats: %s" % (stats,))
    record_bench("samplebank_reuse", {
        "cold_seconds": (cold_total, "s"),
        "warm_seconds": (warm_total, "s"),
        "speedup": (cold_total / warm_total, "x"),
        "bank_hits": (stats["hits"], "count"),
    }, seed=31)

    # The bank actually served the repeats.
    assert stats["hits"] > 0
    assert stats["misses"] == N_GROUPS
    # Warm runs replay the cached draws: identical outputs per run.
    assert len(set(warm_estimates)) == 1
    assert first_estimate == warm_estimates[0]
    # Statistically identical to the uncached path.
    assert warm_estimates[0] == pytest.approx(cold_estimates[0], rel=0.05)
