"""Parallel sampling executor scaling on a cold bank.

Fig6-shaped workload: one selective group-by aggregation (the paper's Q4
family — per-part expected sales restricted to a low-probability
scenario) whose rows each carry an independent two-variable group with a
``demand > supply`` comparison, the shape that defeats both the
exact-linear shortcut and CDF inversion and forces full rejection
sampling.  Each row's conditional sample matrix is an independent,
deterministically seeded bundle, so the statement's sampling fans out
across ``parallel_workers`` cores.

Acceptance: estimates and bank counters are **bit-identical** to serial
execution.  The serial/parallel wall-clock ratio is printed and recorded
with the host's core count, not asserted: since the Poisson quantile table
the serial run takes a fraction of a second and four workers are slower than
none on 2 cores; perfbench tracks ``parallel.speedup``.

Set ``PIP_PARALLEL_SMOKE=1`` to run a miniature (CI smoke) with the same
assertions.
"""

import os
import time

from repro.bench.harness import record_bench
from repro.core import operators as ops
from repro.core.database import PIPDatabase
from repro.ctables.table import CTable
from repro.sampling.options import SamplingOptions
from repro.symbolic.conditions import conjunction_of
from repro.symbolic.expression import var

SMOKE = os.environ.get("PIP_PARALLEL_SMOKE", "") not in ("", "0")

N_PARTS = 24 if SMOKE else 192
N_SAMPLES = 200 if SMOKE else 2000
WORKERS = 4


def _effective_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _build(workers, seed=41):
    db = PIPDatabase(
        seed=seed,
        options=SamplingOptions(n_samples=N_SAMPLES, parallel_workers=workers),
    )
    table = CTable([("partkey", "int"), ("shortfall", "any")], name="parts")
    for partkey in range(N_PARTS):
        # Per-part Poisson demand vs a slow Exponential supply: the
        # two-variable comparison keeps acceptance low (~10%), so each of
        # the N_PARTS bundles costs ~N_SAMPLES/0.1 rejection trials.
        demand = db.create_variable("poisson", (2.0 + partkey % 4,))
        supply = db.create_variable("exponential", (0.06,))
        condition = conjunction_of(var(demand) > var(supply))
        table.add_row((partkey, var(demand) - var(supply)), condition)
    return db, table


def _run(workers):
    db, table = _build(workers)
    start = time.perf_counter()
    grouped = ops.grouped_aggregate(
        table, ["partkey"], "expected_sum", "shortfall",
        engine=db.engine, options=db.options,
    )
    elapsed = time.perf_counter() - start
    rows = [row.values for row in grouped.rows]
    stats = db.sample_bank.stats()
    db.close()
    return rows, elapsed, stats


def test_parallel_scaling_cold_bank():
    serial_rows, serial_time, serial_stats = _run(0)
    parallel_rows, parallel_time, parallel_stats = _run(WORKERS)

    cores = _effective_cores()
    speedup = serial_time / parallel_time if parallel_time else float("inf")
    print(
        "\nparallel scaling (cold bank, %d parts x %d samples): "
        "serial %.2fs  %d workers %.2fs  speedup %.2fx  (%d cores)" % (
            N_PARTS, N_SAMPLES, serial_time, WORKERS, parallel_time,
            speedup, cores,
        )
    )
    print("serial bank: %s" % (serial_stats,))
    print("parallel bank: %s" % (parallel_stats,))
    record_bench("parallel_scaling", {
        "serial_seconds": (serial_time, "s"),
        "parallel_seconds": (parallel_time, "s"),
        "speedup": (speedup, "x"),
        "workers": (WORKERS, "count"),
        "cores": (cores, "count"),
    }, seed=41)

    # The hard contract: parallelism never changes a single bit.
    assert parallel_rows == serial_rows
    for name in ("hits", "misses", "samples_served", "samples_drawn", "entries"):
        assert parallel_stats[name] == serial_stats[name], name
