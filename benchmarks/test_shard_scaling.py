"""Sharded scatter-gather scaling on a cold bank (ISSUE 10).

The same Fig6-shaped workload as ``test_parallel_scaling.py`` — per-part
Poisson demand vs slow Exponential supply, the low-acceptance rejection
shape where sampling dominates — executed once on a plain single-process
database and once on a :class:`~repro.shard.ShardedDatabase` whose jobs
scatter across 4 worker processes.

Acceptance: estimates and bank accounting are **bit-identical** to
single-process execution (the tentpole contract).  The single-process/sharded
wall-clock ratio is printed and recorded with the host's core count, not
asserted: since the Poisson quantile table the single process takes a
fraction of a second and four shards are slower than it on 2 cores;
perfbench tracks ``shard.speedup``.

Set ``PIP_SHARD_SMOKE=1`` to run a miniature (CI smoke) with the same
assertions.
"""

import os
import time

from repro.bench.harness import record_bench
from repro.core import operators as ops
from repro.core.database import PIPDatabase
from repro.ctables.table import CTable
from repro.sampling.options import SamplingOptions
from repro.shard import ShardedDatabase
from repro.symbolic.conditions import conjunction_of
from repro.symbolic.expression import var

SMOKE = os.environ.get("PIP_SHARD_SMOKE", "") not in ("", "0")

N_PARTS = 24 if SMOKE else 192
N_SAMPLES = 200 if SMOKE else 2000
SHARDS = 4


def _effective_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _build_table(db):
    table = CTable([("partkey", "int"), ("shortfall", "any")], name="parts")
    for partkey in range(N_PARTS):
        demand = db.create_variable("poisson", (2.0 + partkey % 4,))
        supply = db.create_variable("exponential", (0.06,))
        condition = conjunction_of(var(demand) > var(supply))
        table.add_row((partkey, var(demand) - var(supply)), condition)
    return table


def _run(db):
    table = _build_table(db)
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


def test_shard_scaling_cold_bank():
    options = SamplingOptions(n_samples=N_SAMPLES)
    serial_rows, serial_time, serial_stats = _run(
        PIPDatabase(seed=41, options=options))
    sharded_rows, sharded_time, sharded_stats = _run(
        ShardedDatabase(seed=41, options=options, shards=SHARDS))

    cores = _effective_cores()
    speedup = serial_time / sharded_time if sharded_time else float("inf")
    print(
        "\nshard scaling (cold bank, %d parts x %d samples): "
        "1 process %.2fs  %d shards %.2fs  speedup %.2fx  (%d cores)" % (
            N_PARTS, N_SAMPLES, serial_time, SHARDS, sharded_time,
            speedup, cores,
        )
    )
    print("single-process bank: %s" % (serial_stats,))
    print("sharded bank: %s" % (sharded_stats,))
    record_bench("shard_scaling", {
        "serial_seconds": (serial_time, "s"),
        "sharded_seconds": (sharded_time, "s"),
        "speedup": (speedup, "x"),
        "shards": (SHARDS, "count"),
        "cores": (cores, "count"),
    }, seed=41)

    # The hard contract: sharding never changes a single bit.
    assert sharded_rows == serial_rows
    for name in ("hits", "misses", "samples_served", "samples_drawn", "entries"):
        assert sharded_stats[name] == serial_stats[name], name
