"""Process-pool scaling on a cold bank, in the regime the pool is kept for.

A group's bundle is a pure function of (bank key, derived seed, options),
so sampling it in a forked worker cannot change an answer; what it can
change is the wall clock, and only when a group costs well above its
hand-off (pickle the job, pickle the arrays back, merge).  A group that
takes a millisecond does not: since the distribution kernels stopped
dispatching through ``scipy.stats`` the pool runs such statements at about
0.6x of the serial loop.  So this bench measures the shape where workers
pay: ``a > b + 2.9`` over two standard Normals accepts about 2 % of its
candidates, and at 50 000 samples a group is some 2.5 million draws
(about 0.1 s).  One prepared ``expected_sum(a - b) ... GROUP BY partkey``
runs over three cold windows of 16 parts, serially and with one worker per
core.

Acceptance: rows and bank counters are **bit-identical** to serial
execution.  The serial/pool wall-clock ratio is printed and recorded with
the host's core count, not asserted (``docs/performance.md``, "Job
plane", holds the measured table).  ``PIP_PARALLEL_SMOKE=1`` runs a
miniature (CI smoke) with the same assertions.

Run as a script, this file is the three-regime probe behind that table —
the cheap regime, this one, and the same groups escalated to Metropolis::

    PYTHONPATH=src python benchmarks/test_parallel_scaling.py [cheap|rejection|metropolis ...]
"""

import os
import sys
import time

from repro.bench.harness import record_bench
from repro.core.database import PIPDatabase
from repro.sampling.options import SamplingOptions

SMOKE = os.environ.get("PIP_PARALLEL_SMOKE", "") not in ("", "0")

SEED = 3
WINDOW = 4 if SMOKE else 16
#: regime -> (gap in ``a > b + gap``, sampling options).  The attempt cap
#: is raised because 50 000 samples at 2 % acceptance need 2.5 million
#: candidates, above the default cap of 2 million.
REGIMES = {
    "cheap": (0.0, dict(n_samples=1000)),
    "rejection": (2.9, dict(n_samples=2000 if SMOKE else 50000,
                            max_attempts_per_group=10**7)),
    "metropolis": (2.9, dict(n_samples=20000, metropolis_threshold=0.95)),
}


def _effective_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _run(regime, workers):
    """Three cold windows of the regime's statement; returns
    ``(rows, seconds, bank stats)``."""
    gap, options = REGIMES[regime]
    db = PIPDatabase(
        seed=SEED, options=SamplingOptions(parallel_workers=workers, **options))
    try:
        db.sql("CREATE TABLE parts (partkey int)")
        db.insert_many("parts", [(partkey,) for partkey in range(4 * WINDOW)])
        db.register("model", db.sql(
            "SELECT partkey, create_variable('normal', 0.0, 1.0) AS a,"
            " create_variable('normal', 0.0, 1.0) AS b FROM parts"))
        statement = db.prepare(
            "SELECT partkey, expected_sum(a - b) AS v FROM model"
            " WHERE a > b + %r AND partkey >= :lo AND partkey < :hi"
            " GROUP BY partkey" % (gap,))
        statement.run(lo=0, hi=2).rows()  # fork the workers untimed
        rows = []
        start = time.perf_counter()
        for lo in (WINDOW, 2 * WINDOW, 3 * WINDOW):
            rows.extend(statement.run(lo=lo, hi=lo + WINDOW).rows())
        elapsed = time.perf_counter() - start
        return rows, elapsed, db.sample_bank.stats()
    finally:
        db.close()


def _compare(regime):
    """Serial against one worker per core (at least two, so the pool is
    exercised on any host); returns the metrics ``record_bench`` takes."""
    cores = _effective_cores()
    workers = max(2, cores)
    n_samples = REGIMES[regime][1]["n_samples"]
    serial_rows, serial_time, serial_stats = _run(regime, 0)
    parallel_rows, parallel_time, parallel_stats = _run(regime, workers)
    speedup = serial_time / parallel_time if parallel_time else float("inf")
    print(
        "\nparallel scaling (%s, cold bank, %d groups x %d samples): "
        "serial %.3fs  %d workers %.3fs  speedup %.2fx  (%d cores)" % (
            regime, 3 * WINDOW, n_samples, serial_time,
            workers, parallel_time, speedup, cores,
        )
    )
    print("serial bank: %s" % (serial_stats,))
    print("parallel bank: %s" % (parallel_stats,))

    # The hard contract: parallelism never changes a single bit.
    assert [(k, v.hex()) for k, v in parallel_rows] == [
        (k, v.hex()) for k, v in serial_rows]
    for name in ("hits", "misses", "samples_served", "samples_drawn", "entries"):
        assert parallel_stats[name] == serial_stats[name], name
    return {
        "serial_seconds": (serial_time, "s"),
        "parallel_seconds": (parallel_time, "s"),
        "speedup": (speedup, "x"),
        "workers": (workers, "count"),
        "cores": (cores, "count"),
    }


def test_parallel_scaling_cold_bank():
    record_bench("parallel_scaling", _compare("rejection"), seed=SEED)


if __name__ == "__main__":
    for name in sys.argv[1:] or list(REGIMES):
        _compare(name)
