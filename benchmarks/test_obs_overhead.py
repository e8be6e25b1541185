"""Observability overhead on a fig6-shaped sampling query.

What the **default** telemetry (metrics on, tracing off — what every
``PIPDatabase()`` gets) costs a sampling-heavy statement against a fully
disabled build.  The workload is the fig6 shape from ``test_parallel_scaling``
— a selective group-by ``expected_sum`` over two-variable rejection
groups — issued through the SQL front end so the measured path includes
parse, plan, the executor wrapper, the bank hooks and the statement
epilogue, i.e. every instrumentation point a real query crosses.

Methodology: interleaved alternating runs on fresh databases (cold bank
each time, so the sampling cost dominates and neither side benefits
from warm-up order), best-of-``REPEATS`` per side — scheduler noise only
ever adds time, so the minimum is the cleanest estimate of intrinsic
cost.

The assertions are bit-identity of the rows under every configuration.
The overheads are printed and recorded, not asserted: the statement takes
~0.1 s, so a 5% budget is 5 ms of scheduler noise; perfbench tracks
``obs.default_overhead_frac``.  ``PIP_OBS_SMOKE=1`` runs the CI miniature.

Two opt-in configurations are also measured: tracing alone and tracing
**with a file exporter attached** (the exporter runs on its own thread
and the query path only ever enqueues).
"""

import os
import time

from repro.bench.harness import record_bench
from repro.core.database import PIPDatabase
from repro.obs import Telemetry
from repro.sampling.options import SamplingOptions
from repro.symbolic.conditions import conjunction_of
from repro.symbolic.expression import var

SMOKE = os.environ.get("PIP_OBS_SMOKE", "") not in ("", "0")

N_PARTS = 24 if SMOKE else 96
N_SAMPLES = 200 if SMOKE else 1000
REPEATS = 3 if SMOKE else 5

QUERY = (
    "SELECT partkey, expected_sum(shortfall) AS short "
    "FROM parts GROUP BY partkey"
)


def _build(telemetry, seed=41):
    db = PIPDatabase(
        seed=seed,
        options=SamplingOptions(n_samples=N_SAMPLES),
        telemetry=telemetry,
    )
    db.create_table("parts", [("partkey", "int"), ("shortfall", "any")])
    for partkey in range(N_PARTS):
        demand = db.create_variable("poisson", (2.0 + partkey % 4,))
        supply = db.create_variable("exponential", (0.06,))
        condition = conjunction_of(var(demand) > var(supply))
        db.insert("parts", (partkey, var(demand) - var(supply)), condition)
    return db


def _one_run(make_telemetry):
    db = _build(make_telemetry())
    start = time.perf_counter()
    rows = db.sql(QUERY).rows()
    elapsed = time.perf_counter() - start
    db.close()
    return elapsed, rows


def _measure(make_telemetry):
    best, rows = _one_run(make_telemetry)
    for _ in range(REPEATS - 1):
        elapsed, again = _one_run(make_telemetry)
        assert again == rows  # fresh db + same seed: bit-identical
        best = min(best, elapsed)
    return best, rows


def test_default_telemetry_overhead_within_budget(tmp_path):
    export_target = "file:%s" % (tmp_path / "spans.ndjson")

    # Warm the code paths once so no side pays first-import costs.
    _one_run(Telemetry.disabled)
    _one_run(Telemetry)
    _one_run(lambda: Telemetry(export=export_target))

    base, base_rows = _measure(Telemetry.disabled)
    default, default_rows = _measure(Telemetry)
    traced, traced_rows = _measure(lambda: Telemetry(tracing=True))
    exported, exported_rows = _measure(lambda: Telemetry(export=export_target))

    assert default_rows == base_rows
    assert traced_rows == base_rows
    assert exported_rows == base_rows

    overhead = default / base - 1.0
    export_overhead = exported / base - 1.0
    print(
        "\nobs overhead (%d parts x %d samples, best of %d): "
        "disabled %.3fs  default %.3fs (%+.1f%%)  traced %.3fs (%+.1f%%)  "
        "traced+export %.3fs (%+.1f%%)" % (
            N_PARTS, N_SAMPLES, REPEATS, base, default,
            overhead * 100.0, traced, (traced / base - 1.0) * 100.0,
            exported, export_overhead * 100.0,
        )
    )
    record_bench("obs_overhead", {
        "disabled_seconds": (base, "s"),
        "default_seconds": (default, "s"),
        "traced_seconds": (traced, "s"),
        "exported_seconds": (exported, "s"),
        "default_overhead": (overhead, "ratio"),
        "export_overhead": (export_overhead, "ratio"),
    }, seed=41)
