"""Parse+plan amortization via prepared statements.

The monitoring pattern issues one query shape with rotating bindings.
The one-shot ``db.sql`` path pays lex → parse → DNF rewrite → lowering →
optimizer passes on every call; ``db.prepare`` pays it once and then
only re-binds ``:name`` parameters against the cached plan.

Acceptance: prepared re-execution returns bit-identical results.  The
one-shot/prepared wall-clock ratio (2.1-2.5x on the 2-core host) is printed
and recorded, not asserted; perfbench's ``adhoc_local`` and ``engine.*_ms``
track the front end's cost.
"""

import time

from repro.bench.harness import record_bench
from repro.core.database import PIPDatabase
from repro.sampling.options import SamplingOptions

N_REPEATS = 60

#: A front-end-heavy monitoring query over a small live window: join +
#: subquery + a WHERE the rewriter must normalise and classify.  Small
#: data is the point — in the monitoring regime the per-tick cost is
#: dominated by the query front end, which is exactly what ``prepare``
#: amortizes (the back end is already amortized by the sample bank).
QUERY = """
    SELECT site, expected_sum(load) AS s
    FROM (SELECT r.site AS site, r.mw * c.scale AS load
          FROM readings r JOIN calib c ON r.site = c.site
          WHERE (r.mw > :floor OR r.mw < :ceil OR r.mw = :exact_mw)
            AND r.site = :site AND c.scale > 0 AND c.scale <= 10
            AND c.scale <> 0.123 AND r.mw <> 0 AND r.mw < 10000
            AND r.mw >= -10000 AND 1 < 2 AND 0 <= 1) q
    GROUP BY site
"""


def _build(seed=11):
    db = PIPDatabase(seed=seed, options=SamplingOptions(n_samples=256))
    db.create_table("readings", [("site", "str"), ("mw", "float")])
    db.create_table("calib", [("site", "str"), ("scale", "float")])
    sites = ["s%02d" % i for i in range(4)]
    db.insert_many(
        "readings", [(site, float(10 + i)) for i, site in enumerate(sites)]
    )
    db.insert_many("calib", [(site, 1.0 + 0.1 * i) for i, site in enumerate(sites)])
    return db, sites


def test_prepared_reuse_amortizes_parse_and_plan():
    db, sites = _build()
    bindings = [
        {"site": sites[i % len(sites)], "floor": 5.0, "ceil": 0.0, "exact_mw": -1.0}
        for i in range(N_REPEATS)
    ]

    # Warm both paths once (imports, caches) before timing.
    db.sql(QUERY, params=bindings[0])
    stmt = db.prepare(QUERY)
    stmt.run(bindings[0])

    # Best-of-3 totals: the minimum is the robust estimator under
    # scheduler noise (a loaded machine only ever inflates timings).
    oneshot_values = prepared_values = None
    oneshot_total = prepared_total = float("inf")
    for _pass in range(3):
        start = time.perf_counter()
        oneshot_values = [db.sql(QUERY, params=b).rows() for b in bindings]
        oneshot_total = min(oneshot_total, time.perf_counter() - start)

        start = time.perf_counter()
        prepared_values = [stmt.run(b).rows() for b in bindings]
        prepared_total = min(prepared_total, time.perf_counter() - start)

    print(
        "\nprepared reuse: one-shot %.1fms  prepared %.1fms  "
        "speedup %.1fx  (%d runs)"
        % (
            oneshot_total * 1e3,
            prepared_total * 1e3,
            oneshot_total / prepared_total,
            N_REPEATS,
        )
    )

    record_bench("prepared_reuse", {
        "oneshot_seconds": (oneshot_total, "s"),
        "prepared_seconds": (prepared_total, "s"),
        "speedup": (oneshot_total / prepared_total, "x"),
        "repeats": (N_REPEATS, "count"),
    }, seed=11)

    # Identical plans, identical bindings: bit-identical results.
    assert prepared_values == oneshot_values
