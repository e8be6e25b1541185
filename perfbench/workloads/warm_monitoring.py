"""warm_monitoring — the monitoring loop of ``examples/iceberg_monitoring.py``.

Three prepared shapes re-bound over deterministic columns of one model; the
sample bank is filled during set-up and every bundle key repeats, so the
sampler and the SQL front end are bypassed.  Group planning, hashing, bank
keys and hits, and the aggregates carry the time: the no-change control for
kernel work and the target for memoisation work.
"""

import statistics
from time import perf_counter

import numpy as np

from perfbench import oracles
from perfbench.harness import Stmt, Workload

N_SAMPLES = 2000
REGIONS = 8
BANDS = 2

SHAPES = {
    "grouped_sum": "SELECT site, expected_sum(a * w) AS v FROM model"
                   " WHERE a > b AND region >= :lo AND region < :hi GROUP BY site",
    "row_conf": "SELECT site, conf() AS v FROM model WHERE a > b AND band = :band",
    "avg_ratio": "SELECT expected_avg(a) AS v FROM model"
                 " WHERE a > b AND region >= :lo AND region < :hi",
}


class WarmMonitoring(Workload):
    name = "warm_monitoring"
    tail = 95

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        self.n_sites = REGIONS * self.size(24, floor=2)
        rng = np.random.default_rng([seed, 21])
        n = self.n_sites
        self.region = np.arange(n) % REGIONS
        self.band = (np.arange(n) // REGIONS) % BANDS
        self.weight = np.round(rng.uniform(1.0, 5.0, n), 2)
        self.mu_a = rng.uniform(5.0, 6.0, n)
        self.mu_b = rng.uniform(5.0, 6.0, n)
        self.sd_a = rng.uniform(0.5, 1.5, n)
        self.sd_b = rng.uniform(0.5, 1.5, n)
        self.order = np.random.default_rng([seed, 22])
        # One cycle = every binding once.  The sweep over the whole model is
        # 1 statement in 11, so that p95 falls in the middle of its class.
        # Each binding: (statement class, shape, parameters).
        self.bindings = (
            [("grouped_sum", "grouped_sum", {"lo": lo, "hi": lo + 2})
             for lo in range(0, REGIONS, 2)]
            + [("row_conf", "row_conf", {"band": band}) for band in range(BANDS)]
            + [("avg_ratio", "avg_ratio", {"lo": lo, "hi": lo + 2})
               for lo in range(0, REGIONS, 2)]
            + [("full_sweep", "grouped_sum", {"lo": 0, "hi": REGIONS})]
        )
        self.moments = oracles.normal_a_given_a_above_b(
            self.mu_a, self.sd_a, self.mu_b, self.sd_b)

    def _build(self, telemetry=None):
        from repro import PIPDatabase
        from repro.sampling.options import SamplingOptions

        # The bank must hold every bundle, or the loop would not be warm.
        options = SamplingOptions(n_samples=N_SAMPLES, bank_capacity=4 * self.n_sites)
        db = PIPDatabase(seed=self.seed, options=options, telemetry=telemetry)
        db.sql("CREATE TABLE sites (site int, region int, band int, w float,"
               " mu_a float, sd_a float, mu_b float, sd_b float)")
        db.insert_many("sites", [
            (i, int(self.region[i]), int(self.band[i]), float(self.weight[i]),
             float(self.mu_a[i]), float(self.sd_a[i]), float(self.mu_b[i]), float(self.sd_b[i]))
            for i in range(self.n_sites)
        ])
        db.register("model", db.sql(
            "SELECT site, region, band, w,"
            " create_variable('normal', mu_a, sd_a) AS a,"
            " create_variable('normal', mu_b, sd_b) AS b FROM sites"))
        prepared = {shape: db.prepare(text) for shape, text in SHAPES.items()}
        for _cls, shape, params in self.bindings:  # fill the bank
            prepared[shape].run(params).rows()
        return db, prepared

    def setup(self):
        self.db, self.prepared = self._build()

    def teardown(self):
        self.db.close()

    def cycle(self, index):
        order = self.order.permutation(len(self.bindings))
        return [self._statement(*self.bindings[i]) for i in order]

    def _statement(self, cls, shape, params):
        statement = self.prepared[shape]

        def run():
            result = statement.run(params)
            result.rows()
            return result

        return Stmt(cls, run, lambda out: self._check(shape, params, out))

    def _check(self, shape, params, result):
        rows = result.rows()
        if shape == "row_conf":
            sites = np.flatnonzero(self.band == params["band"])
        else:
            sites = np.flatnonzero(
                (self.region >= params["lo"]) & (self.region < params["hi"]))
        prob, first, second = (moment[sites] for moment in self.moments)
        if shape == "avg_ratio":
            mean = first.sum() / prob.sum()
            # Delta method on numerator and denominator, covariance ignored.
            sigma = np.sqrt(
                np.sum(second - np.square(first))
                + mean * mean * np.sum(prob * (1.0 - prob))
            ) / (np.sqrt(N_SAMPLES) * prob.sum())
            ok = len(rows) == 1 and oracles.within_sigmas(rows[0][0], mean, sigma)
            return ok, oracles.relative_errors([rows[0][0]], [mean])
        if [row[0] for row in rows] != sites.tolist():
            return False, []
        estimate = [row[1] for row in rows]
        if shape == "row_conf":
            first, second = prob, prob
        else:
            weight = self.weight[sites]
            first, second = weight * first, np.square(weight) * second
        ok = oracles.within_sigmas(estimate, first, oracles.sigma_bound(first, second, N_SAMPLES))
        return ok, oracles.relative_errors(estimate, first)

    def extra_layer_metrics(self, seconds):
        """Wall of a cycle with default telemetry ÷ with telemetry disabled,
        minus one: alternating cycles on two databases, median of each."""
        from repro.obs import Telemetry

        quiet_db, quiet = self._build(telemetry=Telemetry(metrics=False))
        try:
            walls = {"default": [], "quiet": []}
            deadline = perf_counter() + seconds / 4.0
            while perf_counter() < deadline or len(walls["quiet"]) < 3:
                for label, prepared in (("default", self.prepared), ("quiet", quiet)):
                    start = perf_counter()
                    for _cls, shape, params in self.bindings:
                        prepared[shape].run(params).rows()
                    walls[label].append(perf_counter() - start)
        finally:
            quiet_db.close()
        ratio = statistics.median(walls["default"]) / statistics.median(walls["quiet"])
        return {"obs.default_overhead_frac": (ratio - 1.0, "ratio")}
