"""cold_sampling — the paper's Figure 6 cost centre.

Six prepared statement shapes over one probabilistic model; the sample bank
is cleared before every statement, so each statement pays for its sampling.
Sampler and distribution kernels do almost all the work; the SQL front end
(prepared) and the bank's hit path do almost none.
"""

import os
from time import perf_counter

import numpy as np

from perfbench import oracles
from perfbench.harness import Stmt, Workload

N_SAMPLES = 1000
POPULARITY_FLOOR = 3.0   # Q4 shape: pop > 3, selectivity e^-3
AVG_FLOOR = 1.0
SUM_FLOOR = 11.0         # Normal-sum shape: a + b > 11
MAX_REFERENCE_WORLDS = 20000

WINDOW = "partkey >= :lo AND partkey < :hi"
SHAPES = {
    # Poisson demand against Exponential supply: two variables in one atom
    # defeat CDF inversion, so this is rejection sampling through Poisson ppf.
    "q5_rejection": "SELECT partkey, expected_sum(demand - supply) AS v FROM model"
                    " WHERE demand > supply AND " + WINDOW + " GROUP BY partkey",
    "q4_cdf_window": "SELECT partkey, expected_sum(demand * pop * price) AS v FROM model"
                     " WHERE pop > 3.0 AND " + WINDOW + " GROUP BY partkey",
    "normal_sum": "SELECT partkey, expected_sum(a) AS v FROM model"
                  " WHERE a + b > 11.0 AND " + WINDOW + " GROUP BY partkey",
    "conf_two_var": "SELECT partkey, conf() AS v FROM model WHERE a > b AND " + WINDOW,
    "avg_ratio": "SELECT expected_avg(demand * pop) AS v FROM model"
                 " WHERE pop > 1.0 AND " + WINDOW,
    "max_worlds": "SELECT expected_max(a + b) AS v FROM model WHERE " + WINDOW,
}
#: Shapes whose group estimates enter ``accuracy.rel_rms_error``.
RMS_SHAPES = ("q5_rejection", "q4_cdf_window", "conf_two_var")


class ColdSampling(Workload):
    name = "cold_sampling"
    tail = 90

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        self.window = self.size(16, floor=2)
        self.n_parts = self.window * self.size(16, floor=2)
        rng = np.random.default_rng([seed, 11])
        n = self.n_parts
        # Narrow ranges: a statement's cost must not depend on which parts its
        # window holds, or the seed would move the tail.
        self.lam = rng.uniform(3.5, 4.5, n)
        self.theta = rng.uniform(0.055, 0.065, n)
        self.price = np.round(rng.uniform(5.0, 50.0, n), 2)
        self.mu_a = rng.uniform(5.0, 6.0, n)
        self.mu_b = rng.uniform(5.0, 6.0, n)
        self.sd_a = rng.uniform(0.5, 1.5, n)
        self.sd_b = rng.uniform(0.5, 1.5, n)
        self.order = np.random.default_rng([seed, 12])
        self._truth = None

    # -- program side -------------------------------------------------------

    def _build(self, db):
        db.sql("CREATE TABLE parts (partkey int, price float, lam float, theta float,"
               " mu_a float, sd_a float, mu_b float, sd_b float)")
        db.insert_many("parts", [
            (i, float(self.price[i]), float(self.lam[i]), float(self.theta[i]),
             float(self.mu_a[i]), float(self.sd_a[i]), float(self.mu_b[i]), float(self.sd_b[i]))
            for i in range(self.n_parts)
        ])
        db.register("model", db.sql(
            "SELECT partkey, price,"
            " create_variable('poisson', lam) AS demand,"
            " create_variable('exponential', theta) AS supply,"
            " create_variable('exponential', 1.0) AS pop,"
            " create_variable('normal', mu_a, sd_a) AS a,"
            " create_variable('normal', mu_b, sd_b) AS b FROM parts"))
        return {shape: db.prepare(text) for shape, text in SHAPES.items()}

    def setup(self):
        from repro import PIPDatabase
        from repro.sampling.options import SamplingOptions

        self.db = PIPDatabase(seed=self.seed, options=SamplingOptions(n_samples=N_SAMPLES))
        self.prepared = self._build(self.db)
        for statement in self.prepared.values():  # warm-up: imports, lazy tables
            statement.run(lo=0, hi=self.window).rows()

    def teardown(self):
        self.db.close()

    def cycle(self, index):
        windows = self.n_parts // self.window
        lo = (index % windows) * self.window
        shapes = list(SHAPES)
        self.order.shuffle(shapes)
        return [self._statement(shape, lo, lo + self.window) for shape in shapes]

    def _statement(self, shape, lo, hi):
        prepared = self.prepared[shape]

        def run():
            result = prepared.run(lo=lo, hi=hi)
            result.rows()
            return result

        return Stmt(shape, run, lambda out: self._check(shape, lo, hi, out),
                    before=self.db.sample_bank.clear)

    # -- oracle side --------------------------------------------------------

    def truth(self):
        """Per part and shape: ``(P[condition], E[Z], E[Z²])``."""
        if self._truth is None:
            self._truth = {
                "q5_rejection": oracles.poisson_over_exponential(self.lam, self.theta),
                "q4_cdf_window": oracles.poisson_times_exponential_tail(
                    self.lam, self.price, POPULARITY_FLOOR),
                "normal_sum": oracles.normal_a_given_sum_above(
                    self.mu_a, self.sd_a, self.mu_b, self.sd_b, SUM_FLOOR),
                "conf_two_var": oracles.normal_a_given_a_above_b(
                    self.mu_a, self.sd_a, self.mu_b, self.sd_b),
                "avg_ratio": oracles.poisson_times_exponential_tail(
                    self.lam, 1.0, AVG_FLOOR),
            }
        return self._truth

    def _check(self, shape, lo, hi, result):
        rows = result.rows()
        part = slice(lo, hi)
        if shape == "max_worlds":
            mu = self.mu_a[part] + self.mu_b[part]
            sd = np.sqrt(np.square(self.sd_a[part]) + np.square(self.sd_b[part]))
            mean, spread = oracles.max_of_normal_sums(
                mu, sd, MAX_REFERENCE_WORLDS, np.random.default_rng([self.seed, 13, lo]))
            sigma = spread * np.sqrt(1.0 / N_SAMPLES + 1.0 / MAX_REFERENCE_WORLDS)
            return len(rows) == 1 and oracles.within_sigmas(rows[0][0], mean, sigma), []
        prob, first, second = (moment[part] for moment in self.truth()[shape])
        if shape == "avg_ratio":
            mean = first.sum() / prob.sum()
            sigma = np.sqrt(np.sum(second - np.square(first)) / N_SAMPLES) / prob.sum()
            return len(rows) == 1 and oracles.within_sigmas(rows[0][0], mean, sigma), []
        if [row[0] for row in rows] != list(range(lo, hi)):
            return False, []
        estimate = [row[1] for row in rows]
        if shape == "conf_two_var":
            first, second = prob, prob  # Z is the indicator itself
        ok = oracles.within_sigmas(estimate, first, oracles.sigma_bound(first, second, N_SAMPLES))
        errors = oracles.relative_errors(estimate, first) if shape in RMS_SHAPES else []
        return ok, errors

    # -- informational per-layer extras --------------------------------------

    def extra_layer_metrics(self, seconds):
        """Serial wall ÷ wall with ``nproc`` pool workers / shards over three
        windows of the rejection shape, each sampled once (workers keep
        their own caches, so no window repeats).  Inputs to ROADMAP item 3;
        0 when the module is gone."""
        from repro import PIPDatabase
        from repro.sampling.options import SamplingOptions

        cores = os.cpu_count() or 1
        options = SamplingOptions(n_samples=N_SAMPLES)

        def wall(db):
            try:
                statement = self._build(db)["q5_rejection"]
                statement.run(lo=0, hi=2).rows()  # start the workers untimed
                start = perf_counter()
                for window in (1, 2, 3):
                    lo = window * self.window
                    statement.run(lo=lo, hi=lo + self.window).rows()
                return perf_counter() - start
            finally:
                db.close()

        serial = wall(PIPDatabase(seed=self.seed, options=options))
        metrics = {"parallel.speedup": (0.0, "ratio"), "shard.speedup": (0.0, "ratio")}
        try:
            pooled = PIPDatabase(
                seed=self.seed, options=options.replace(parallel_workers=cores))
            metrics["parallel.speedup"] = (serial / wall(pooled), "ratio")
        except (ImportError, TypeError):
            pass
        try:
            from repro.shard import ShardedDatabase
            sharded = ShardedDatabase(seed=self.seed, options=options, shards=cores)
            metrics["shard.speedup"] = (serial / wall(sharded), "ratio")
        except (ImportError, TypeError):
            pass
        return metrics
