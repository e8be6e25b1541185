"""exact_iceberg — the paper's Figure 8 through SQL.

Virtual ships ask, per iceberg sighting, for the probability that the
iceberg is inside a box around the ship.  Each position is two independent
Normals, so every probability is four CDF evaluations: the exact path —
scalar ``cdf`` calls and per-row consistency tightening, no samples drawn.
A sampler change must not move this workload; a ``cdf`` or consistency
change must.
"""

import numpy as np

from perfbench import oracles
from perfbench.harness import Stmt, Workload

RADIUS = 1.0
RECENT_DAYS = 30.0
ALL_DAYS = 1.0e9
SHIPS_PER_CYCLE = 10

QUERY = ("SELECT iceberg_id, conf() AS p FROM icebergs"
         " WHERE lat > :a AND lat < :b AND lon > :c AND lon < :d AND days < :days")


class ExactIceberg(Workload):
    name = "exact_iceberg"
    tail = 95

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        n = self.n_sightings = self.size(120, floor=6)
        rng = np.random.default_rng([seed, 31])
        self.lat0 = rng.uniform(40.0, 50.0, n)
        self.lon0 = rng.uniform(-55.0, -45.0, n)
        self.sd_lat = rng.uniform(0.2, 1.5, n)
        self.sd_lon = rng.uniform(0.2, 1.5, n)
        # Two in five sightings are recent; the others are 1 to 4 years old.
        self.days = np.where(np.arange(n) % 5 < 2,
                             rng.uniform(0.0, RECENT_DAYS - 1.0, n),
                             rng.uniform(365.0, 1460.0, n)).round(1)
        self.ships = np.random.default_rng([seed, 32])

    def setup(self):
        from repro import PIPDatabase

        self.db = db = PIPDatabase(seed=self.seed)
        db.sql("CREATE TABLE sightings (iceberg_id int, days float, lat0 float,"
               " lon0 float, sd_lat float, sd_lon float)")
        db.insert_many("sightings", [
            (i, float(self.days[i]), float(self.lat0[i]), float(self.lon0[i]),
             float(self.sd_lat[i]), float(self.sd_lon[i]))
            for i in range(self.n_sightings)
        ])
        db.register("icebergs", db.sql(
            "SELECT iceberg_id, days,"
            " create_variable('normal', lat0, sd_lat) AS lat,"
            " create_variable('normal', lon0, sd_lon) AS lon FROM sightings"))
        self.prepared = db.prepare(QUERY)
        self.prepared.run(a=44.0, b=46.0, c=-51.0, d=-49.0, days=ALL_DAYS).rows()

    def teardown(self):
        self.db.close()

    def cycle(self, index):
        """Ten ships, each near some sighting; nine ask about the recent
        sightings only, one about all of them (1 in 10, so that p95 falls in
        the middle of that class)."""
        near = self.ships.integers(0, self.n_sightings, SHIPS_PER_CYCLE)
        offset = self.ships.normal(0.0, 0.5, (SHIPS_PER_CYCLE, 2))
        heavy = int(self.ships.integers(0, SHIPS_PER_CYCLE))
        statements = []
        for ship in range(SHIPS_PER_CYCLE):
            lat = float(self.lat0[near[ship]] + offset[ship, 0])
            lon = float(self.lon0[near[ship]] + offset[ship, 1])
            box = (lat - RADIUS, lat + RADIUS, lon - RADIUS, lon + RADIUS)
            statements.append(self._statement(box, ALL_DAYS if ship == heavy else RECENT_DAYS))
        return statements

    def _statement(self, box, days):
        params = dict(zip("abcd", box), days=days)

        def run():
            result = self.prepared.run(params)
            result.rows()
            return result

        cls = "all_sightings" if days == ALL_DAYS else "recent_only"
        return Stmt(cls, run, lambda out: self._check(box, days, out))

    def _check(self, box, days, result):
        wanted = np.flatnonzero(self.days < days)
        truth = oracles.box_probability(
            self.lat0[wanted], self.lon0[wanted], self.sd_lat[wanted], self.sd_lon[wanted], box)
        got = dict(result.rows())
        # A row the program left out has probability zero.
        estimate = np.array([got.pop(int(i), 0.0) for i in wanted])
        ok = not got and bool(np.all(np.abs(estimate - truth) <= oracles.EXACT_TOLERANCE))
        return ok, oracles.relative_errors(estimate, truth)
