"""write_mix — DML beside reads on a durable database, then a kill.

One session on ``PIPDatabase.open(dir)``: autocommit INSERTs, keyed UPDATEs,
transactions that add and delete rows of a symbolic table (so some of the
sample bank is invalidated while the rest is reused), a checkpoint per
cycle, and two reads per tick.  It uses the bank, the column stores and the
engine the other way round from the read workloads, so a read-side cache
that taxes writes shows here.

The process is SIGKILLed after its last acknowledged commit, without
``close()``; the parent then reopens copies of the directory and looks for
every acknowledged row.  Durability is tested against a process kill only:
the sandbox cannot discard writes the operating system has cached.
"""

import json
import os
import shutil
import statistics
from time import perf_counter

import numpy as np

from perfbench import oracles
from perfbench.harness import Stmt, Workload

N_SAMPLES = 1000
REGIONS = 16
TICKS_PER_CYCLE = 20
REOPENS = 5
EXPECTED_FILE = "expected.json"

INSERT = "INSERT INTO orders VALUES (:k, :region, :amount)"
UPDATE = "UPDATE orders SET amount = :amount WHERE k = :k"
DELETE = "DELETE FROM model WHERE sid < :sid"
READ_ORDERS = ("SELECT region, expected_sum(amount) AS total, expected_count(*) AS n"
               " FROM orders GROUP BY region")
READ_MODEL = "SELECT region, expected_sum(x) AS v FROM model WHERE x > y GROUP BY region"


class WriteMix(Workload):
    name = "write_mix"
    tail = 95
    kill_after = True

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        n = self.size(5000, floor=100)
        rng = np.random.default_rng([seed, 51])
        # Mirror of the program's tables, kept by the benchmark alone.
        self.orders = {k: [k % REGIONS, float(np.round(rng.uniform(1.0, 100.0), 2))]
                       for k in range(n)}
        self.model = {}
        self.next_key = n
        self.next_sensor = 0
        self.next_victim = 0
        self.stream = np.random.default_rng([seed, 52])
        self.user_bytes = 0
        self.notes = ["durability is tested against a process kill only (SIGKILL, no"
                      " close()); OS-cached writes cannot be discarded in this sandbox"]

    def _new_sensor(self):
        sid = self.next_sensor
        self.next_sensor += 1
        mu_x, mu_y = self.stream.uniform(5.0, 6.0, 2)
        sd_x, sd_y = self.stream.uniform(0.5, 1.5, 2)
        return sid, (sid % REGIONS, float(mu_x), float(sd_x), float(mu_y), float(sd_y))

    # -- program side -------------------------------------------------------

    def setup(self):
        from repro import PIPDatabase
        from repro.sampling.options import SamplingOptions

        self.db = db = PIPDatabase.open(
            self.workdir, seed=self.seed, options=SamplingOptions(n_samples=N_SAMPLES))
        self.session = session = db.connect()
        session.execute("CREATE TABLE orders (k int, region int, amount float)")
        session.execute("CREATE TABLE model (sid int, region int, x any, y any)")
        db.insert_many("orders", [(k, r, a) for k, (r, a) in self.orders.items()])
        for _ in range(4 * REGIONS):
            sid, row = self._new_sensor()
            self._insert_sensor(sid, row)
            self.model[sid] = row
        for text in (READ_ORDERS, READ_MODEL):  # warm-up; fills the bank
            session.execute(text).fetchall()
        self.wal_start = db.metrics().get("pip_wal_bytes_total", 0)

    def _insert_sensor(self, sid, row):
        region, mu_x, sd_x, mu_y, sd_y = row
        self.session.insert("model", (
            sid, region,
            self.session.create_variable_expr("normal", (mu_x, sd_x)),
            self.session.create_variable_expr("normal", (mu_y, sd_y)),
        ))

    def teardown(self):
        self.session.close()
        self.db.close()

    def cycle(self, index):
        statements = []
        for tick in range(1, TICKS_PER_CYCLE + 1):
            statements += [self._insert(), self._insert()]
            if tick % 2 == 0:
                statements.append(self._update())
            statements += [self._read("read_orders", READ_ORDERS, self._check_orders),
                           self._read("read_model", READ_MODEL, self._check_model)]
            if tick % 5 == 0:
                statements.append(self._transaction())
        statements.append(Stmt("checkpoint", self._checkpoint, lambda _out: (True, [])))
        return statements

    def _checkpoint(self):
        self.db.checkpoint()

    def _execute(self, cls, text, params, applied):
        def run():
            self.session.execute(text, params)

        def check(_out):
            applied()
            self.user_bytes += 8 * len(params)
            return True, []

        return Stmt(cls, run, check, mutates=True)

    def _insert(self):
        k = self.next_key
        self.next_key += 1
        row = [k % REGIONS, float(np.round(self.stream.uniform(1.0, 100.0), 2))]
        return self._execute("insert", INSERT, {"k": k, "region": row[0], "amount": row[1]},
                             lambda: self.orders.__setitem__(k, row))

    def _update(self):
        k = int(self.stream.integers(0, self.next_key - 2 * TICKS_PER_CYCLE))
        amount = float(np.round(self.stream.uniform(1.0, 100.0), 2))
        return self._execute("update", UPDATE, {"k": k, "amount": amount},
                             lambda: self.orders[k].__setitem__(1, amount))

    def _transaction(self):
        """Five symbolic rows in and, with one DELETE, the five oldest out,
        atomically: the DELETE invalidates those rows' bank entries, the
        others stay warm, and the model keeps its size, so a read of it
        costs the same in the last cycle of a run as in the first."""
        added = [self._new_sensor() for _ in range(5)]
        victims = range(self.next_victim, self.next_victim + len(added))
        self.next_victim = victims.stop  # sensors leave in the order they came

        def run():
            with self.session.transaction():
                for sid, row in added:
                    self._insert_sensor(sid, row)
                self.session.execute(DELETE, {"sid": victims.stop})

        def check(_out):
            self.model.update(added)
            for victim in victims:
                del self.model[victim]
            self.user_bytes += 8 * (6 * len(added) + 1)
            return True, []

        return Stmt("transaction", run, check, mutates=True)

    def _read(self, cls, text, check):
        def run():
            cursor = self.session.execute(text)
            cursor.fetchall()
            return cursor.result

        return Stmt(cls, run, check)

    # -- oracle side --------------------------------------------------------

    def _check_orders(self, result):
        region = np.fromiter((row[0] for row in self.orders.values()), dtype=np.int64)
        amount = np.fromiter((row[1] for row in self.orders.values()), dtype=float)
        total = np.bincount(region, weights=amount, minlength=REGIONS)
        count = np.bincount(region, minlength=REGIONS)
        rows = result.rows()
        ok = [row[0] for row in rows] == list(range(REGIONS)) and all(
            abs(row[1] - total[row[0]]) <= 1e-9 * total[row[0]] and row[2] == count[row[0]]
            for row in rows)
        return ok, []

    def _check_model(self, result):
        region, mu_x, sd_x, mu_y, sd_y = (np.array(column) for column in zip(*self.model.values()))
        _prob, first, second = oracles.normal_a_given_a_above_b(mu_x, sd_x, mu_y, sd_y)
        region = region.astype(np.int64)
        truth = np.bincount(region, weights=first, minlength=REGIONS)
        variance = np.bincount(region, weights=second - np.square(first), minlength=REGIONS)
        got = dict(result.rows())
        present = sorted(set(region.tolist()))
        estimate = np.array([got.pop(r, 0.0) for r in present])
        ok = not got and oracles.within_sigmas(
            estimate, truth[present], np.sqrt(variance[present] / N_SAMPLES))
        return ok, oracles.relative_errors(estimate, truth[present])

    # -- after the measurement ----------------------------------------------

    def finish(self):
        """Leave what the parent needs to judge the kill; the database stays
        open (no ``close()``, no final checkpoint)."""
        wal = self.db.metrics().get("pip_wal_bytes_total", 0) - self.wal_start
        expected = {
            "db_path": self.workdir,
            "orders": [[k, r, a] for k, (r, a) in self.orders.items()],
            "model": [[sid, row[0]] for sid, row in self.model.items()],
        }
        with open(os.path.join(os.path.dirname(self.workdir), EXPECTED_FILE), "w") as handle:
            json.dump(expected, handle)
        return {"storage.wal_bytes_per_user_byte": (wal / self.user_bytes, "ratio")}

    @classmethod
    def after_kill(cls, report, workdir, trace):
        """Reopen ``REOPENS`` copies of what the killed child left; every
        acknowledged row must be there.  Runs in the parent."""
        from repro import PIPDatabase
        from perfbench.tracing import Recorder

        with open(os.path.join(workdir, EXPECTED_FILE)) as handle:
            expected = json.load(handle)
        orders = [tuple(row) for row in expected["orders"]]
        model = [tuple(row) for row in expected["model"]]
        extra = report["workload_end_to_end"]
        snapshots = os.path.join(expected["db_path"], "snapshots")
        newest = max((os.path.join(snapshots, name) for name in os.listdir(snapshots)),
                     key=os.path.getmtime)
        extra["storage.snapshot_bytes"] = (float(os.path.getsize(newest)), "B")
        reopen_seconds = []
        recorder = Recorder()
        for attempt in range(REOPENS):
            copy = os.path.join(workdir, "reopen%d" % attempt)
            shutil.copytree(expected["db_path"], copy)
            traced = trace and attempt == REOPENS - 1
            if traced:
                recorder.install()
            try:
                start = perf_counter()
                db = PIPDatabase.open(copy)
                elapsed = perf_counter() - start
            finally:
                recorder.uninstall()
            if traced:
                replay = recorder.totals().get("storage.replay", (0, 0.0))[1]
                extra["storage.replay_ms"] = (replay * 1e3, "ms")
            else:
                reopen_seconds.append(elapsed)
            try:
                survived = (db.sql("SELECT k, region, amount FROM orders").rows() == orders
                            and db.sql("SELECT sid, region FROM model").rows() == model)
            finally:
                db.close()
            shutil.rmtree(copy)
            report["attempted"] += 1
            if not survived:
                report["failed"] += 1
                report["failures"].append("reopen %d: acknowledged rows missing" % attempt)
        extra["storage.reopen_s"] = (statistics.median(reopen_seconds), "s")
