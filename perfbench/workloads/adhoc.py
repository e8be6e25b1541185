"""adhoc_local and adhoc_remote — SkyServer-style ad hoc traffic.

Mostly small lookups plus a few heavy scans and a join (Gray et al.'s mix,
PAPERS.md), each statement parsed and planned from its text.  Lex, parse,
plan and the columnar scan dominate; sampling is absent.  ``adhoc_remote``
sends the *identical* statement stream through a loopback server and one
client session, so remote − local is the wire + server + client cost and
nothing else.
"""

import contextlib
import math
import os
import re

import numpy as np

from perfbench import oracles
from perfbench.harness import Stmt, Workload

N_BRANDS = 50
N_GAUGES = 24
#: Statements of each class in one 100-statement cycle.  The half-table scan
#: is 2 in 100 so that p99 falls in the middle of the costliest class, and the
#: two small lookups are 80 in 100 so that p50 falls well inside them: with
#: fewer, p50 is a high percentile of the small statements and follows the
#: machine's scheduling noise (remote above all), not the program.
MIX = {"point": 48, "range": 32, "aggregate": 7, "join": 4,
       "scan": 3, "big_scan": 2, "symbolic": 4}

KEY_WINDOW = "k >= :lo AND k < :hi"
TEXTS = {
    "point": "SELECT k, price, qty FROM items WHERE k = :lo",
    "range": "SELECT k, price FROM items WHERE " + KEY_WINDOW,
    "aggregate": "SELECT brand, expected_sum(price) AS total, expected_count(*) AS n"
                 " FROM items WHERE " + KEY_WINDOW + " GROUP BY brand",
    "join": "SELECT i.k, b.name, i.price * b.factor AS adjusted FROM items i"
            " JOIN brands b ON i.brand = b.brand WHERE i.k >= :lo AND i.k < :hi",
    "scan": "SELECT k, price, qty FROM items WHERE " + KEY_WINDOW,
    "big_scan": "SELECT k, price, qty FROM items WHERE " + KEY_WINDOW,
    "symbolic": "SELECT g, conf() AS p FROM readings WHERE x > :t",
}


def inline(text, params):
    """``text`` with every ``:name`` replaced by its literal."""
    return re.sub(r":(\w+)", lambda match: repr(params[match.group(1)]), text)


class AdhocLocal(Workload):
    name = "adhoc_local"
    tail = 99

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        n = self.n_items = self.size(20000, floor=400)
        rng = np.random.default_rng([seed, 41])
        self.brand = rng.integers(0, N_BRANDS, n)
        self.price = np.round(rng.uniform(1.0, 500.0, n), 2)
        self.qty = rng.integers(1, 100, n)
        self.factor = np.round(1.0 + np.arange(N_BRANDS) / 10.0, 1)
        self.names = ["brand%02d" % b for b in range(N_BRANDS)]
        self.gauge_mu = rng.uniform(4.0, 10.0, N_GAUGES)
        self.gauge_sd = rng.uniform(0.5, 2.0, N_GAUGES)
        self.span = {"point": 1, "range": 40, "aggregate": n // 20, "join": 20,
                     "scan": n // 10, "big_scan": n // 2}
        self.scans = 0
        self.stream = np.random.default_rng([seed, 42])
        self.notes = ["statement shares per cycle: %s; half reuse a text with new"
                      " :params, half inline their literals" % MIX]

    # -- program side -------------------------------------------------------

    def _build(self):
        from repro import PIPDatabase

        self.db = db = PIPDatabase(seed=self.seed)
        db.sql("CREATE TABLE items (k int, brand int, price float, qty int)")
        db.sql("CREATE TABLE brands (brand int, name str, factor float)")
        db.sql("CREATE TABLE gauges (g int, mu float, sd float)")
        db.insert_many("items", list(zip(
            range(self.n_items), self.brand.tolist(), self.price.tolist(), self.qty.tolist())))
        db.insert_many("brands", list(zip(range(N_BRANDS), self.names, self.factor.tolist())))
        db.insert_many("gauges", list(zip(
            range(N_GAUGES), self.gauge_mu.tolist(), self.gauge_sd.tolist())))
        db.register("readings", db.sql(
            "SELECT g, create_variable('normal', mu, sd) AS x FROM gauges"))

    def _warm_up(self):
        """One statement of every class, so set-up costs the same whatever
        the seed shuffled first."""
        first = {}
        for stmt in self.cycle(-1):
            first.setdefault(stmt.cls, stmt)
        for stmt in first.values():
            stmt.run()

    def setup(self):
        self._build()
        self.session = self.db.connect()
        self._warm_up()

    def teardown(self):
        self.session.close()
        self.db.close()

    def cycle(self, index):
        classes = [cls for cls, count in MIX.items() for _ in range(count)]
        self.stream.shuffle(classes)
        statements = []
        for position, cls in enumerate(classes):
            if cls == "symbolic":
                params = {"t": float(self.stream.uniform(4.0, 10.0))}
            else:
                if cls in ("scan", "big_scan"):
                    # Tenths and halves of the table in turn, not random
                    # windows: every scan of a class then costs the same,
                    # however the program chunks its storage.
                    lo = (self.scans * self.span[cls]) % self.n_items
                    self.scans += 1
                else:
                    lo = int(self.stream.integers(0, self.n_items - self.span[cls]))
                params = {"lo": lo, "hi": lo + self.span[cls]}
                if cls == "point":
                    del params["hi"]
            text = TEXTS[cls]
            if position % 2:
                text, bound = inline(text, params), None
            else:
                bound = params
            statements.append(self._statement(cls, text, bound, params))
        return statements

    def _statement(self, cls, text, bound, params):
        def run():
            cursor = self.session.execute(text, bound)
            cursor.fetchall()
            return cursor.result

        return Stmt(cls, run, lambda out: self._check(cls, params, out))

    # -- oracle side --------------------------------------------------------

    def _check(self, cls, params, result):
        rows = result.rows()
        if cls == "symbolic":
            truth = oracles.normal_tail(self.gauge_mu, self.gauge_sd, params["t"])
            got = dict(rows)
            estimate = np.array([got.pop(g, 0.0) for g in range(N_GAUGES)])
            ok = not got and bool(np.all(np.abs(estimate - truth) <= oracles.EXACT_TOLERANCE))
            return ok, []
        keys = slice(params["lo"], params.get("hi", params["lo"] + 1))
        k = range(keys.start, keys.stop)
        price = self.price[keys].tolist()
        if cls == "range":
            return rows == list(zip(k, price)), []
        if cls in ("point", "scan", "big_scan"):
            return rows == list(zip(k, price, self.qty[keys].tolist())), []
        brand = self.brand[keys]
        if cls == "join":
            expected = sorted(zip(k, (self.names[b] for b in brand),
                                  (self.price[keys] * self.factor[brand]).tolist()))
            return _same(sorted(rows), expected), []
        # aggregate: groups in first-seen order, sums in row order
        first_seen = brand[np.sort(np.unique(brand, return_index=True)[1])]
        expected = [(int(b), float(self.price[keys][brand == b].sum()),
                     float(np.count_nonzero(brand == b))) for b in first_seen]
        return _same(rows, expected), []


def _same(rows, expected):
    """Row lists equal, floats to nine significant digits."""
    if len(rows) != len(expected):
        return False
    for row, want in zip(rows, expected):
        for got, value in zip(row, want):
            if isinstance(value, float):
                if not math.isclose(got, value, rel_tol=oracles.EXACT_TOLERANCE):
                    return False
            elif got != value:
                return False
    return True


class AdhocRemote(AdhocLocal):
    name = "adhoc_remote"

    def setup(self):
        from repro.client import connect
        from repro.server.testing import run_server

        self._build()
        with contextlib.ExitStack() as stack:
            # Client, event loop and worker thread hand every statement to
            # one another; across cores each hand-off waits for a wake-up
            # whose latency drifts with the host's state (±15 % on p50 from
            # run to run).  On one core the closed loop loses nothing — only
            # one of the threads is ever runnable — and p50 repeats.
            if hasattr(os, "sched_setaffinity"):
                allowed = os.sched_getaffinity(0)
                stack.callback(os.sched_setaffinity, 0, allowed)
                os.sched_setaffinity(0, {max(allowed)})
            self.server = stack.enter_context(run_server(self.db))
            self.session = stack.enter_context(connect(self.server.url))
            self._warm_up()
            self._stack = stack.pop_all()

    def teardown(self):
        self._stack.close()  # the session, then the server (drain, shutdown)
        self.db.close()

    def finish(self):
        rejected = self.server.telemetry.registry.snapshot().get("pip_server_rejected_total", 0)
        return {"server.rejected": (float(rejected), "count")}
