"""The closed measurement loop and the metrics every workload shares.

One client issues one statement at a time and sends the next only after the
previous one completed and its rows were fetched (a closed loop, one
connection).  A workload hands out *cycles*: fixed-composition, seeded
blocks of statements.  The loop runs whole cycles until the time is up, so
every cycle of a run does the same mix of work and per-cycle rates can be
compared; results are checked after the clock stops.

Between statements the loop times units of the reference kernel
(``perfbench/reference.py``) and divides each cycle's timings by the host
factor they give: the end-to-end timings are those of a host of fixed speed,
whatever the shared machine's neighbours were doing during the run.
"""

import resource
import statistics
from time import perf_counter

import numpy as np

from perfbench import reference
from perfbench.tracing import DISTRIBUTION_METHODS

#: Classes whose median cost differs by more than this are "different" for
#: the percentile-hygiene rule ...
CLASS_COST_RATIO = 3.0
#: ... and a reported percentile must stay this many points away from the
#: boundary between two such classes (or half its distance from 100, if that
#: is less: p99 cannot be five points from anything).
CLASS_BOUNDARY_MARGIN = 5.0


class Stmt:
    """One statement of a cycle.

    ``run()`` executes it, fetches its rows (timed) and returns the
    ``ResultSet`` (``None`` for a statement without one); ``before()`` runs
    untimed just ahead of it; ``check(out)`` returns ``(ok, relative
    errors)`` against the oracle, after the run.
    """

    __slots__ = ("cls", "run", "check", "before", "mutates")

    def __init__(self, cls, run, check, before=None, mutates=False):
        self.cls = cls
        self.run = run
        self.check = check
        self.before = before
        self.mutates = mutates


class Failure:
    """What a statement that raised left behind."""

    def __init__(self, exc):
        self.error = "%s: %s" % (type(exc).__name__, exc)


class Workload:
    """Base class: inputs come from ``seed`` alone, ``scale`` < 1 shrinks
    the data for the smoke test."""

    name = None
    #: Percentile reported as ``stmt_tail_ms``: the highest with at least
    #: ten samples beyond it in a run of ``run_seconds``.
    tail = 95
    #: Run in a child process that is SIGKILLed after its last statement.
    kill_after = False
    #: Lines for the report (caveats, the statement mix).
    notes = ()
    #: Scratch directory inside the checkout; ``run.py`` sets it before
    #: ``setup()``.
    workdir = None

    def __init__(self, seed, scale=1.0):
        self.seed = seed
        self.scale = scale

    def size(self, full, floor=1):
        return max(floor, int(round(full * self.scale)))

    def setup(self):
        raise NotImplementedError

    def cycle(self, index):
        raise NotImplementedError

    def teardown(self):
        pass

    def extra_layer_metrics(self, seconds):
        """Workload-specific per-layer metrics (traced run only)."""
        return {}

    def finish(self):
        """Workload-specific metrics read once the measurement is over."""
        return {}


class Phase:
    """The samples of one measured stretch; results are checked against
    the oracle as they arrive (untimed) and then dropped, so the process
    holds no more memory than the program itself needs."""

    def __init__(self):
        self.classes = []
        self.seconds = []  # as measured
        self.scaled = []  # divided by the host factor of their cycle
        self.mutating = []
        self.cycles = []  # (scaled seconds inside statements, statements, rows)
        self.factors = []  # host factor of each cycle
        self.failed = 0
        self.failures = []  # the first few, described
        self.errors = []  # relative errors of sampled estimates
        self.cells = 0  # estimated cells, and how many were exact
        self.exact_cells = 0
        self.server_seconds = 0.0  # remote: the server's own request time

    @property
    def statements(self):
        return len(self.seconds)

    def _check(self, stmt, out):
        if isinstance(out, Failure):
            ok, detail = False, out.error
        else:
            try:
                ok, errors = stmt.check(out)
                detail = "wrong result"
                self.errors.extend(errors)
            except Exception as exc:  # malformed output is a wrong answer
                ok, detail = False, "check raised %s: %s" % (type(exc).__name__, exc)
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append("%s: %s" % (stmt.cls, detail))
        estimates = getattr(out, "estimates", ())
        self.cells += len(estimates)
        self.exact_cells += sum(1 for estimate in estimates if estimate.exact)
        timing = getattr(getattr(out, "stats", None), "server_timing", None)
        if timing:
            self.server_seconds += timing.get("total", 0.0)


def measure(workload, seconds, recorder=None):
    """Run whole cycles of ``workload`` for at least ``seconds``."""
    phase = Phase()
    deadline = perf_counter() + seconds
    while True:
        statements = workload.cycle(len(phase.cycles))
        cycle_rows = 0
        cycle_seconds = 0.0
        first = phase.statements
        units = [reference.timed_unit()]
        since_unit = 0.0
        for stmt in statements:
            if stmt.before is not None:
                stmt.before()
            run = stmt.run if recorder is None else recorder.wrap(stmt.run, "stmt")
            start = perf_counter()
            try:
                out = run()
            except Exception as exc:  # a failed statement is a result, not a crash
                out = Failure(exc)
            elapsed = perf_counter() - start
            cycle_seconds += elapsed
            if out is not None and not isinstance(out, Failure):
                cycle_rows += len(out)
            phase.classes.append(stmt.cls)
            phase.seconds.append(elapsed)
            phase.mutating.append(stmt.mutates)
            phase._check(stmt, out)
            since_unit += elapsed
            if since_unit >= reference.EVERY_S:
                units.append(reference.timed_unit())
                since_unit = 0.0
        factor = reference.factor(units)
        phase.factors.append(factor)
        phase.scaled.extend(elapsed / factor for elapsed in phase.seconds[first:])
        phase.cycles.append((cycle_seconds / factor, len(statements), cycle_rows))
        if perf_counter() >= deadline:
            return phase


def percentile(values, pct):
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def class_mix(phase):
    """Per statement class: share of statements and median cost, cheapest
    first, with the cumulative share at each class's upper edge."""
    by_class = {}
    for cls, seconds in zip(phase.classes, phase.seconds):
        by_class.setdefault(cls, []).append(seconds)
    mix = [
        {"class": cls, "count": len(v), "share": len(v) / phase.statements,
         "p50_ms": statistics.median(v) * 1e3}
        for cls, v in by_class.items()
    ]
    mix.sort(key=lambda entry: entry["p50_ms"])
    edge = 0.0
    for entry in mix:
        edge += 100.0 * entry["share"]
        entry["upper_edge_pct"] = edge
    return mix


def hygiene(mix, pct):
    """Why percentile ``pct`` must not be reported, or ``None``: it sits
    within ``CLASS_BOUNDARY_MARGIN`` points of the boundary between two
    classes whose costs differ by more than ``CLASS_COST_RATIO``."""
    margin = min(CLASS_BOUNDARY_MARGIN, (100.0 - pct) / 2.0)
    for low, high in zip(mix, mix[1:]):
        ratio = high["p50_ms"] / max(low["p50_ms"], 1e-9)
        edge = low["upper_edge_pct"]
        if ratio > CLASS_COST_RATIO and abs(pct - edge) < margin:
            return "p%g is %.1f points from the %s|%s boundary (cost ratio %.1fx)" % (
                pct, abs(pct - edge), low["class"], high["class"], ratio)
    return None


def cycle_rate(phase, field):
    """Median over cycles of (statements or rows) per second."""
    column = 1 if field == "statements" else 2
    return statistics.median(cycle[column] / cycle[0] for cycle in phase.cycles)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, phase, setup_seconds):
    """The end-to-end metrics of one untraced phase, and notes on them.
    ``setup_seconds`` and the phase's timings are scaled by the host factor;
    a note gives the factor and the timings as measured."""
    notes = ["host factor %.3f (reference unit took that many times %g ms; timings are"
             " divided by it); as measured: stmt_p50_ms %.6g, stmt_tail_ms %.6g" % (
                 statistics.median(phase.factors), reference.NOMINAL_S * 1e3,
                 percentile(phase.seconds, 50) * 1e3,
                 percentile(phase.seconds, workload.tail) * 1e3)]
    mix = class_mix(phase)
    for label, pct in (("stmt_p50_ms", 50), ("stmt_tail_ms", workload.tail)):
        problem = hygiene(mix, pct)
        if problem:
            notes.append("%s refused by the hygiene rule: %s" % (label, problem))
    beyond = phase.statements * (100 - workload.tail) / 100.0
    if beyond < 10:
        notes.append("stmt_tail_ms (p%d) has only %.1f samples beyond it" % (workload.tail, beyond))
    metrics = {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "stmt_p50_ms": (percentile(phase.scaled, 50) * 1e3, "ms"),
        "stmt_tail_ms": (percentile(phase.scaled, workload.tail) * 1e3, "ms"),
        "stmts_per_s": (cycle_rate(phase, "statements"), "1/s"),
        "rows_per_s": (cycle_rate(phase, "rows"), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, mix, notes


def write_latency(phase, tail):
    """Scaled latency of the mutating statements (commit included), or
    ``None``."""
    writes = [s for s, m in zip(phase.scaled, phase.mutating) if m]
    if not writes:
        return None
    return percentile(writes, 50) * 1e3, percentile(writes, tail) * 1e3


def rel_rms(errors):
    if not errors:
        return 0.0
    return float(np.sqrt(np.mean(np.square(errors))))


# -- program counters (traced run) -------------------------------------------

_METRIC_KEYS = (
    "pip_columnar_chunks_scanned_total",
    "pip_columnar_chunks_pruned_zonemap_total",
    "pip_columnar_chunks_pruned_bloom_total",
    "pip_wal_bytes_total",
    "pip_wal_fsyncs_total",
    "pip_txn_conflicts_total",
)
_BANK_KEYS = ("hits", "misses", "topups", "samples_drawn", "samples_served", "invalidated")


def read_counters(db):
    """The monotonic counters the program keeps, and the bank's footprint."""
    metrics = db.metrics()
    bank = db.sample_bank.stats()
    counters = {key: metrics.get(key, 0) for key in _METRIC_KEYS}
    counters.update((key, bank.get(key, 0)) for key in _BANK_KEYS)
    counters["bank_bytes"] = bank.get("bytes_in_memory", 0)
    return counters


def per_layer(phase, recorder, before, after, untraced_rate):
    """Per-layer metrics of one traced phase.

    Times are self time per statement (ms), so that together with
    ``trace.unattributed_ms`` they add up to ``trace.stmt_ms``, the mean
    traced statement latency.  Counts are per statement too.
    """
    n = phase.statements
    totals = recorder.totals()

    def ms(name):
        return totals.get(name, (0, 0.0))[1] * 1e3 / n

    def calls(name):
        return totals.get(name, (0, 0.0))[0] / n

    delta = {key: after[key] - before[key] for key in before}
    metrics = {}
    for layer in ("lex", "parse", "plan", "bind", "execute", "wire_encode", "wire_decode"):
        metrics["engine.%s_ms" % layer] = (ms("engine." + layer), "ms")
    metrics["columnar.select_ms"] = (ms("columnar.select"), "ms")
    metrics["columnar.aggregate_ms"] = (ms("columnar.aggregate"), "ms")
    chunks = sum(delta[k] for k in _METRIC_KEYS[:3])
    pruned = delta[_METRIC_KEYS[1]] + delta[_METRIC_KEYS[2]]
    metrics["columnar.chunks_pruned_frac"] = (pruned / chunks if chunks else 0.0, "ratio")
    metrics["columnar.store_rebuilds"] = (calls("columnar.store_build"), "count")
    metrics["core.aggregate_ms"] = (ms("core.aggregate"), "ms")
    metrics["core.dml_ms"] = (ms("core.dml"), "ms")
    for layer, name in (("partition", "constraints.partition"),
                        ("consistency", "constraints.consistency")):
        metrics["constraints.%s_ms" % layer] = (ms(name), "ms")
        metrics["constraints.%s_calls" % layer] = (calls(name), "count")
    metrics["util.hash_ms"] = (ms("util.hash"), "ms")
    metrics["util.hash_calls"] = (calls("util.hash"), "count")
    metrics["samplebank.key_ms"] = (ms("samplebank.key"), "ms")
    lookups = delta["hits"] + delta["misses"] + delta["topups"]
    metrics["samplebank.hit_rate"] = (delta["hits"] / lookups if lookups else 0.0, "ratio")
    metrics["samplebank.samples_drawn"] = (delta["samples_drawn"] / n, "count")
    metrics["samplebank.samples_served"] = (delta["samples_served"] / n, "count")
    metrics["samplebank.invalidated"] = (delta["invalidated"] / n, "count")
    metrics["samplebank.bytes"] = (float(after["bank_bytes"]), "B")
    metrics["sampling.sample_ms"] = (ms("sampling.sample"), "ms")
    metrics["sampling.expectation_ms"] = (ms("sampling.expectation"), "ms")
    metrics["sampling.expectation_calls"] = (calls("sampling.expectation"), "count")
    attempts = recorder.counts["sampling.attempts"]
    metrics["sampling.attempts"] = (attempts / n, "count")
    metrics["sampling.accept_rate"] = (
        recorder.counts["sampling.accepted"] / attempts if attempts else 0.0, "ratio")
    metrics["sampling.exact_frac"] = (
        phase.exact_cells / phase.cells if phase.cells else 0.0, "ratio")
    for _attr, short in DISTRIBUTION_METHODS:
        total_ms = total_calls = 0.0
        for name in totals:
            if name.startswith("distributions.") and name.endswith("." + short):
                total_ms += ms(name)
                total_calls += calls(name)
        metrics["distributions.%s_ms" % short] = (total_ms, "ms")
        if short != "generate":
            metrics["distributions.%s_calls" % short] = (total_calls, "count")
        for dist in ("poisson", "normal", "exponential"):
            name = "distributions.%s.%s" % (dist, short)
            metrics[name + "_ms"] = (ms(name), "ms")
            if short != "generate":
                metrics[name + "_calls"] = (calls(name), "count")
    metrics["storage.wal_append_ms"] = (ms("storage.wal_append"), "ms")
    metrics["storage.wal_bytes"] = (delta["pip_wal_bytes_total"] / n, "B")
    metrics["storage.wal_fsyncs"] = (delta["pip_wal_fsyncs_total"] / n, "count")
    metrics["storage.checkpoint_ms"] = (ms("storage.checkpoint"), "ms")
    metrics["session.commit_ms"] = (ms("session.commit"), "ms")
    metrics["session.conflicts"] = (float(delta["pip_txn_conflicts_total"]), "count")

    stmt_ms = sum(phase.seconds) * 1e3 / n
    layer_ms = sum(seconds for name, (_calls, seconds) in totals.items()
                   if name != "stmt") * 1e3 / n
    # Remote statements: the server's own request time (which the engine
    # layers above decompose) and everything else the client waited for
    # (which includes wire_encode and wire_decode).
    server_ms = phase.server_seconds * 1e3 / n
    metrics["server.request_ms"] = (server_ms, "ms")
    metrics["client.wire_ms"] = (stmt_ms - server_ms if server_ms else 0.0, "ms")
    metrics["trace.unattributed_ms"] = (stmt_ms - layer_ms, "ms")
    metrics["trace.stmt_ms"] = (stmt_ms, "ms")
    metrics["trace.overhead_frac"] = (
        untraced_rate / cycle_rate(phase, "statements") - 1.0, "ratio")
    return metrics
