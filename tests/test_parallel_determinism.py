"""Parallel sampling executor: bit-identical results, consistent stats.

The parallel executor's contract is strict: with ``parallel_workers=N``
every estimate must equal the serial run's **bit for bit** — a worker
materialises each sample-bank bundle from the same deterministic seed
stream and growth sizes the serial first touch would have used, and
everything after the prefetch runs serially against identical bundle
states.  These tests pin that contract on the paper's workload shapes:

* fig6-shaped — Q4's selective group-by ``expected_sum`` (CDF-window
  Exponential x Poisson product per part);
* fig7(b)-shaped — Q5's two-variable comparison (demand > supply), the
  shape that forces rejection sampling;
* conf-heavy — per-row ``conf()`` through the SQL front end;
* expensive groups — ``a > b + 2.9`` over two Normals (acceptance ≈ 2 %),
  by rejection and escalated to Metropolis: the regime the pool is kept
  for (``docs/performance.md``, "Job plane");

each cold (fresh bank) and warm (second run over the same bank), plus the
bank-stats invariants and the pool plumbing units — and the seam itself:
every fluent terminal against its SQL statement (same cells, same bank
counters, serial and pooled), and a statement dry-planned for the pool no
more often than it goes on to sample.
"""

import math
import pickle

import pytest

from repro.core import operators as ops
from repro.core.database import PIPDatabase
from repro.ctables.table import CTable
from repro.parallel import GroupJob, resolve_chunk_size, resolve_workers, run_group_job
from repro.sampling.options import SamplingOptions
from repro.symbolic.conditions import Conjunction, conjunction_of
from repro.symbolic.expression import var

WORKER_COUNTS = (2, 4)

#: Stats that must match serial execution exactly on these workloads
#: (no early exits, so the parallel planner mirrors the serial touches 1:1).
STRICT_STATS = ("hits", "misses", "topups", "samples_served", "samples_drawn", "entries")


def _options(workers, **kw):
    kw.setdefault("n_samples", 400)
    return SamplingOptions(parallel_workers=workers, **kw)


def _bundles(db):
    """``(key, bundle)`` for every bundle the bank holds in memory."""
    bank = db.sample_bank
    return [(key, bank.bundle(key)) for key, _vids, _n in bank.entries()]


# ---------------------------------------------------------------------------
# Workload builders
# ---------------------------------------------------------------------------


def _fig6_workload(db, n_parts=24, selectivity=0.05):
    """Q4's shape: Poisson increase x Exponential popularity, selective."""
    threshold = -math.log(selectivity)
    table = CTable([("partkey", "int"), ("sales", "any")], name="q4ish")
    for partkey in range(n_parts):
        increase = db.create_variable("poisson", (1.0 + (partkey % 5) * 0.5,))
        popularity = db.create_variable("exponential", (1.0,))
        condition = conjunction_of(var(popularity) > threshold)
        table.add_row(
            (partkey, var(increase) * var(popularity) * (10.0 + partkey)), condition
        )
    return table


def _fig7_workload(db, n_suppliers=16):
    """Q5's shape: demand > supply across two variables (rejection)."""
    table = CTable([("suppkey", "int"), ("shortfall", "any")], name="q5ish")
    for suppkey in range(n_suppliers):
        demand = db.create_variable("poisson", (2.0 + suppkey % 4,))
        supply = db.create_variable("exponential", (0.4,))
        condition = conjunction_of(var(demand) > var(supply))
        table.add_row((suppkey, var(demand) - var(supply)), condition)
    return table


def _run_grouped(workers, build, runs=1, seed=17):
    """Run a grouped expected_sum ``runs`` times on one database; returns
    (list of per-run row tuples, bank stats)."""
    db = PIPDatabase(seed=seed, options=_options(workers))
    table = build(db)
    results = []
    for _ in range(runs):
        grouped = ops.grouped_aggregate(
            table, [table.schema.names[0]], "expected_sum",
            table.schema.names[1], engine=db.engine, options=db.options,
        )
        results.append([row.values for row in grouped.rows])
    stats = db.sample_bank.stats()
    db.close()
    return results, stats


# ---------------------------------------------------------------------------
# Bit-identical estimates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("build", [_fig6_workload, _fig7_workload],
                         ids=["fig6-shaped", "fig7-shaped"])
def test_cold_bank_bit_identical(workers, build):
    serial, serial_stats = _run_grouped(0, build)
    parallel, parallel_stats = _run_grouped(workers, build)
    assert parallel == serial  # exact float equality, no tolerance
    for name in STRICT_STATS:
        assert parallel_stats[name] == serial_stats[name], name


@pytest.mark.parametrize("build", [_fig6_workload, _fig7_workload],
                         ids=["fig6-shaped", "fig7-shaped"])
def test_warm_bank_bit_identical(build):
    serial, serial_stats = _run_grouped(0, build, runs=2)
    parallel, parallel_stats = _run_grouped(2, build, runs=2)
    # Warm repetition replays the cached draws: equal across runs and modes.
    assert serial[0] == serial[1]
    assert parallel == serial
    for name in STRICT_STATS:
        assert parallel_stats[name] == serial_stats[name], name


def test_sql_conf_and_expectation_bit_identical():
    """Full SQL pipeline: per-row expectation + conf under WHERE."""

    def run(workers):
        db = PIPDatabase(seed=5, options=_options(workers))
        db.sql("CREATE TABLE routes (dest str, rate float)")
        db.sql(
            "INSERT INTO routes VALUES ('NY', 0.2), ('LA', 0.5), ('SF', 0.3), ('CH', 0.9)"
        )
        db.register(
            "shipping",
            db.sql(
                "SELECT dest, create_variable('exponential', rate) AS duration"
                " FROM routes"
            ),
        )
        result = db.sql(
            "SELECT dest, expectation(duration) AS e, conf() AS p"
            " FROM shipping WHERE duration >= 2"
        )
        rows = result.rows()
        stats = db.sample_bank.stats()
        db.close()
        return rows, stats

    serial_rows, serial_stats = run(0)
    for workers in WORKER_COUNTS:
        parallel_rows, parallel_stats = run(workers)
        assert parallel_rows == serial_rows
        for name in STRICT_STATS:
            assert parallel_stats[name] == serial_stats[name], name


def test_expected_avg_bit_identical():
    """expected_avg mixes mean-fill and probability-floor jobs."""

    def run(workers):
        db = PIPDatabase(seed=23, options=_options(workers))
        table = _fig7_workload(db, n_suppliers=8)
        result = ops.expected_avg(
            table, "shortfall", engine=db.engine, options=db.options
        )
        stats = db.sample_bank.stats()
        db.close()
        return result.value, stats

    serial_value, serial_stats = run(0)
    parallel_value, parallel_stats = run(2)
    assert parallel_value == serial_value
    for name in STRICT_STATS:
        assert parallel_stats[name] == serial_stats[name], name


def test_adaptive_mode_bit_identical():
    """Without fixed n the first round prefetches and later top-ups run
    serially from identical bundle states."""

    def run(workers):
        db = PIPDatabase(
            seed=9,
            options=SamplingOptions(parallel_workers=workers, epsilon=0.05, delta=0.05),
        )
        table = _fig7_workload(db, n_suppliers=6)
        result = ops.expected_sum(
            table, "shortfall", engine=db.engine, options=db.options
        )
        stats = db.sample_bank.stats()
        db.close()
        return result.value, stats

    serial_value, serial_stats = run(0)
    parallel_value, parallel_stats = run(2)
    assert parallel_value == serial_value
    for name in STRICT_STATS:
        assert parallel_stats[name] == serial_stats[name], name


@pytest.mark.parametrize("escalate", [True, False], ids=["metropolis", "rejection"])
def test_expensive_groups_bit_identical(escalate):
    """Groups that cost well above a hand-off.  At ≈ 2 % acceptance 2000
    samples need more candidates than the sampler's 65 536-draw warm-up,
    so with the threshold at 0.95 every group escalates to a Metropolis
    chain — in a worker under the pool, and to the same chain."""
    strategy = dict(metropolis_threshold=0.95, metropolis_thin=1,
                    metropolis_burn_in=50) if escalate else {}

    def run(workers):
        db = PIPDatabase(seed=3, options=_options(workers, n_samples=2000, **strategy))
        table = CTable([("partkey", "int"), ("margin", "any")], name="parts")
        for partkey in range(4):
            a = db.create_variable("normal", (0.0, 1.0))
            b = db.create_variable("normal", (0.0, 1.0))
            table.add_row(
                (partkey, var(a) - var(b)), conjunction_of(var(a) > var(b) + 2.9)
            )
        observed = []
        for _ in ("cold", "warm"):
            grouped = ops.grouped_aggregate(
                table, ["partkey"], "expected_sum", "margin",
                engine=db.engine, options=db.options,
            )
            stats = db.sample_bank.stats()
            observed.append((
                [(row.values[0], float(row.values[1]).hex()) for row in grouped.rows],
                sorted(
                    (key, bundle.used_metropolis, bundle.n, bundle.attempts, bundle.accepted,
                     bundle.fills, bundle.probe)
                    for key, bundle in _bundles(db)
                ),
                [stats[name] for name in ("hits", "misses", "samples_drawn")],
            ))
        assert (db.scheduler.pool is not None) == bool(workers)
        db.close()
        return observed

    serial = run(0)
    assert run(2) == serial
    (_, cold_bundles, cold_stats), (_, _, warm_stats) = serial
    assert [bundle[1] for bundle in cold_bundles] == [escalate] * 4
    assert all(accepted < 0.05 * attempts for *_, attempts, accepted, _f, _p in cold_bundles)
    assert cold_stats == [0, 4, 8000] and warm_stats == [4, 4, 8000]


def test_merged_bundles_keep_split_counters():
    """A pooled fill and a pooled probability floor store the bundle a
    serial miss builds: the fills' draw counters and the probe's trials,
    each apart, and the answers that read them."""

    def run(workers):
        db = PIPDatabase(seed=11, options=_options(workers))
        answers = []
        # The pool fills the first table's bundles and floors the second's.
        for first in ("sum", "conf"):
            table = _fig7_workload(db, n_suppliers=6)
            for step in (first, {"sum": "conf", "conf": "sum"}[first]):
                if step == "sum":
                    total = ops.expected_sum(
                        table, "shortfall", engine=db.engine, options=db.options)
                    answers.append(float(total.value).hex())
                else:
                    confs = ops.confidence(table, engine=db.engine, options=db.options)
                    answers.append([float(row.values[-1]).hex() for row in confs.rows])
        bundles = sorted(
            (key, bundle.n, bundle.fills, bundle.probe, bundle.method)
            for key, bundle in _bundles(db)
        )
        stats = [db.sample_bank.stats()[name] for name in STRICT_STATS]
        db.close()
        return answers, bundles, stats

    serial = run(0)
    assert run(2) == serial
    _answers, bundles, _stats = serial
    assert len(bundles) == 12
    assert all(fills and probe[0] >= 4096 for _k, _n, fills, probe, _m in bundles)


def test_mixed_deterministic_and_symbolic_rows_bit_identical():
    """Plain-number rows under TRUE sit between the symbolic ones: the
    aggregate loops answer them without the engine, so only the symbolic
    rows' groups become jobs — and rows and bank stats are the serial
    run's whether or not anyone prefetched."""
    n_symbolic = 8

    def run(workers):
        db = PIPDatabase(seed=29, options=_options(workers))
        symbolic = _fig7_workload(db, n_suppliers=n_symbolic)
        mixed = CTable(symbolic.schema, name="mixed")
        for i, row in enumerate(symbolic.rows):
            mixed.add_row((i % 3, 1.5 * i - 4))  # exact int and float cells
            mixed.add_row((i % 3,) + row.values[1:], row.condition)
        db.register("mixed", mixed)
        dispatched = []
        prefetch = db.scheduler.prefetch

        def recording_prefetch(jobs, options):
            dispatched.append([job.key for job in jobs])
            return prefetch(jobs, options)

        db.scheduler.prefetch = recording_prefetch
        observed = []
        for _ in ("cold", "warm"):
            for aggregate in ("expected_sum", "expected_avg", "expected_count"):
                grouped = ops.grouped_aggregate(
                    mixed, ["suppkey"], aggregate, "shortfall",
                    engine=db.engine, options=db.options,
                )
                observed.append(
                    [(row.values[0], float(row.values[1]).hex()) for row in grouped.rows]
                )
            result = db.sql(
                "SELECT expected_sum(shortfall) AS s, expected_count(*) AS n FROM mixed"
            )
            observed.append([float(cell).hex() for cell in result.rows()[0]])
        stats = db.sample_bank.stats()
        db.close()
        return observed, stats, dispatched

    serial, serial_stats, none_dispatched = run(0)
    parallel, parallel_stats, dispatched = run(2)
    assert parallel == serial
    for name in STRICT_STATS:
        assert parallel_stats[name] == serial_stats[name], name
    assert none_dispatched == []
    # One bundle per symbolic row, each dispatched once (the first, cold
    # statement); no batch ever holds more than the symbolic rows' groups.
    assert dispatched and all(len(batch) <= n_symbolic for batch in dispatched)
    assert len({key for batch in dispatched for key in batch}) == n_symbolic
    assert serial_stats["entries"] == n_symbolic


# ---------------------------------------------------------------------------
# One road: fluent terminals and SQL statements run the same loops
# ---------------------------------------------------------------------------


def _grouped_copy(db, build, name="w"):
    """``build``'s rows under three repeating group keys, registered."""
    symbolic = build(db, 12)
    table = CTable([("k", "int"), ("v", "any")], name=name)
    for i, row in enumerate(symbolic.rows):
        table.add_row((i % 3, row.values[1]), row.condition)
    db.register(name, table)
    return table


def _cells(table):
    return [
        tuple(float(v).hex() if isinstance(v, float) else repr(v) for v in row.values)
        + (repr(row.condition),)
        for row in table.rows
    ]


_ROW_TERMINALS = [
    ("conf", lambda q: q.conf(), "SELECT *, conf() AS conf FROM w"),
    ("aconf", lambda q: q.aconf(), "SELECT *, aconf() AS aconf FROM w"),
    (
        "expectation",
        lambda q: q.expectation("v"),
        "SELECT *, expectation(v) AS expectation FROM w",
    ),
    (
        "expectation+conf",
        lambda q: q.expectation("v", with_confidence=True),
        "SELECT *, expectation(v) AS expectation, conf() AS conf FROM w",
    ),
]
_AGGREGATE_NAMES = [
    "expected_sum", "expected_count", "expected_avg", "expected_max", "expected_min",
]


def _terminals():
    for name, fluent, sql in _ROW_TERMINALS:
        yield name, fluent, sql
    for name in _AGGREGATE_NAMES:
        args = () if name == "expected_count" else ("v",)
        yield (
            name,
            lambda q, name=name, args=args: getattr(q, name)(*args),
            "SELECT %s(%s) AS x FROM w" % (name, "v" if args else "*"),
        )
        yield (
            name + "-grouped",
            lambda q, name=name, args=args: getattr(q.group_by("k"), name)(*args),
            "SELECT k, %s(%s) AS x FROM w GROUP BY k" % (name, "v" if args else "*"),
        )


@pytest.mark.parametrize(
    "terminal,build",
    [
        pytest.param(terminal, build, id="%s-%s" % (terminal[0], shape))
        for terminal in _terminals()
        for shape, build in (("fig6", _fig6_workload), ("fig7", _fig7_workload))
        # One engine call with want_probability reads P off the mean's
        # rejection bookkeeping where SQL's separate conf() drives the
        # trial count to its floor: the same cell only where P is exact.
        if (terminal[0], shape) != ("expectation+conf", "fig7")
    ],
)
def test_fluent_terminal_is_the_sql_statement(terminal, build):
    """Every terminal, through the builder and through SQL, serial and
    with two workers: the same cells and the same bank counters."""
    _name, fluent, sql = terminal

    def run(workers, use_sql):
        db = PIPDatabase(seed=31, options=_options(workers))
        _grouped_copy(db, build)
        out = db.sql(sql).to_ctable() if use_sql else fluent(db.query("w"))
        if isinstance(out, ops.AggregateResult):  # an ungrouped fluent aggregate
            cells = [(float(out.value).hex(), "TRUE")]
        else:
            cells = _cells(out)
        stats = db.sample_bank.stats()
        db.close()
        return cells, [stats[key] for key in STRICT_STATS]

    reference = run(0, use_sql=False)
    for workers in (0, 2):
        assert run(workers, use_sql=True) == reference, workers
    assert run(2, use_sql=False) == reference


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT k, expected_avg(v) AS x FROM w GROUP BY k",
        "SELECT k, expectation(v) AS e, conf() AS p FROM w",
    ],
    ids=["grouped-avg", "expectation-conf"],
)
def test_a_statement_is_dry_planned_once(sql):
    """Counted from outside: the tasks a statement hands the pool never
    exceed the engine calls it goes on to make (32 rows: 64 and 64; the
    grouped average used to hand over 128, over nine batches)."""

    def run(workers):
        db = PIPDatabase(seed=37, options=_options(workers, n_samples=200))
        _grouped_copy(db, lambda db, _n: _fig7_workload(db, n_suppliers=32))
        counts = {"dry": 0, "batches": 0, "calls": 0}
        engine = db.engine
        prefetch, expectation, probability = (
            engine.prefetch, engine.expectation, engine.probability
        )

        def counting_prefetch(tasks, options=None):
            tasks = list(tasks)
            counts["dry"] += len(tasks)
            counts["batches"] += 1
            return prefetch(tasks, options=options)

        def counting_expectation(*args, **kwargs):
            counts["calls"] += 1
            return expectation(*args, **kwargs)

        def counting_probability(*args, **kwargs):
            counts["calls"] += 1
            return probability(*args, **kwargs)

        engine.prefetch = counting_prefetch
        engine.expectation = counting_expectation
        engine.probability = counting_probability
        rows = db.sql(sql).rows()
        stats = db.sample_bank.stats()
        db.close()
        return rows, [stats[key] for key in STRICT_STATS], counts

    serial_rows, serial_stats, serial_counts = run(0)
    rows, stats, counts = run(2)
    assert rows == serial_rows and stats == serial_stats
    assert serial_counts == {"dry": 0, "batches": 0, "calls": 64}
    assert counts["calls"] == 64 and counts["batches"] == 1
    assert 0 < counts["dry"] <= counts["calls"]


# ---------------------------------------------------------------------------
# Plumbing units
# ---------------------------------------------------------------------------


def test_resolve_workers(monkeypatch):
    assert resolve_workers(0) == 0
    assert resolve_workers(None) == 0
    assert resolve_workers(-3) == 0
    assert resolve_workers(4) == 4
    # The caller only waits while workers run, so "auto" is every core —
    # except that one core stays serial.
    for cores, expected in ((None, 0), (1, 0), (2, 2), (8, 8)):
        monkeypatch.setattr("os.cpu_count", lambda cores=cores: cores)
        assert resolve_workers("auto") == expected


def test_resolve_chunk_size():
    assert resolve_chunk_size(n_jobs=100, n_workers=4) == 7  # ceil(100/16)
    assert resolve_chunk_size(n_jobs=3, n_workers=4) == 1
    assert resolve_chunk_size(n_jobs=48, n_workers=2) == 6


def test_group_job_round_trips_through_pickle_and_runs():
    """A job survives pickling (the process-pool transport) and its worker
    replays the bank's deterministic first-touch."""
    from repro.constraints.consistency import check_consistency
    from repro.constraints.independence import groups_for_condition

    options = SamplingOptions(n_samples=64)
    db = PIPDatabase(seed=3, options=options)
    x = db.create_variable("normal", (0.0, 1.0))
    y = db.create_variable("exponential", (0.5,))
    condition = Conjunction([var(x) > var(y)])
    consistency = check_consistency(condition)
    (group,) = groups_for_condition(condition)
    job = db.sample_bank.plan_group_job(
        group, condition, consistency, options, fill_n=64
    )
    assert job is not None
    assert job.fill_n == 64

    clone = pickle.loads(pickle.dumps(job))
    bundle_a, drawn_a = run_group_job(job)
    bundle_b, drawn_b = run_group_job(clone)
    assert bundle_a.n == bundle_b.n == drawn_a == drawn_b == 256
    assert bundle_a.fills == bundle_b.fills
    for key in bundle_a.arrays:
        assert (bundle_a.arrays[key] == bundle_b.arrays[key]).all()
    # The serial first touch draws the same bundle from the same stream.
    source = db.sample_bank.source(group, condition, consistency, group.predicate, options)
    source.sample(64)
    (serial,) = [bundle for _key, bundle in _bundles(db)]
    assert serial.key == bundle_a.key and serial.fills == bundle_a.fills
    for key in bundle_a.arrays:
        assert (serial.arrays[key] == bundle_a.arrays[key]).all()
    db.close()


def test_prefetch_noop_without_parallel_workers():
    """Serial options must never touch the scheduler's pool."""
    db = PIPDatabase(seed=1, options=SamplingOptions(n_samples=64))
    table = _fig7_workload(db, n_suppliers=3)
    ops.expected_sum(table, "shortfall", engine=db.engine, options=db.options)
    assert db.scheduler.pool is None
    db.close()


def test_capacity_pressure_never_oversamples():
    """A statement with more groups than the LRU holds: prefetch caps at
    what can survive until consumption, so total sampling (and eviction
    traffic) matches serial instead of doubling."""

    def run(workers):
        db = PIPDatabase(
            seed=7,
            options=SamplingOptions(
                n_samples=512, bank_capacity=4, parallel_workers=workers
            ),
        )
        table = _fig7_workload(db, n_suppliers=12)
        grouped = ops.grouped_aggregate(
            table, ["suppkey"], "expected_sum", "shortfall",
            engine=db.engine, options=db.options,
        )
        rows = [row.values for row in grouped.rows]
        stats = db.sample_bank.stats()
        db.close()
        return rows, stats

    serial_rows, serial_stats = run(0)
    parallel_rows, parallel_stats = run(2)
    assert parallel_rows == serial_rows
    assert parallel_stats["samples_drawn"] == serial_stats["samples_drawn"]
    assert parallel_stats["evictions"] == serial_stats["evictions"]


def test_distribution_registered_after_pool_fork():
    """Forked workers snapshot the distribution registry; registering a
    class after the pool starts must transparently re-fork, not crash."""
    from repro.distributions.base import Distribution, register_distribution

    class _ForkProbe(Distribution):
        name = "forkprobe"

        def validate_params(self, params):
            (scale,) = params
            return (float(scale),)

        def generate_batch(self, params, rng, size):
            return rng.rayleigh(params[0], size)

    def run(workers, warm_pool):
        db = PIPDatabase(seed=3, options=_options(workers, n_samples=128))
        if warm_pool:
            # Start (fork) the pool before the class exists in the registry.
            warm = _fig7_workload(db, n_suppliers=2)
            ops.expected_sum(warm, "shortfall", engine=db.engine, options=db.options)
        register_distribution(_ForkProbe, replace=True)
        table = CTable([("k", "int"), ("v", "any")], name="probe")
        for i in range(4):
            a = db.create_variable("forkprobe", (1.0,))
            b = db.create_variable("forkprobe", (2.0,))
            table.add_row((i, var(a) * var(b)), conjunction_of(var(a) > var(b)))
        result = ops.grouped_aggregate(
            table, ["k"], "expected_sum", "v", engine=db.engine, options=db.options
        )
        rows = [row.values for row in result.rows]
        db.close()
        return rows

    parallel_rows = run(2, warm_pool=True)
    serial_rows = run(0, warm_pool=False)
    # Re-align vids: serial run has no warm-up variables, rebuild with one.
    serial_rows_warmed = run(0, warm_pool=True)
    assert parallel_rows == serial_rows_warmed
    assert len(parallel_rows) == 4 and parallel_rows != serial_rows


def test_invalidation_after_parallel_prefetch():
    """Mutation hooks drop prefetched bundles like any others."""
    db = PIPDatabase(seed=2, options=_options(2))
    table = _fig7_workload(db, n_suppliers=4)
    ops.expected_sum(table, "shortfall", engine=db.engine, options=db.options)
    before = db.sample_bank.stats()["entries"]
    assert before > 0
    removed = db.sample_bank.invalidate_variables(table.variables())
    assert removed == before
    assert db.sample_bank.stats()["entries"] == 0
    db.close()
