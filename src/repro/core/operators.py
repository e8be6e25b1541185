"""Row-level and aggregate sampling operators (Sections IV-B/IV-C, V-C).

These are the "special operators defined within PIP [that] compute
expectations and moments of the uncertain data" at the end of a query:

* Row-level (per-row sampling semantics): ``conf``, ``expectation`` — each
  row is integrated independently within its own context.
* Aggregate (per-table sampling semantics): ``expected_sum``,
  ``expected_count``, ``expected_avg``, ``expected_max``, ``expected_min``,
  plus the ``*_hist`` variants returning raw sample arrays.

``expected_sum`` exploits linearity of expectation: per-row conditional
means weighted by row confidences, summed.  ``expected_max`` implements
the sorted-scan algorithm of Example 4.4 with its early-exit bound, and
falls back to naive world-parallel evaluation when rows are statistically
dependent.
"""

import math

import numpy as np

from repro.ctables.algebra import partition
from repro.ctables.table import CTable, CTRow
from repro.sampling.confidence import aconf as _aconf
from repro.sampling.confidence import conf as _conf
from repro.sampling.expectation import ExpectationEngine
from repro.sampling.worldgen import WorldSampler
from repro.symbolic.conditions import Conjunction, TRUE, conjoin
from repro.symbolic.expression import ColumnTerm, Expression, as_expression, col
from repro.util.errors import PIPError, PlanError, SchemaError


def _resolve_expr(table, target):
    """Interpret ``target`` as an expression over the table's columns."""
    if isinstance(target, str):
        return col(target)
    return as_expression(target)


def _bound(table, row, expr):
    return expr.bind_columns(table.row_mapping(row))


# ---------------------------------------------------------------------------
# Deterministic rows
# ---------------------------------------------------------------------------
#
# A row whose condition is TRUE and whose target is a bare column holding a
# plain number needs no engine: E[h|φ] is the cell, P[φ] is exactly 1, both
# exact, no samples — what ``engine.expectation`` / ``conf`` return for it,
# term for term (tests/test_operators.py holds the loops to that).  The
# aggregate loops below answer such a row in place; every other row — bool,
# NumPy scalar or symbolic cell, symbolic condition, computed target, a
# name that does not resolve — is bound and handed to the engine.

#: Exact cell types of the short cut (a bool or NumPy scalar is the engine's).
_NUMBERS = (int, float)

_NOT_A_NUMBER = (ValueError, TypeError, ZeroDivisionError, OverflowError)


def _plain_index(table, expr):
    """Position of the column a bare reference names, resolved as
    ``ColumnTerm.bind_columns`` resolves it, or ``None``: a computed
    target, or a name the engine path will raise for when it binds it."""
    if isinstance(expr, ColumnTerm):
        try:
            return table.schema.index_of(expr.name)
        except SchemaError:
            pass
    return None


def _constant(kind, target, term):
    """``(value, float(value))`` of a constant aggregate term: a cell, or
    the constant a bound target folds to.  The float is what the term
    contributes; a target without one is the statement's mistake, and the
    one place that converts it says so with a coded error."""
    value = term
    try:
        if isinstance(term, Expression):
            value = term.const_value()
        return value, float(value)
    except _NOT_A_NUMBER as exc:
        raise PlanError(
            "%s(%s): %.40r has no float value (%s: %s)"
            % (kind, target, value, type(exc).__name__, exc)
        ) from exc


# ---------------------------------------------------------------------------
# Parallel prefetch plumbing
# ---------------------------------------------------------------------------
#
# Every operator below is a per-row loop over independent sampling work —
# exactly the shape the parallel executor fans out.  Before looping, each
# operator (and the plan executor, for whole statements) hands the batch
# of (expression, condition) pairs to ExpectationEngine.prefetch, which
# materialises the missing sample-bank bundles across the worker pool.
# The loop then runs serially against a warm bank; results are
# bit-identical to fully serial execution.  All helpers are no-ops unless
# the options enable parallel workers.


def _prefetch_rows(table, expr, engine, options, want_probability=False):
    """Prefetch one operator's per-row sampling (``expr`` may be None for
    probability-only operators such as ``conf``)."""
    options = options or engine.options
    if not engine.prefetch_enabled(options):
        return
    if expr is None:
        tasks = ((None, row.condition, False) for row in table.rows)
    else:
        tasks = (
            (_bound(table, row, expr), row.condition, want_probability)
            for row in table.rows
        )
    engine.prefetch(tasks, options=options)


def prefetch_aggregate_tasks(partitions, specs, engine, options):
    """Prefetch a whole statement's aggregate sampling in one batch.

    ``partitions`` is the list of (sub-)tables the aggregate loop will
    visit in order; ``specs`` the ``(kind, expr)`` pairs evaluated per
    partition.  Tasks are emitted in the exact order the serial loops
    touch them so first-wins job dedup reproduces serial behaviour.
    Kinds whose sampling bypasses the bank (``*_hist``, the world-parallel
    fallbacks) or whose early exits make prefetch speculative
    (``expected_max``/``min``) are skipped.
    """
    options = options or engine.options
    if not engine.prefetch_enabled(options):
        return
    tasks = []
    for sub_table in partitions:
        for kind, expr in specs:
            if kind in ("expected_sum", "expected_avg"):
                bound_expr = _resolve_expr(sub_table, expr)
                tasks.extend(
                    (_bound(sub_table, row, bound_expr), row.condition, True)
                    for row in sub_table.rows
                )
            if kind in ("expected_count", "expected_avg"):
                tasks.extend((None, row.condition, False) for row in sub_table.rows)
    if tasks:
        engine.prefetch(tasks, options=options)


# ---------------------------------------------------------------------------
# Row-level operators
# ---------------------------------------------------------------------------


def confidence(table, engine=None, options=None, column_name="conf"):
    """Append each row's confidence and strip conditions (the ``conf()``
    operator is probability-removing: the result table is deterministic)."""
    engine = engine or ExpectationEngine()
    _prefetch_rows(table, None, engine, options)
    schema = list(table.schema.columns) + [(column_name, "float")]
    out = CTable(schema, name=table.name)
    for row in table.rows:
        result = _conf(row.condition, engine=engine, options=options)
        out.rows.append(CTRow(row.values + (result.probability,)))
    return out


def aconf_distinct(table, engine=None, options=None, column_name="aconf"):
    """``aconf``: joint probability of all duplicate rows (Section V-C).

    Applies ``distinct`` (coalescing duplicates into DNF conditions), then
    integrates each DNF exactly or by sampling.
    """
    from repro.ctables.algebra import distinct

    engine = engine or ExpectationEngine()
    coalesced = distinct(table)
    schema = list(coalesced.schema.columns) + [(column_name, "float")]
    out = CTable(schema, name=table.name)
    for row in coalesced.rows:
        result = _aconf(row.condition, engine=engine, options=options)
        out.rows.append(CTRow(row.values + (result.probability,)))
    return out


def expectation_column(
    table,
    target,
    engine=None,
    options=None,
    column_name="expectation",
    with_confidence=False,
):
    """Per-row conditional expectation of ``target`` (Section IV-B).

    Each row's expectation is taken only over the worlds satisfying its
    local condition; unsatisfiable contexts yield NaN, as the paper
    specifies.  With ``with_confidence``, the row's probability is emitted
    too and the result is fully deterministic.
    """
    engine = engine or ExpectationEngine()
    expr = _resolve_expr(table, target)
    _prefetch_rows(table, expr, engine, options, want_probability=with_confidence)
    extra = [(column_name, "float")]
    if with_confidence:
        extra.append(("conf", "float"))
    schema = list(table.schema.columns) + extra
    out = CTable(schema, name=table.name)
    for row in table.rows:
        bound = _bound(table, row, expr)
        result = engine.expectation(
            bound, row.condition, want_probability=with_confidence, options=options
        )
        extras = (result.mean,)
        if with_confidence:
            extras += (result.probability,)
        out.rows.append(CTRow(row.values + extras, row.condition))
    return out


# ---------------------------------------------------------------------------
# Aggregates (per-table semantics)
# ---------------------------------------------------------------------------


class AggregateResult:
    """Scalar aggregate outcome with bookkeeping for tests/benchmarks."""

    __slots__ = ("value", "n_rows", "n_samples", "exact", "method")

    def __init__(self, value, n_rows, n_samples, exact, method):
        self.value = value
        self.n_rows = n_rows
        self.n_samples = n_samples
        self.exact = exact
        self.method = method

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        return "AggregateResult(%.6g, rows=%d, n=%d, %s)" % (
            self.value,
            self.n_rows,
            self.n_samples,
            self.method,
        )


def expected_sum(table, target, engine=None, options=None, scale_by_rows=False):
    """``expected_sum``: E[Σ h(t)] = Σ E[h|φ]·P[φ] (Section II-C).

    ``scale_by_rows`` applies the paper's law-of-large-numbers observation
    (Section IV-C): when summing N row estimates the per-row sample count
    may shrink by √N while keeping the aggregate's variance.
    """
    engine = engine or ExpectationEngine()
    expr = _resolve_expr(table, target)
    row_options = options or engine.options
    if scale_by_rows and row_options.n_samples and len(table.rows) > 1:
        shrunk = max(
            row_options.min_samples,
            int(math.ceil(row_options.n_samples / math.sqrt(len(table.rows)))),
        )
        row_options = row_options.replace(n_samples=shrunk)
    _prefetch_rows(table, expr, engine, row_options, want_probability=True)
    index = _plain_index(table, expr)
    total = 0.0
    n_samples = 0
    exact = True
    for row in table.rows:
        cell = row.values[index] if index is not None else None
        if type(cell) in _NUMBERS and row.condition.is_true:
            # float(cell); only an int can fail to convert.
            mean = cell if type(cell) is float else _constant("expected_sum", expr, cell)[1]
            if mean == mean:  # a NaN mean is skipped, as below
                total += mean
            continue
        bound = _bound(table, row, expr)
        try:
            result = engine.expectation(
                bound, row.condition, want_probability=True, options=row_options
            )
        except _NOT_A_NUMBER:
            if bound.is_constant:
                _constant("expected_sum", expr, bound)  # PlanError, if that was it
            raise
        n_samples += result.n_samples
        if result.probability == 0.0 or result.is_nan:
            continue
        exact = exact and result.exact_mean and result.exact_probability
        total += result.mean * result.probability
    return AggregateResult(total, len(table.rows), n_samples, exact, "linearity")


def expected_count(table, engine=None, options=None):
    """``expected_count``: Σ P[φ] — the constant-1 case of expected_sum."""
    engine = engine or ExpectationEngine()
    _prefetch_rows(table, None, engine, options)
    total = 0.0
    exact = True
    for row in table.rows:
        if row.condition.is_true:
            total += 1.0
            continue
        result = _conf(row.condition, engine=engine, options=options)
        total += result.probability
        exact = exact and result.exact
    return AggregateResult(total, len(table.rows), 0, exact, "conf-sum")


def expected_avg(table, target, engine=None, options=None):
    """``expected_avg``: E[Σh]/E[count].

    The exact expectation of a ratio is not linear; this is the standard
    ratio-of-expectations estimator (consistent as either grows), which is
    also what the Sample-First baseline effectively reports.
    """
    numerator = expected_sum(table, target, engine=engine, options=options)
    denominator = expected_count(table, engine=engine, options=options)
    if denominator.value == 0:
        value = math.nan
    else:
        value = numerator.value / denominator.value
    return AggregateResult(
        value,
        numerator.n_rows,
        numerator.n_samples,
        numerator.exact and denominator.exact,
        "ratio",
    )


def _rows_independent(table):
    """Whether row conditions live on pairwise-disjoint variable families."""
    seen = set()
    for row in table.rows:
        if row.condition.is_true:
            continue
        families = {v.vid for v in row.condition.variables()}
        if families & seen:
            return False
        seen |= families
    return True


def expected_max(
    table,
    target,
    engine=None,
    options=None,
    precision=1e-4,
    empty_value=0.0,
    n_worlds=1000,
):
    """``expected_max`` via the sorted-scan algorithm of Example 4.4.

    Requirements for the fast path: deterministic (constant) targets and
    rows whose conditions are independent.  Rows are scanned in descending
    value order; row i is the maximum exactly when it is present and rows
    1..i-1 are absent, so its contribution is ``vᵢ·pᵢ·Π_{j<i}(1-pⱼ)``.
    The scan stops early once the probability that *any* later row matters
    — ``Π_{j≤i}(1-pⱼ)`` — times the largest remaining magnitude drops
    below ``precision`` (the paper's ``1-(1-p₁)(1-p₂)…`` bound).

    Uncertain targets or dependent rows fall back to naive world-parallel
    evaluation over ``n_worlds`` sampled worlds (Section IV-C's worst-case
    approach).  Worlds where no row is present contribute ``empty_value``.
    """
    return _sorted_scan(
        "expected_max", table, target, engine, options, precision, empty_value, n_worlds
    )


def expected_min(
    table,
    target,
    engine=None,
    options=None,
    precision=1e-4,
    empty_value=0.0,
    n_worlds=1000,
):
    """Mirror of :func:`expected_max` (ascending sorted scan): the
    maximum of ``0 - h``, negated."""
    negated = _sorted_scan(
        "expected_min", table, target, engine, options, precision, -empty_value, n_worlds
    )
    return AggregateResult(
        -negated.value, negated.n_rows, negated.n_samples, negated.exact, negated.method
    )


def _sorted_scan(kind, table, target, engine, options, precision, empty_value, n_worlds):
    """The scan :func:`expected_max` documents, over ``h`` — or, for its
    mirror image, over ``0 - h``."""
    engine = engine or ExpectationEngine()
    shown = expr = _resolve_expr(table, target)
    index = _plain_index(table, expr)
    mirrored = kind == "expected_min"
    if mirrored:
        expr = as_expression(0) - expr
    if not table.rows:
        return AggregateResult(empty_value, 0, 0, True, "empty")
    # What the target binds to, row by row: the number itself for a
    # deterministic row (``0 - v`` is the fold binding performs on the
    # mirrored target), an expression for every other.
    terms = []
    all_constant = True
    for row in table.rows:
        cell = row.values[index] if index is not None else None
        if type(cell) in _NUMBERS and row.condition.is_true:
            terms.append(0 - cell if mirrored else cell)
            continue
        bound = _bound(table, row, expr)
        if not bound.is_constant:
            all_constant = False
        terms.append(bound)

    if all_constant and _rows_independent(table):
        # Largest constant first — ordered by the constants themselves,
        # because ints compare exactly where their floats tie.
        keys = [
            term if type(term) in _NUMBERS else _constant(kind, shown, term)[0]
            for term in terms
        ]
        order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
        ordered = [
            key if type(key) is float else _constant(kind, shown, key)[1]
            for key in map(keys.__getitem__, order)
        ]
        total = 0.0
        none_before = 1.0  # probability that no earlier (larger) row exists
        exact = True
        scanned = 0
        for value, row in zip(ordered, map(table.rows.__getitem__, order)):
            bound_magnitude = max(
                (abs(v) for v in ordered[scanned:] + [empty_value]), default=0.0
            )
            if none_before * bound_magnitude < precision:
                break
            probability = 1.0
            if not row.condition.is_true:
                result = _conf(row.condition, engine=engine, options=options)
                exact = exact and result.exact
                probability = result.probability
            total += value * probability * none_before
            none_before *= 1.0 - probability
            scanned += 1
        total += empty_value * none_before
        return AggregateResult(
            total, len(table.rows), 0, exact and scanned == len(ordered), "sorted-scan"
        )

    return _aggregate_by_worlds(
        table,
        [as_expression(term) for term in terms],
        np.fmax,
        -math.inf,
        empty_value,
        engine,
        n_worlds,
        "max",
    )


def _aggregate_by_worlds(
    table, bound_exprs, reducer, identity, empty_value, engine, n_worlds, label
):
    """Naive per-table semantics: evaluate the aggregate in parallel on
    ``n_worlds`` instantiated sample worlds and average (Section IV-C)."""
    variables = set(table.variables())
    sampler = WorldSampler(base_seed=engine.base_seed)
    arrays = sampler.arrays(variables, n_worlds) if variables else {}
    accumulator = np.full(n_worlds, identity)
    any_present = np.zeros(n_worlds, dtype=bool)
    for row, bound in zip(table.rows, bound_exprs):
        mask = np.asarray(row.condition.evaluate_batch(arrays))
        if mask.shape == ():
            mask = np.full(n_worlds, bool(mask))
        if not mask.any():
            continue
        values = np.asarray(bound.evaluate_batch(arrays), dtype=float)
        if values.shape == ():
            values = np.full(n_worlds, float(values))
        accumulator = np.where(mask, reducer(accumulator, values), accumulator)
        any_present |= mask
    results = np.where(any_present, accumulator, empty_value)
    return AggregateResult(
        float(results.mean()), len(table.rows), n_worlds, False, "worlds-" + label
    )


def expected_stddev(table, target, engine=None, n_worlds=1000):
    """``stddev``: standard deviation of the table-wide sum across worlds.

    Section IV-C lists stddev among the aggregate operators; it does not
    obey linearity of expectation, so it takes the naive world-parallel
    route: instantiate sample worlds, compute Σ h(t) per world, report the
    across-world standard deviation.
    """
    engine = engine or ExpectationEngine()
    expr = _resolve_expr(table, target)
    variables = set(table.variables())
    sampler = WorldSampler(base_seed=engine.base_seed)
    arrays = sampler.arrays(variables, n_worlds) if variables else {}
    totals = np.zeros(n_worlds)
    for row in table.rows:
        bound = _bound(table, row, expr)
        mask = np.asarray(row.condition.evaluate_batch(arrays))
        if mask.shape == ():
            mask = np.full(n_worlds, bool(mask))
        values = np.asarray(bound.evaluate_batch(arrays), dtype=float)
        if values.shape == ():
            values = np.full(n_worlds, float(values))
        totals += np.where(mask, values, 0.0)
    return AggregateResult(
        float(totals.std()), len(table.rows), n_worlds, False, "worlds-stddev"
    )


def expected_sum_hist(table, target, n, engine=None, seed=None, options=None):
    """``expected_sum_hist``: per-sample sums across the table.

    Returns an ndarray of ``n`` sampled values of Σ h(t)·χφ — row samples
    are drawn independently per row (per-row semantics), matching the
    operator's use for visualisation rather than joint-world analysis.
    """
    engine = engine or ExpectationEngine()
    expr = _resolve_expr(table, target)
    # Per-row independence is the operator's contract, so rows must not
    # share cached group draws: bypass the sample bank for this path.
    row_options = (options or engine.options).replace(use_sample_bank=False)
    totals = np.zeros(n)
    for i, row in enumerate(table.rows):
        bound = _bound(table, row, expr)
        result = _conf(row.condition, engine=engine, options=options)
        if result.probability == 0.0:
            continue
        samples = engine.sample_expression(
            bound,
            row.condition,
            n,
            seed=None if seed is None else seed + i,
            options=row_options,
        )
        if samples is None:
            continue
        present = (
            np.random.default_rng(engine.base_seed * 31 + i).random(n)
            < result.probability
        )
        totals += np.where(present, samples, 0.0)
    return totals


def expected_max_hist(table, target, n, engine=None, seed=None, options=None):
    """``expected_max_hist``: sampled values of the table-wide max."""
    engine = engine or ExpectationEngine()
    expr = _resolve_expr(table, target)
    variables = set(table.variables())
    sampler = WorldSampler(base_seed=engine.base_seed if seed is None else seed)
    arrays = sampler.arrays(variables, n) if variables else {}
    best = np.full(n, -math.inf)
    any_present = np.zeros(n, dtype=bool)
    for row in table.rows:
        bound = _bound(table, row, expr)
        mask = np.asarray(row.condition.evaluate_batch(arrays))
        if mask.shape == ():
            mask = np.full(n, bool(mask))
        values = np.asarray(bound.evaluate_batch(arrays), dtype=float)
        if values.shape == ():
            values = np.full(n, float(values))
        best = np.where(mask, np.fmax(best, values), best)
        any_present |= mask
    return np.where(any_present, best, 0.0)


# ---------------------------------------------------------------------------
# Grouped aggregates
# ---------------------------------------------------------------------------

_GROUPED = {
    "expected_sum": expected_sum,
    "expected_count": lambda table, target, **kw: expected_count(table, **kw),
    "expected_avg": expected_avg,
    "expected_max": expected_max,
    "expected_min": expected_min,
    "expected_stddev": lambda table, target, engine=None, options=None, **kw: (
        expected_stddev(table, target, engine=engine, **kw)
    ),
}


def grouped_aggregate(table, group_columns, aggregate, target, engine=None, options=None, **kwargs):
    """GROUP BY on deterministic columns + a per-group aggregate.

    "Group-by on nonprobabilistic columns poses no difficulty in the
    c-tables framework: the summation simply proceeds within groups"
    (Section II-C) — and PIP creates as many samples as each group needs,
    which is the crux of the Figure 7(a) accuracy win.
    """
    if aggregate not in _GROUPED:
        raise PIPError(
            "unknown grouped aggregate %r (one of %s)"
            % (aggregate, ", ".join(sorted(_GROUPED)))
        )
    fn = _GROUPED[aggregate]
    schema = [
        table.schema.columns[table.schema.index_of(c)] for c in group_columns
    ] + [(aggregate, "float")]
    out = CTable(schema, name=table.name)
    parts = list(partition(table, group_columns))
    # Statement-level fan-out: one group-by query's partitions are all
    # independent sampling units, so their bundles materialise across the
    # worker pool in one batch rather than partition by partition.  The
    # per-partition prefetch inside ``fn`` then finds everything warm.
    # scale_by_rows resizes n_samples per partition, which the batch
    # planner cannot mirror — those calls prefetch per partition instead.
    if engine is not None and not kwargs.get("scale_by_rows"):
        prefetch_aggregate_tasks(
            [sub for _key, sub in parts], [(aggregate, target)], engine, options
        )
    for key, sub_table in parts:
        result = fn(sub_table, target, engine=engine, options=options, **kwargs)
        out.rows.append(CTRow(key + (result.value,)))
    return out
