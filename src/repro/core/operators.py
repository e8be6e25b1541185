"""Row-level and aggregate sampling operators (Sections IV-B/IV-C, V-C).

These are the "special operators defined within PIP [that] compute
expectations and moments of the uncertain data" at the end of a query:

* Row-level (per-row sampling semantics): ``conf``, ``expectation`` — each
  row is integrated independently within its own context.
* Aggregate (per-table sampling semantics): ``expected_sum``,
  ``expected_count``, ``expected_avg``, ``expected_max``, ``expected_min``,
  ``expected_stddev``, plus the ``*_hist`` variants returning raw sample
  arrays.

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
from repro.symbolic.conditions import TRUE
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
# The seam to the worker pool
# ---------------------------------------------------------------------------
#
# Every operator below is a per-row loop over independent sampling work —
# exactly the shape the parallel executor fans out.  Before looping, each
# operator — or, for a whole statement, :func:`row_results` /
# :func:`aggregate_results` — hands its batch of (expression, condition)
# pairs to ExpectationEngine.prefetch, which materialises the missing
# sample-bank bundles across the worker pool.  The loop then runs serially
# against a warm bank; results are bit-identical to fully serial execution.


def _prefetch(engine, options, passes):
    """Hand a batch of per-row sampling to the pool; returns the options
    for the loops it covers.

    ``passes`` yields ``(table, expr, want_probability)`` — one loop over
    one table each, ``expr`` ``None`` for a probability-only loop
    (``conf``) — in the order the serial loops will run, so first-wins job
    dedup reproduces serial behaviour.  Without parallel workers a no-op
    that hands ``options`` back; after a hand-off, the same options with
    the workers off, so an operator nested in the batch (``expected_avg``'s
    sum and count, each group of a GROUP BY) does not bind and dry-plan its
    rows a second time.
    """
    if not engine.prefetch_enabled(options):
        return options
    options = options or engine.options
    engine.prefetch(
        (
            (
                None if expr is None else _bound(table, row, expr),
                row.condition,
                want_probability,
            )
            for table, expr, want_probability in passes
            for row in table.rows
        ),
        options=options,
    )
    return options.replace(parallel_workers=0)


# ---------------------------------------------------------------------------
# Row-level operators
# ---------------------------------------------------------------------------

#: The row-level operators (per-row sampling semantics), and whether each
#: takes an argument.  With :data:`AGGREGATES` this is the vocabulary of
#: probability-removing operators: the SQL parser and the rewriter's
#: target classification read their name sets from these two tables.
ROW_OPERATORS = {"conf": False, "aconf": False, "expectation": True}


def row_results(table, calls, engine=None, options=None):
    """The per-row loop behind ``conf`` and ``expectation`` (Section IV-B).

    ``calls`` is a sequence of ``(target, want_probability)`` pairs; a
    ``None`` target asks for the row's confidence alone.  Returns, per
    call, a result per row — a ``ConfidenceResult`` for a confidence call,
    else an ``ExpectationResult`` — each row integrated independently
    within its own context, one call after the other.  The fluent builder
    and the plan executor both assemble their output from these.
    """
    engine = engine or ExpectationEngine()
    calls = [
        (None if target is None else _resolve_expr(table, target), want_probability)
        for target, want_probability in calls
    ]
    _prefetch(engine, options, [(table, expr, want) for expr, want in calls])
    return [
        [
            _conf(row.condition, engine=engine, options=options)
            if expr is None
            else engine.expectation(
                _bound(table, row, expr), row.condition,
                want_probability=want_probability, options=options,
            )
            for row in table.rows
        ]
        for expr, want_probability in calls
    ]


def append_columns(table, columns, keep_conditions):
    """``table`` plus float ``columns`` (``(name, values)`` pairs, one
    value per row).  Without ``keep_conditions`` the rows come out under
    TRUE: a confidence column is probability-removing, the result table
    deterministic."""
    schema = list(table.schema.columns) + [(name, "float") for name, _values in columns]
    out = CTable(schema, name=table.name)
    for row, extra in zip(table.rows, zip(*(values for _name, values in columns))):
        condition = row.condition if keep_conditions else TRUE
        out.rows.append(CTRow(row.values + extra, condition))
    return out


def confidence(table, engine=None, options=None, column_name="conf"):
    """Append each row's confidence and strip conditions (the ``conf()``
    operator is probability-removing: the result table is deterministic)."""
    (results,) = row_results(table, [(None, False)], engine, options)
    return append_columns(
        table, [(column_name, [r.probability for r in results])], keep_conditions=False
    )


def aconf_distinct(table, engine=None, options=None, column_name="aconf"):
    """``aconf``: joint probability of all duplicate rows (Section V-C).

    Applies ``distinct`` (coalescing duplicates into DNF conditions), then
    integrates each DNF exactly or by sampling.
    """
    from repro.ctables.algebra import distinct

    engine = engine or ExpectationEngine()
    coalesced = distinct(table)
    probabilities = [
        _aconf(row.condition, engine=engine, options=options).probability
        for row in coalesced.rows
    ]
    return append_columns(
        coalesced, [(column_name, probabilities)], keep_conditions=False
    )


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
    (results,) = row_results(table, [(target, with_confidence)], engine, options)
    columns = [(column_name, [r.mean for r in results])]
    if with_confidence:
        columns.append(("conf", [r.probability for r in results]))
    return append_columns(table, columns, keep_conditions=not with_confidence)


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
    row_options = _prefetch(engine, row_options, [(table, expr, True)])
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
    options = _prefetch(engine, options, [(table, None, False)])
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


def _per_world(node, arrays, n_worlds, dtype):
    """A condition or bound target evaluated on every sampled world (one
    that mentions no variable is the same in all of them)."""
    out = np.asarray(node.evaluate_batch(arrays), dtype=dtype)
    return np.full(n_worlds, out) if out.shape == () else out


def _fold_worlds(table, bound_exprs, reducer, identity, empty_value, seed, n_worlds):
    """Naive per-table semantics (Section IV-C): instantiate ``n_worlds``
    sample worlds and fold each world's present rows with ``reducer``;
    returns the per-world results."""
    variables = set(table.variables())
    sampler = WorldSampler(base_seed=seed)
    arrays = sampler.arrays(variables, n_worlds) if variables else {}
    accumulator = np.full(n_worlds, identity)
    any_present = np.zeros(n_worlds, dtype=bool)
    for row, bound in zip(table.rows, bound_exprs):
        mask = _per_world(row.condition, arrays, n_worlds, bool)
        if not mask.any():
            continue
        values = _per_world(bound, arrays, n_worlds, float)
        accumulator = np.where(mask, reducer(accumulator, values), accumulator)
        any_present |= mask
    return np.where(any_present, accumulator, empty_value)


def _aggregate_by_worlds(
    table, bound_exprs, reducer, identity, empty_value, engine, n_worlds, label
):
    """The aggregate evaluated in parallel on ``n_worlds`` sampled worlds
    and averaged (:func:`_fold_worlds`)."""
    results = _fold_worlds(
        table, bound_exprs, reducer, identity, empty_value, engine.base_seed, n_worlds
    )
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
    bound = [_bound(table, row, expr) for row in table.rows]
    totals = _fold_worlds(table, bound, np.add, 0.0, 0.0, engine.base_seed, n_worlds)
    return AggregateResult(
        float(totals.std()), len(table.rows), n_worlds, False, "worlds-stddev"
    )


def expected_sum_hist(table, target, n=1000, engine=None, seed=None, options=None):
    """``expected_sum_hist``: per-sample sums across the table.

    Returns an ndarray of ``n`` sampled values of Σ h(t)·χφ — each row's
    samples and presence are drawn per row (per-row semantics), matching
    the operator's use for visualisation rather than joint-world analysis.
    A row's samples come from its groups' bundles like any other call's;
    an explicit ``seed`` gives row ``i`` the stream of ``seed + i``.
    """
    engine = engine or ExpectationEngine()
    expr = _resolve_expr(table, target)
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
            options=options,
        )
        if samples is None:
            continue
        present = (
            np.random.default_rng(engine.base_seed * 31 + i).random(n)
            < result.probability
        )
        totals += np.where(present, samples, 0.0)
    return totals


def expected_max_hist(table, target, n=1000, engine=None, seed=None, options=None):
    """``expected_max_hist``: sampled values of the table-wide max."""
    engine = engine or ExpectationEngine()
    expr = _resolve_expr(table, target)
    bound = [_bound(table, row, expr) for row in table.rows]
    seed = engine.base_seed if seed is None else seed
    return _fold_worlds(table, bound, np.fmax, -math.inf, 0.0, seed, n)


# ---------------------------------------------------------------------------
# The aggregate vocabulary and GROUP BY
# ---------------------------------------------------------------------------

_MEAN = (True, True)  # per row: E[target | φ] with P[φ]
_CONF = (False, False)  # per row: P[φ] alone

#: Every per-table aggregate, by its SQL name: the function that computes
#: it over one (sub-)table — called ``fn(table, target, engine=…,
#: options=…, **kwargs)`` — and the per-row engine loops it runs, in
#: order, which is what a statement batches for the pool.  Aggregates
#: that sample per row by their own seeds or per world (``*_hist``, the
#: world-parallel ones) or whose early exit makes a prefetch speculative
#: (``expected_max`` / ``expected_min``) declare none.
AGGREGATES = {
    "expected_sum": (expected_sum, (_MEAN,)),
    "expected_count": (lambda table, target, **kw: expected_count(table, **kw), (_CONF,)),
    "expected_avg": (expected_avg, (_MEAN, _CONF)),
    "expected_max": (expected_max, ()),
    "expected_min": (expected_min, ()),
    "expected_stddev": (
        lambda table, target, engine=None, options=None, **kw: (
            expected_stddev(table, target, engine=engine, **kw)
        ),
        (),
    ),
    "expected_sum_hist": (expected_sum_hist, ()),
    "expected_max_hist": (expected_max_hist, ()),
}


def aggregate_results(table, specs, group_columns=None, engine=None, options=None, **kwargs):
    """Every ``(aggregate, target)`` of ``specs`` over every group of
    ``table``: ``[(key, [result, …]), …]`` in first-seen key order, one
    :class:`AggregateResult` (a sample array for ``*_hist``) per spec.

    ``group_columns`` of ``None`` is the ungrouped statement: one group
    with key ``()``, even over an empty table.  The whole statement —
    every group's and every spec's rows, in the order the loops touch
    them — goes to the worker pool as one batch; :func:`grouped_aggregate`
    and the plan executor's ``Aggregate`` node both run exactly this.
    """
    try:
        calls = [AGGREGATES[kind] + (target,) for kind, target in specs]
    except KeyError as unknown:
        raise PIPError(
            "unknown aggregate %s (one of %s)" % (unknown, ", ".join(sorted(AGGREGATES)))
        ) from None
    parts = [((), table)] if group_columns is None else partition(table, group_columns)
    # scale_by_rows resizes n_samples per partition, which one batch cannot
    # mirror — those calls prefetch per partition instead.
    if engine is not None and not kwargs.get("scale_by_rows"):
        passes = (
            (sub, _resolve_expr(sub, target) if reads_target else None, want)
            for _key, sub in parts
            for _fn, loops, target in calls
            for reads_target, want in loops
        )
        options = _prefetch(engine, options, passes)
    return [
        (
            key,
            [
                fn(sub, target, engine=engine, options=options, **kwargs)
                for fn, _loops, target in calls
            ],
        )
        for key, sub in parts
    ]


def grouped_aggregate(table, group_columns, aggregate, target, engine=None, options=None, **kwargs):
    """GROUP BY on deterministic columns + a per-group aggregate.

    "Group-by on nonprobabilistic columns poses no difficulty in the
    c-tables framework: the summation simply proceeds within groups"
    (Section II-C) — and PIP creates as many samples as each group needs,
    which is the crux of the Figure 7(a) accuracy win.
    """
    groups = aggregate_results(
        table, [(aggregate, target)], group_columns, engine, options, **kwargs
    )
    schema = [
        table.schema.columns[table.schema.index_of(c)] for c in group_columns
    ] + [(aggregate, "float")]
    out = CTable(schema, name=table.name)
    for key, (result,) in groups:
        out.rows.append(CTRow(key + (getattr(result, "value", result),)))
    return out
