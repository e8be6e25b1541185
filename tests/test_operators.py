"""Row-level and aggregate sampling operators (core.operators)."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from repro.core.operators import (
    _aggregate_by_worlds,
    aconf_distinct,
    confidence,
    expectation_column,
    expected_avg,
    expected_count,
    expected_max,
    expected_max_hist,
    expected_min,
    expected_sum,
    expected_sum_hist,
    grouped_aggregate,
)
from repro.ctables import CTable
from repro.ctables.worlds import exact_expected_sum
from repro.sampling import ExpectationEngine, SamplingOptions
from repro.sampling.confidence import conf
from repro.symbolic import VariableFactory, conjunction_of, var
from repro.symbolic.expression import as_expression, col
from repro.util.errors import PIPError, SchemaError


@pytest.fixture
def factory():
    return VariableFactory()


@pytest.fixture
def engine():
    return ExpectationEngine(options=SamplingOptions(n_samples=2000), base_seed=13)


class TestRowOperators:
    def test_confidence_column(self, factory, engine):
        y = factory.create("normal", (0.0, 1.0))
        table = CTable(["v"])
        table.add_row((1,), conjunction_of(var(y) > 1))
        table.add_row((2,))
        result = confidence(table, engine=engine)
        assert result.schema.names == ("v", "conf")
        assert result.rows[0].values[1] == pytest.approx(1 - sps.norm.cdf(1), abs=1e-9)
        assert result.rows[1].values[1] == 1.0
        # Probability-removing: all conditions stripped.
        assert all(row.condition.is_true for row in result.rows)

    def test_expectation_column(self, factory, engine):
        y = factory.create("exponential", (1.0,))
        table = CTable(["v"])
        table.add_row((var(y),), conjunction_of(var(y) > 2))
        result = expectation_column(table, "v", engine=engine, with_confidence=True)
        assert result.schema.names == ("v", "expectation", "conf")
        mean, probability = result.rows[0].values[1], result.rows[0].values[2]
        assert mean == pytest.approx(3.0, rel=0.05)  # memorylessness
        assert probability == pytest.approx(math.exp(-2), abs=1e-9)

    def test_expectation_column_nan_for_impossible(self, factory, engine):
        y = factory.create("normal", (0.0, 1.0))
        table = CTable(["v"])
        table.add_row((var(y),), conjunction_of(var(y) > 2, var(y) < 1))
        result = expectation_column(table, "v", engine=engine)
        assert math.isnan(result.rows[0].values[1])

    def test_aconf_distinct(self, factory, engine):
        y = factory.create("normal", (0.0, 1.0))
        table = CTable(["v"])
        table.add_row((1,), conjunction_of(var(y) > 1))
        table.add_row((1,), conjunction_of(var(y) < -1))
        result = aconf_distinct(table, engine=engine)
        assert len(result) == 1
        assert result.rows[0].values[1] == pytest.approx(
            2 * (1 - sps.norm.cdf(1)), abs=1e-9
        )


class TestExpectedSum:
    def test_matches_discrete_enumeration(self, factory, engine):
        """Sampled aggregate vs exhaustive possible-world enumeration."""
        a = factory.create("bernoulli", (0.3,))
        b = factory.create("discreteuniform", (1, 4))
        table = CTable(["v"])
        table.add_row((10.0,), conjunction_of(var(a).eq_(1.0)))
        table.add_row((var(b) * 2.0,))
        truth = exact_expected_sum(table, "v")
        result = expected_sum(table, "v", engine=engine)
        assert result.value == pytest.approx(truth, rel=0.05)

    def test_independence_factorisation_is_exact(self, factory, engine):
        """Value ⊥ condition: mean and probability both exact."""
        p = factory.create("poisson", (2.0,))
        gate = factory.create("normal", (0.0, 1.0))
        table = CTable(["v"])
        table.add_row((var(p) * 5.0,), conjunction_of(var(gate) > 1))
        result = expected_sum(table, "v", engine=engine)
        truth = 2.0 * 5.0 * (1 - sps.norm.cdf(1))
        assert result.exact
        assert result.value == pytest.approx(truth, abs=1e-9)

    def test_empty_table(self, engine):
        table = CTable(["v"])
        result = expected_sum(table, "v", engine=engine)
        assert result.value == 0.0
        assert result.exact

    def test_scale_by_rows(self, factory, engine):
        y = factory.create("normal", (10.0, 1.0))
        table = CTable(["v"])
        for _ in range(16):
            table.add_row((var(y) + 0.0,), conjunction_of(var(y) > 8))
        options = SamplingOptions(n_samples=1600, use_exact_linear=False)
        result = expected_sum(
            table, "v", engine=engine, options=options, scale_by_rows=True
        )
        # sqrt(16) = 4: per-row samples shrink to 400 -> 6400 total.
        assert result.n_samples == 16 * 400

    def test_expected_count(self, factory, engine):
        y = factory.create("normal", (0.0, 1.0))
        table = CTable(["v"])
        table.add_row((1,), conjunction_of(var(y) > 0))
        table.add_row((1,))
        result = expected_count(table, engine=engine)
        assert result.value == pytest.approx(1.5, abs=1e-9)

    def test_expected_avg(self, factory, engine):
        y = factory.create("normal", (0.0, 1.0))
        table = CTable(["v"])
        table.add_row((10.0,), conjunction_of(var(y) > 0))
        table.add_row((20.0,))
        result = expected_avg(table, "v", engine=engine)
        # E[sum] = 5 + 20 = 25; E[count] = 1.5.
        assert result.value == pytest.approx(25 / 1.5, abs=1e-9)

    def test_expected_avg_empty(self, engine):
        table = CTable(["v"])
        assert math.isnan(expected_avg(table, "v", engine=engine).value)


class TestExpectedMax:
    def build_example_44(self, factory):
        """Example 4.4's table: values 5,4,1,0 with P = .7,.8,.3,.6."""
        cuts = {0.7: sps.norm.ppf(0.3), 0.8: sps.norm.ppf(0.2),
                0.3: sps.norm.ppf(0.7), 0.6: sps.norm.ppf(0.4)}
        table = CTable(["a"])
        for value, probability in ((5.0, 0.7), (4.0, 0.8), (1.0, 0.3), (0.0, 0.6)):
            gate = factory.create("normal", (0.0, 1.0))
            table.add_row((value,), conjunction_of(var(gate) > cuts[probability]))
        return table

    def test_sorted_scan_correct_semantics(self, factory, engine):
        """The *prose* semantics of Example 4.4 (DESIGN.md deviation):
        E[max] = Σ vᵢ·pᵢ·Π_{j<i}(1-pⱼ) under row independence."""
        table = self.build_example_44(factory)
        result = expected_max(table, "a", engine=engine, precision=1e-9)
        truth = (
            5 * 0.7
            + 4 * 0.8 * 0.3
            + 1 * 0.3 * 0.3 * 0.2
            + 0 * 0.6 * 0.3 * 0.2 * 0.7
        )
        assert result.method == "sorted-scan"
        assert result.value == pytest.approx(truth, abs=1e-6)

    def test_sorted_scan_agrees_with_worlds(self, factory, engine):
        table = self.build_example_44(factory)
        scan = expected_max(table, "a", engine=engine, precision=1e-9)
        # Compare against the naive world-sampled estimate directly.
        from repro.core.operators import _aggregate_by_worlds, _bound
        from repro.symbolic.expression import col

        bounds = [_bound(table, row, col("a")) for row in table.rows]
        worlds = _aggregate_by_worlds(
            table, bounds, np.fmax, -math.inf, 0.0, engine, 20000, "max"
        )
        assert scan.value == pytest.approx(worlds.value, rel=0.05)

    def test_early_exit(self, factory, engine):
        """With many high-probability rows the scan must stop early."""
        table = CTable(["a"])
        for i in range(200):
            gate = factory.create("normal", (0.0, 1.0))
            table.add_row((200.0 - i,), conjunction_of(var(gate) > 0))  # p = 0.5
        result = expected_max(table, "a", engine=engine, precision=1e-3)
        assert result.method == "sorted-scan"
        assert not result.exact  # early exit marks the result approximate
        # After ~20 rows the none-before probability is ~1e-6.
        assert result.value == pytest.approx(199.0, abs=0.1)

    def test_uncertain_target_uses_worlds(self, factory, engine):
        y = factory.create("normal", (10.0, 2.0))
        z = factory.create("normal", (12.0, 2.0))
        table = CTable(["a"])
        table.add_row((var(y),))
        table.add_row((var(z),))
        result = expected_max(table, "a", engine=engine, n_worlds=20000)
        assert result.method == "worlds-max"
        # E[max(Y, Z)] for independent normals.
        mu = 12 - 10
        sigma = math.sqrt(8)
        truth = 12 * sps.norm.cdf(mu / sigma) + 10 * sps.norm.cdf(-mu / sigma) + sigma * sps.norm.pdf(mu / sigma)
        assert result.value == pytest.approx(truth, rel=0.03)

    def test_dependent_rows_use_worlds(self, factory, engine):
        shared = factory.create("normal", (0.0, 1.0))
        table = CTable(["a"])
        table.add_row((5.0,), conjunction_of(var(shared) > 0))
        table.add_row((3.0,), conjunction_of(var(shared) < 0))
        result = expected_max(table, "a", engine=engine, n_worlds=20000)
        assert result.method == "worlds-max"
        assert result.value == pytest.approx(0.5 * 5 + 0.5 * 3, rel=0.05)

    def test_expected_min_mirror(self, factory, engine):
        table = CTable(["a"])
        gate = factory.create("normal", (0.0, 1.0))
        table.add_row((5.0,), conjunction_of(var(gate) > 0))
        table.add_row((3.0,))
        result = expected_min(table, "a", engine=engine, precision=1e-9)
        # min is 3 unless only... row2 certain: min = 3 always.
        assert result.value == pytest.approx(3.0, abs=1e-6)

    def test_empty_table_returns_empty_value(self, engine):
        table = CTable(["a"])
        assert expected_max(table, "a", engine=engine, empty_value=-1.0).value == -1.0


class TestHists:
    def test_expected_sum_hist_mean_tracks_sum(self, factory, engine):
        y = factory.create("normal", (10.0, 1.0))
        table = CTable(["v"])
        table.add_row((var(y),))
        samples = expected_sum_hist(table, "v", 4000, engine=engine)
        assert samples.shape == (4000,)
        assert samples.mean() == pytest.approx(10.0, rel=0.05)

    def test_expected_max_hist(self, factory, engine):
        y = factory.create("normal", (10.0, 1.0))
        z = factory.create("normal", (12.0, 1.0))
        table = CTable(["v"])
        table.add_row((var(y),))
        table.add_row((var(z),))
        samples = expected_max_hist(table, "v", 3000, engine=engine)
        assert samples.shape == (3000,)
        assert samples.mean() > 12.0  # max of the two normals


class TestGrouped:
    def test_grouped_expected_sum(self, factory, engine):
        p1 = factory.create("poisson", (2.0,))
        p2 = factory.create("poisson", (5.0,))
        table = CTable(["g", "v"])
        table.add_row(("a", var(p1)))
        table.add_row(("b", var(p2)))
        table.add_row(("a", 1.0))
        result = grouped_aggregate(table, ["g"], "expected_sum", "v", engine=engine)
        by_group = {row.values[0]: row.values[1] for row in result.rows}
        assert by_group["a"] == pytest.approx(3.0, rel=0.05)
        assert by_group["b"] == pytest.approx(5.0, rel=0.05)

    def test_grouped_count(self, factory, engine):
        y = factory.create("normal", (0.0, 1.0))
        table = CTable(["g", "v"])
        table.add_row(("a", 1.0), conjunction_of(var(y) > 0))
        table.add_row(("a", 1.0))
        table.add_row(("b", 1.0))
        result = grouped_aggregate(table, ["g"], "expected_count", None, engine=engine)
        by_group = {row.values[0]: row.values[1] for row in result.rows}
        assert by_group["a"] == pytest.approx(1.5, abs=1e-9)
        assert by_group["b"] == 1.0

    def test_unknown_aggregate(self, engine):
        table = CTable(["g", "v"])
        with pytest.raises(PIPError):
            grouped_aggregate(table, ["g"], "nope", "v", engine=engine)


# ---------------------------------------------------------------------------
# The deterministic short cut, held to its definition
# ---------------------------------------------------------------------------
#
# The aggregate loops answer a row whose condition is TRUE and whose target
# is a bare column holding an exact int/float without calling the engine.
# The reference loops below are the paper's formulas and nothing else —
# every row is bound and goes through ``engine.expectation`` / ``conf`` —
# and the operators must return what they return, to the bit, while making
# only the engine calls the reference makes for the rows that need one.

_PLAIN_CELLS = [
    math.nan, 0.0, -0.0, math.inf, -math.inf, 1e308, 2**53 + 1, -(2**53) - 1,
    10**20, 5, 5.0,
]
_FINITE_CELLS = [c for c in _PLAIN_CELLS if c == c and abs(c) != math.inf]


class _CountingEngine(ExpectationEngine):
    """Records every ``expectation`` / ``probability`` call, tagged with
    the row the (reference) loop says it is working on."""

    def __init__(self):
        super().__init__(options=SamplingOptions(n_samples=300), base_seed=13)
        self.calls = []
        self.row = None

    def expectation(self, expr, condition, want_probability=False, seed=None, options=None):
        self.calls.append(
            (self.row, ("expectation", repr(expr), repr(condition), want_probability))
        )
        return super().expectation(
            expr, condition, want_probability=want_probability, seed=seed, options=options
        )

    def probability(self, condition, seed=None, options=None):
        self.calls.append((self.row, ("probability", repr(condition))))
        return super().probability(condition, seed=seed, options=options)


def _ref_bound(table, row, target):
    expr = col(target) if isinstance(target, str) else as_expression(target)
    return expr.bind_columns(table.row_mapping(row))


def _ref_sum(table, target, engine):
    """E[Σ h] = Σ E[h|φ]·P[φ] (Section II-C)."""
    total, n_samples, exact = 0.0, 0, True
    for row in table.rows:
        engine.row = row
        result = engine.expectation(
            _ref_bound(table, row, target), row.condition, want_probability=True
        )
        n_samples += result.n_samples
        if result.probability == 0.0 or result.is_nan:
            continue
        exact = exact and result.exact_mean and result.exact_probability
        total += result.mean * result.probability
    return total, len(table.rows), n_samples, exact, "linearity"


def _ref_count(table, target, engine):
    total, exact = 0.0, True
    for row in table.rows:
        engine.row = row
        result = conf(row.condition, engine=engine)
        total += result.probability
        exact = exact and result.exact
    return total, len(table.rows), 0, exact, "conf-sum"


def _ref_avg(table, target, engine):
    numerator = _ref_sum(table, target, engine)
    denominator = _ref_count(table, target, engine)
    value = math.nan if denominator[0] == 0 else numerator[0] / denominator[0]
    return value, numerator[1], numerator[2], numerator[3] and denominator[3], "ratio"


def _ref_max(table, target, engine, precision=1e-4, empty_value=0.0):
    """Example 4.4's sorted scan over constant targets and independent
    rows; anything else is the world-parallel fallback."""
    if not table.rows:
        return empty_value, 0, 0, True, "empty"
    pairs = [(row, _ref_bound(table, row, target)) for row in table.rows]
    seen, independent = set(), True
    for row in table.rows:
        families = {v.vid for v in row.condition.variables()}
        independent = independent and not (families & seen)
        seen |= families
    if not (independent and all(bound.is_constant for _row, bound in pairs)):
        engine.row = None
        worlds = _aggregate_by_worlds(
            table, [b for _r, b in pairs], np.fmax, -math.inf, empty_value,
            engine, 1000, "max",
        )
        return worlds.value, worlds.n_rows, worlds.n_samples, worlds.exact, worlds.method
    ordered = sorted(pairs, key=lambda pair: pair[1].const_value(), reverse=True)
    total, none_before, exact, scanned = 0.0, 1.0, True, 0
    for row, bound in ordered:
        value = float(bound.const_value())
        remaining = [float(b.const_value()) for _r, b in ordered[scanned:]]
        if none_before * max(abs(v) for v in remaining + [empty_value]) < precision:
            break
        engine.row = row
        result = conf(row.condition, engine=engine)
        exact = exact and result.exact
        total += value * result.probability * none_before
        none_before *= 1.0 - result.probability
        scanned += 1
    total += empty_value * none_before
    return total, len(table.rows), 0, exact and scanned == len(ordered), "sorted-scan"


def _ref_min(table, target, engine):
    value, n_rows, n_samples, exact, method = _ref_max(
        table, as_expression(0) - col(target), engine, empty_value=-0.0
    )
    return -value, n_rows, n_samples, exact, method


_PAIRS = [
    (expected_sum, _ref_sum),
    (lambda table, target, engine: expected_count(table, engine=engine), _ref_count),
    (expected_avg, _ref_avg),
    (expected_max, _ref_max),
    (expected_min, _ref_min),
]
_PAIR_IDS = ["sum", "count", "avg", "max", "min"]


def _canon(value, n_rows, n_samples, exact, method):
    return float(value).hex(), n_rows, n_samples, exact, method


def _canon_result(result):
    return _canon(result.value, result.n_rows, result.n_samples, result.exact, result.method)


def _needs_engine(table, row, call, target="v"):
    """Whether the short cut leaves this reference call to the engine: a
    probability when the condition is not TRUE, an expectation also when
    the cell is not an exact int / float."""
    if row is None or not row.condition.is_true:
        return True
    if call[0] == "probability":
        return False
    return type(row.values[table.schema.index_of(target)]) not in (int, float)


#: Group keys of the test tables: equal without being identical (1, 1.0, True).
_KEYS = ["a", 1, "b", 1.0, True]


def _key(i):
    return _KEYS[i % len(_KEYS)]


def _symbolic_table(cells, names=("g", "v")):
    """``cells`` under TRUE, interleaved with the same kinds of cell under
    symbolic conditions over variables of their own (so rows stay
    independent and constant targets keep the sorted scan)."""
    factory = VariableFactory()
    table = CTable(list(names))
    for i, cell in enumerate(cells):
        table.add_row((_key(i), cell))
        if i % 3 == 0:
            gate = factory.create("normal", (0.0, 1.0))
            table.add_row(
                (_key(i + 1), cell), conjunction_of(var(gate) > 0.25 * i - 1)
            )
        if i % 4 == 1:
            a = factory.create("normal", (0.0, 1.0))
            b = factory.create("normal", (1.0, 2.0))
            table.add_row((_key(i), 3), conjunction_of(var(a) * var(b) > 0.5))
    return table


class TestDeterministicShortCut:
    @staticmethod
    def _tables():
        def det(cells):
            table = CTable(["g", "v"])
            for i, cell in enumerate(cells):
                table.add_row((_key(i), cell))
            return table

        factory = VariableFactory()
        y = factory.create("normal", (1.0, 2.0))
        # The extremes sit under symbolic conditions, so both sorted scans
        # have to ask for probabilities before a certain row ends them.
        gated = CTable(["g", "v"])
        for i, cell in enumerate([50.0, -50, 7, 40, -40.5, -7.0, 3.0, 2**53 + 1]):
            gate = factory.create("normal", (0.0, 1.0))
            certain = cell in (7, -7.0)
            table_condition = conjunction_of() if certain else conjunction_of(var(gate) > 0.1 * i)
            gated.add_row(("ab"[i % 2], cell), table_condition)
        return {
            "empty": det([]),
            "plain": det(_PLAIN_CELLS),
            "finite": det(_FINITE_CELLS + _FINITE_CELLS[::-1]),
            "bool-numpy": det(_FINITE_CELLS + [True, np.float64(2.5), False]),
            "mixed-conditions": _symbolic_table(_FINITE_CELLS + [True, np.float64(2.5)]),
            "mixed-specials": _symbolic_table(_PLAIN_CELLS),
            "expression-cell": _symbolic_table([1.5, var(y) * 2.0 + 1.0, 4, -0.0]),
            "gated-extremes": gated,
        }

    @pytest.mark.parametrize("op,ref", _PAIRS, ids=_PAIR_IDS)
    def test_operators_return_the_reference_loops_answer(self, op, ref):
        for label, table in self._tables().items():
            got = _canon_result(op(table, "v", engine=_CountingEngine()))
            want = _canon(*ref(table, "v", _CountingEngine()))
            assert got == want, label

    @pytest.mark.parametrize("op,ref", _PAIRS, ids=_PAIR_IDS)
    def test_only_the_rows_that_need_the_engine_call_it(self, op, ref):
        for label, table in self._tables().items():
            ours, reference = _CountingEngine(), _CountingEngine()
            op(table, "v", engine=ours)
            ref(table, "v", reference)
            want = [
                call
                for row, call in reference.calls
                if _needs_engine(table, row, call)
            ]
            assert [call for _row, call in ours.calls] == want, label
            if label in ("empty", "plain", "finite"):
                assert ours.calls == [], label

    @pytest.mark.parametrize(
        "aggregate,ref",
        [
            ("expected_sum", _ref_sum),
            ("expected_count", _ref_count),
            ("expected_avg", _ref_avg),
            ("expected_max", _ref_max),
            ("expected_min", _ref_min),
        ],
    )
    def test_grouped_aggregate_sums_within_groups(self, aggregate, ref):
        for label, table in self._tables().items():
            ours, reference = _CountingEngine(), _CountingEngine()
            got = grouped_aggregate(table, ["g"], aggregate, "v", engine=ours)
            groups = {}
            for row in table.rows:
                groups.setdefault(row.values[0], []).append(row)
            want = [
                (key, float(ref(table.with_rows(rows), "v", reference)[0]).hex())
                for key, rows in groups.items()
            ]
            assert [
                (row.values[0], float(row.values[1]).hex()) for row in got.rows
            ] == want, label
            assert [type(row.values[0]) for row in got.rows] == [
                type(key) for key in groups
            ], label
            if label in ("plain", "finite"):
                assert ours.calls == [], label

    @pytest.mark.parametrize("op,ref", _PAIRS, ids=_PAIR_IDS)
    def test_column_names_resolve_as_binding_resolves_them(self, op, ref):
        cells = _FINITE_CELLS + [True]
        cases = [
            (("g", "v"), "v"),  # exact
            (("g", "v"), "t.v"),  # qualified reference, unqualified storage
            (("t.g", "t.v"), "t.v"),  # exact, qualified storage
            (("t.g", "t.v"), "v"),  # unique suffix
            (("a.v", "b.v"), "b.v"),  # exact among look-alikes
        ]
        for names, target in cases:
            table = _symbolic_table(cells, names=names)
            got = _canon_result(op(table, target, engine=_CountingEngine()))
            assert got == _canon(*ref(table, target, _CountingEngine())), (names, target)
        for names, target in [(("a.v", "b.v"), "v"), (("g", "v"), "nope")]:
            table = _symbolic_table(cells, names=names)
            if ref is _ref_count:
                continue  # no target to resolve
            with pytest.raises(SchemaError) as ours:
                op(table, target, engine=_CountingEngine())
            with pytest.raises(SchemaError) as reference:
                ref(table, target, _CountingEngine())
            assert str(ours.value) == str(reference.value)
            # No row, nothing to bind: neither loop can notice the name.
            empty = CTable(list(names))
            assert _canon_result(op(empty, target, engine=_CountingEngine())) == _canon(
                *ref(empty, target, _CountingEngine())
            )
