"""Conditions with an infinite edge or NaN arithmetic, through SQL.

An edge at ±inf maps by its sign: ``P[X > inf]`` and ``P[X < -inf]`` are
0 on the exact (CDF) path as on the sampled one.  An atom whose affine
form holds a NaN (a NaN cell or constant, ``inf * 0.0``) or an infinite
coefficient is not solved by Algorithm 3.2: it counts as skipped, the
verdict is weak, no bound comes of it, and the sampler decides it.
"""

import math

import pytest

from repro import PIPDatabase
from repro.constraints.consistency import check_consistency
from repro.distributions import get_distribution
from repro.sampling.expectation import ExpectationEngine
from repro.sampling.options import SamplingOptions
from repro.symbolic import VariableFactory, conjunction_of, var
from repro.util.intervals import Interval

DISTRIBUTIONS = [
    ("normal", (0.0, 1.0)),
    ("exponential", (1.0,)),
    ("uniform", (0.0, 2.0)),
    ("poisson", (3.0,)),
]


def conf(dist, params, where, cells, exact=True, **bound):
    """``conf()`` of each row of ``v`` (cells ``f``, ``x ~ dist(params)``)."""
    db = PIPDatabase(seed=3, options=SamplingOptions(use_exact_probability=exact))
    try:
        db.sql("CREATE TABLE t (k int, f float)")
        db.insert_many("t", list(enumerate(cells)))
        args = ", ".join(repr(p) for p in params)
        db.register("v", db.sql(
            "SELECT k, f, create_variable('%s', %s) AS x FROM t" % (dist, args)))
        return dict(db.sql("SELECT k, conf() AS p FROM v WHERE " + where, bound or None).rows())
    finally:
        db.close()


class TestInfiniteEdges:
    @pytest.mark.parametrize("dist, params", DISTRIBUTIONS)
    @pytest.mark.parametrize("op", [">", ">=", "<", "<="])
    def test_exact_equals_sampled(self, dist, params, op):
        cells = [math.inf, -math.inf, 1.0]
        exact = conf(dist, params, "x %s f" % op, cells)
        sampled = conf(dist, params, "x %s f" % op, cells, exact=False)
        empty = 0 if op[0] == ">" else 1  # the row whose edge holds no mass
        assert exact.get(empty, 0.0) == sampled.get(empty, 0.0) == 0.0
        full = 1 - empty
        assert exact[full] == pytest.approx(sampled[full], abs=1e-9)
        assert sampled[full] == 1.0

    def test_an_infinite_bound_parameter(self):
        assert conf("normal", (0.0, 1.0), "x > :c", [1.0], c=math.inf) == {0: 0.0}
        assert conf("normal", (0.0, 1.0), "x < :c", [1.0], c=-math.inf) == {0: 0.0}

    def test_the_distribution_helpers(self):
        normal = get_distribution("normal")
        for edge in (math.inf, -math.inf):
            point = Interval(edge, edge)
            assert normal.probability_in((0.0, 1.0), point) == 0.0
            assert math.isnan(normal.mean_in((0.0, 1.0), point))
        poisson = get_distribution("poisson")
        assert poisson.pmf_at((3.0,), math.inf) == poisson.pmf_at((3.0,), -math.inf) == 0.0


class TestNaN:
    def test_no_value_exceeds_nan(self):
        assert conf("normal", (0.0, 1.0), "x > f", [math.nan, 1.0]) == {
            0: 0.0, 1: pytest.approx(0.15865525393145707, abs=1e-15)}
        assert conf("normal", (0.0, 1.0), "x > :c", [1.0], c=math.nan) == {0: 0.0}
        assert conf("normal", (0.0, 1.0), "x * f > 0.5", [math.nan]) == {0: 0.0}
        assert conf("normal", (0.0, 1.0), "x * x * f > 1", [math.nan]) == {0: 0.0}
        assert conf("poisson", (3.0,), "x = f", [math.nan]) == {0: 0.0}

    def test_times_infinity_is_the_sign(self):
        # x * inf > 1 holds exactly when x > 0; its form has a NaN constant.
        p = conf("normal", (0.0, 1.0), "x * f > 1", [math.inf])[0]
        assert abs(p - 0.5) <= 4 * math.sqrt(0.25 / 4096)

    def test_no_closed_form_for_a_skipped_atom(self):
        x = VariableFactory().create("normal", (0.0, 1.0))
        engine = ExpectationEngine(options=SamplingOptions(n_samples=2000, use_exact_truncated=True))
        exact = engine.expectation(var(x), conjunction_of(var(x) > 0.0))
        assert set(exact.methods.values()) == {"exact-truncated"}
        sampled = engine.expectation(var(x), conjunction_of(var(x) * math.inf > 1))
        assert "exact-truncated" not in sampled.methods.values() and sampled.n_samples == 2000
        assert abs(sampled.mean - exact.mean) <= 4 * sampled.stderr

    def test_skipped_not_hulled(self):
        x = VariableFactory().create("normal", (0.0, 1.0))
        for atom in (var(x) * math.inf > 1, var(x) > math.nan, var(x) * math.nan < 0.5,
                     var(x) * var(x) * math.nan > 1):
            result = check_consistency(conjunction_of(atom, var(x) < 3.0))
            assert result.is_consistent and not result.strong
            assert result.skipped_atoms == 1
            assert result.bound_for(x.key) == Interval.at_most(3.0)
