"""World generation and per-group conditional samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.consistency import check_consistency
from repro.constraints.independence import groups_for_condition
from repro.distributions import rng_from_seed
from repro.sampling.options import SamplingOptions
from repro.sampling.samplers import GroupSampler
from repro.sampling.worldgen import WorldSampler
from repro.symbolic import VariableFactory, conjunction_of, var


@pytest.fixture
def factory():
    return VariableFactory()


def make_sampler(condition, options=None, seed=17, extra_vars=()):
    consistency = check_consistency(condition)
    groups = groups_for_condition(condition, extra_variables=extra_vars)
    assert len(groups) == 1
    group = groups[0]
    from repro.symbolic.conditions import Conjunction

    predicate = lambda arrays: Conjunction(group.atoms).evaluate_batch(arrays)
    return GroupSampler(
        group,
        consistency.bounds,
        predicate,
        rng_from_seed(seed),
        options or SamplingOptions(),
    )


class TestWorldSampler:
    def test_value_deterministic(self, factory):
        x = factory.create("normal", (0, 1))
        sampler = WorldSampler(base_seed=1)
        assert sampler.value(x, 3) == sampler.value(x, 3)
        assert sampler.value(x, 3) != sampler.value(x, 4)

    def test_same_variable_consistent_across_occurrences(self, factory):
        """The Section III-B requirement: one value per variable per world."""
        x = factory.create("normal", (0, 1))
        sampler = WorldSampler(base_seed=2)
        assignment_a = sampler.assignment([x], 7)
        assignment_b = sampler.assignment([x], 7)
        assert assignment_a == assignment_b

    def test_batch_matches_value(self, factory):
        x = factory.create("normal", (0, 1))
        y = factory.create("exponential", (1.0,))
        sampler = WorldSampler(base_seed=3)
        arrays = sampler.batch([x, y], [0, 1, 2])
        for w in range(3):
            assert arrays[x.key][w] == sampler.value(x, w)

    def test_multivariate_family_joint(self, factory):
        family = factory.create("mvnormal", (2, 0.0, 0.0, 1.0, 0.9, 0.9, 1.0))
        sampler = WorldSampler(base_seed=4)
        assignment = sampler.assignment(family, 0)
        # Strong correlation: components drawn jointly, not independently.
        values = [
            sampler.assignment(family, w) for w in range(2000)
        ]
        a = np.array([v[family[0].key] for v in values])
        b = np.array([v[family[1].key] for v in values])
        assert np.corrcoef(a, b)[0, 1] > 0.8
        assert set(assignment) == {family[0].key, family[1].key}

    def test_arrays_stream_deterministic(self, factory):
        x = factory.create("uniform", (0, 1))
        a = WorldSampler(base_seed=5).arrays([x], 100)
        b = WorldSampler(base_seed=5).arrays([x], 100)
        c = WorldSampler(base_seed=6).arrays([x], 100)
        assert np.array_equal(a[x.key], b[x.key])
        assert not np.array_equal(a[x.key], c[x.key])

    def test_arrays_multivariate_correlation(self, factory):
        family = factory.create("mvnormal", (2, 0.0, 0.0, 1.0, 0.9, 0.9, 1.0))
        arrays = WorldSampler(base_seed=7).arrays(family, 4000)
        corr = np.corrcoef(arrays[family[0].key], arrays[family[1].key])[0, 1]
        assert corr > 0.8


class TestGroupSampler:
    def test_unconstrained_group_no_rejection(self, factory):
        x = factory.create("normal", (5, 1))
        condition = conjunction_of()  # TRUE
        sampler = make_sampler(condition, extra_vars=[x])
        result = sampler.sample(500)
        assert result.accepted == result.attempts  # wait: accepted counts all draws
        assert result.arrays[x.key].shape == (500,)
        assert result.mass * result.accepted / result.attempts == 1.0

    def test_cdf_window_samples_within_bounds(self, factory):
        y = factory.create("normal", (0, 1))
        condition = conjunction_of(var(y) > 1.5, var(y) < 2.0)
        sampler = make_sampler(condition)
        result = sampler.sample(800)
        values = result.arrays[y.key]
        assert values.min() >= 1.5 and values.max() <= 2.0
        # CDF-windowed candidates always satisfy: no rejections at all.
        assert result.accepted == result.attempts

    def test_probability_estimate_matches_truth(self, factory):
        from scipy.stats import norm

        y = factory.create("normal", (0, 1))
        condition = conjunction_of(var(y) > 1.0)
        sampler = make_sampler(condition)
        result = sampler.sample(2000)
        truth = 1 - norm.cdf(1.0)
        assert result.mass * result.accepted / result.attempts == pytest.approx(truth, rel=0.05)

    def test_rejection_probability_estimate(self, factory):
        """Two-variable constraint: rejection bookkeeping estimates P."""
        from scipy.stats import norm

        x = factory.create("normal", (0, 1))
        y = factory.create("normal", (0, 1))
        condition = conjunction_of(var(x) > var(y) + 1)
        sampler = make_sampler(condition, SamplingOptions(use_metropolis=False))
        result = sampler.sample(3000)
        truth = 1 - norm.cdf(1 / math.sqrt(2))
        assert result.mass * result.accepted / result.attempts == pytest.approx(truth, rel=0.1)

    def test_no_cdf_inversion_falls_back_to_rejection(self, factory):
        y = factory.create("normal", (0, 1))
        condition = conjunction_of(var(y) > 1.5)
        sampler = make_sampler(
            condition, SamplingOptions(use_cdf_inversion=False, use_metropolis=False)
        )
        result = sampler.sample(200)
        assert result.accepted < result.attempts  # real rejections happened
        assert result.arrays[y.key].min() >= 1.5

    def test_fixed_discrete_variable(self, factory):
        x = factory.create("discreteuniform", (0, 9))
        condition = conjunction_of(var(x).eq_(4.0))
        sampler = make_sampler(condition)
        result = sampler.sample(100)
        assert np.all(result.arrays[x.key] == 4.0)
        assert result.mass == pytest.approx(0.1)

    def test_impossible_outside_support(self, factory):
        """Y < -1 for an Exponential: bounds ∩ support is empty (rule 4)."""
        y = factory.create("exponential", (1.0,))
        condition = conjunction_of(var(y) < -1.0)
        consistency = check_consistency(condition)
        assert consistency.is_inconsistent and consistency.strong

    def test_continuous_point_pin_is_impossible(self, factory):
        y = factory.create("normal", (0, 1))
        condition = conjunction_of(var(y) >= 2.0, var(y) <= 2.0)
        sampler = make_sampler(condition)
        result = sampler.sample(10)
        assert result.impossible
        assert result.n == 0 and result.mass == 0.0

    def test_estimate_probability_path(self, factory):
        from scipy.stats import norm

        y = factory.create("normal", (0, 1))
        condition = conjunction_of(var(y) > 0.5)
        sampler = make_sampler(
            condition, SamplingOptions(use_cdf_inversion=False)
        )
        estimate = sampler.estimate_probability(20000)
        assert estimate == pytest.approx(1 - norm.cdf(0.5), rel=0.1)

    def test_discrete_window_sampling(self, factory):
        x = factory.create("poisson", (3.0,))
        condition = conjunction_of(var(x) >= 2, var(x) <= 5)
        sampler = make_sampler(condition)
        result = sampler.sample(1000)
        values = result.arrays[x.key]
        assert values.min() >= 2 and values.max() <= 5
        from scipy.stats import poisson

        truth = poisson.cdf(5, 3) - poisson.cdf(1, 3)
        assert result.mass * result.accepted / result.attempts == pytest.approx(truth, rel=0.05)

    def test_multivariate_family_joint_sampling(self, factory):
        family = factory.create("mvnormal", (2, 0.0, 0.0, 1.0, 0.9, 0.9, 1.0))
        condition = conjunction_of(var(family[0]) > 0.0)
        sampler = make_sampler(
            condition,
            SamplingOptions(use_metropolis=False),
            extra_vars=[family[1]],
        )
        result = sampler.sample(2000)
        a = result.arrays[family[0].key]
        b = result.arrays[family[1].key]
        assert a.min() > 0.0
        # Conditional correlation persists through joint rejection.
        assert np.corrcoef(a, b)[0, 1] > 0.5


@settings(max_examples=25, deadline=None)
@given(
    lo=st.floats(-2.0, 0.5),
    width=st.floats(0.2, 2.0),
)
def test_cdf_window_soundness_property(lo, width):
    """Every CDF-window sample lands inside the constraint interval."""
    factory = VariableFactory()
    y = factory.create("normal", (0, 1))
    hi = lo + width
    condition = conjunction_of(var(y) >= lo, var(y) <= hi)
    sampler = make_sampler(condition, seed=99)
    result = sampler.sample(200)
    values = result.arrays[y.key]
    assert values.min() >= lo - 1e-9
    assert values.max() <= hi + 1e-9
