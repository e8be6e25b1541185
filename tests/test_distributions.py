"""Distribution classes: parameters, sampling, CDF machinery, registry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from repro.distributions import (
    DiscreteDistribution,
    Distribution,
    get_distribution,
    register_distribution,
    registered_distributions,
    rng_from_seed,
)
from repro.util.errors import DistributionError
from repro.util.intervals import Interval

#: (name, params) for every univariate builtin with closed-form moments.
CASES = [
    ("normal", (5.0, 2.0)),
    ("uniform", (-1.0, 3.0)),
    ("exponential", (0.5,)),
    ("gamma", (2.0, 3.0)),
    ("beta", (2.0, 5.0)),
    ("lognormal", (0.0, 0.5)),
    ("laplace", (1.0, 2.0)),
    ("triangular", (0.0, 1.0, 4.0)),
    ("weibull", (1.5, 2.0)),
    ("pareto", (3.0, 1.0)),
    ("studentt", (5.0, 1.0, 2.0)),
    ("poisson", (4.0,)),
    ("bernoulli", (0.3,)),
    ("binomial", (10, 0.4)),
    ("geometric", (0.25,)),
    ("discreteuniform", (1, 6)),
    ("categorical", (1.0, 0.2, 2.0, 0.3, 5.0, 0.5)),
    ("zipf", (1.1, 20)),
]

CDF_CASES = [case for case in CASES if get_distribution(case[0]).has("cdf")]
ICDF_CASES = [case for case in CASES if get_distribution(case[0]).has("inverse_cdf")]


@pytest.mark.parametrize("name,params", CASES)
def test_sample_moments_match_closed_form(name, params):
    dist = get_distribution(name)
    canonical = dist.validate_params(params)
    rng = rng_from_seed(123)
    samples = dist.generate_batch(canonical, rng, 40000)
    mean = dist.mean(canonical)
    variance = dist.variance(canonical)
    tolerance = 6.0 * math.sqrt(variance / len(samples))
    assert abs(samples.mean() - mean) < tolerance + 1e-9
    # Variance agreement within 15% (loose, heavy tails excluded).
    if name not in ("pareto", "studentt", "zipf"):
        assert samples.var() == pytest.approx(variance, rel=0.15)


@pytest.mark.parametrize("name,params", CASES)
def test_generation_is_deterministic_per_seed(name, params):
    dist = get_distribution(name)
    canonical = dist.validate_params(params)
    a = dist.generate_batch(canonical, rng_from_seed(77), 50)
    b = dist.generate_batch(canonical, rng_from_seed(77), 50)
    c = dist.generate_batch(canonical, rng_from_seed(78), 50)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("name,params", CASES)
def test_samples_within_support(name, params):
    dist = get_distribution(name)
    canonical = dist.validate_params(params)
    support = dist.support(canonical)
    samples = dist.generate_batch(canonical, rng_from_seed(5), 2000)
    assert all(support.contains(s) for s in samples)


@pytest.mark.parametrize("name,params", CDF_CASES)
def test_cdf_monotone_and_bounded(name, params):
    dist = get_distribution(name)
    canonical = dist.validate_params(params)
    xs = np.linspace(-20, 40, 121)
    values = np.asarray(dist.cdf(canonical, xs), dtype=float)
    assert np.all(np.diff(values) >= -1e-12)
    assert values.min() >= -1e-12 and values.max() <= 1 + 1e-12


@pytest.mark.parametrize("name,params", ICDF_CASES)
def test_inverse_cdf_roundtrip(name, params):
    dist = get_distribution(name)
    canonical = dist.validate_params(params)
    us = np.linspace(0.02, 0.98, 25)
    xs = np.asarray(dist.inverse_cdf(canonical, us), dtype=float)
    back = np.asarray(dist.cdf(canonical, xs), dtype=float)
    if dist.is_discrete:
        # Discrete quantiles: CDF(ppf(u)) >= u (right-continuity).
        assert np.all(back >= us - 1e-9)
    else:
        assert np.allclose(back, us, atol=1e-6)


@pytest.mark.parametrize(
    "name,params",
    [case for case in CDF_CASES if not get_distribution(case[0]).is_discrete],
)
def test_cdf_agrees_with_empirical_continuous(name, params):
    dist = get_distribution(name)
    canonical = dist.validate_params(params)
    samples = dist.generate_batch(canonical, rng_from_seed(9), 20000)
    for q in (0.25, 0.5, 0.75):
        x = float(np.quantile(samples, q))
        cdf_value = float(dist.cdf(canonical, x))
        assert abs(cdf_value - q) < 0.03


@pytest.mark.parametrize(
    "name,params",
    [case for case in CDF_CASES if get_distribution(case[0]).is_discrete],
)
def test_cdf_agrees_with_empirical_discrete(name, params):
    """For discrete classes compare P[X <= x] frequencies with the CDF."""
    dist = get_distribution(name)
    canonical = dist.validate_params(params)
    samples = dist.generate_batch(canonical, rng_from_seed(9), 20000)
    for x in np.unique(samples)[:8]:
        empirical = float((samples <= x).mean())
        cdf_value = float(dist.cdf(canonical, x))
        assert abs(cdf_value - empirical) < 0.02


@pytest.mark.parametrize(
    "name,params",
    [case for case in CASES if get_distribution(case[0]).is_discrete],
)
def test_discrete_domain_sums_to_one(name, params):
    dist = get_distribution(name)
    canonical = dist.validate_params(params)
    total = sum(mass for _v, mass in dist.domain(canonical))
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "name,params",
    [case for case in CASES if get_distribution(case[0]).is_discrete],
)
def test_discrete_domain_matches_pmf(name, params):
    dist = get_distribution(name)
    canonical = dist.validate_params(params)
    for value, mass in list(dist.domain(canonical))[:10]:
        assert mass == pytest.approx(dist.pmf_at(canonical, value), abs=1e-9)


class TestProbabilityIn:
    def test_normal_window(self):
        dist = get_distribution("normal")
        params = dist.validate_params((0.0, 1.0))
        p = dist.probability_in(params, Interval(-1.0, 1.0))
        assert p == pytest.approx(0.682689, abs=1e-5)

    def test_unbounded_sides(self):
        dist = get_distribution("exponential")
        params = dist.validate_params((2.0,))
        assert dist.probability_in(params, Interval.at_least(0.0)) == pytest.approx(1.0)
        assert dist.probability_in(params, Interval.at_most(0.0)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_empty_interval(self):
        dist = get_distribution("normal")
        params = dist.validate_params((0.0, 1.0))
        assert dist.probability_in(params, Interval.empty()) == 0.0

    def test_discrete_closed_interval_includes_lower_point(self):
        dist = get_distribution("poisson")
        params = dist.validate_params((3.0,))
        # [2, 4] must include P[X=2].
        p = dist.probability_in(params, Interval(2.0, 4.0))
        from scipy.stats import poisson

        truth = poisson.pmf(2, 3) + poisson.pmf(3, 3) + poisson.pmf(4, 3)
        assert p == pytest.approx(truth, abs=1e-9)

    def test_missing_cdf_raises(self):
        class NoCdf(Distribution):
            name = "nocdf_test"

            def validate_params(self, params):
                return tuple(params)

            def generate_batch(self, params, rng, size):
                return rng.random(size)

        dist = NoCdf()
        with pytest.raises(DistributionError):
            dist.probability_in((), Interval(0, 1))


class TestValidation:
    @pytest.mark.parametrize(
        "name,bad",
        [
            ("normal", (0.0, -1.0)),
            ("normal", (0.0,)),
            ("uniform", (2.0, 2.0)),
            ("exponential", (-0.5,)),
            ("gamma", (0.0, 1.0)),
            ("beta", (1.0, 0.0)),
            ("triangular", (0.0, 5.0, 4.0)),
            ("bernoulli", (1.5,)),
            ("binomial", (-1, 0.5)),
            ("geometric", (0.0,)),
            ("discreteuniform", (5, 1)),
            ("categorical", (1.0, 0.5, 1.0, 0.5)),  # duplicate values
            ("categorical", (1.0,)),  # odd arity
            ("zipf", (0.0, 5)),
        ],
    )
    def test_bad_params_rejected(self, name, bad):
        with pytest.raises(DistributionError):
            get_distribution(name).validate_params(bad)

    def test_categorical_normalises_probabilities(self):
        dist = get_distribution("categorical")
        params = dist.validate_params((1.0, 2.0, 2.0, 6.0))
        assert dist.mean(params) == pytest.approx(1 * 0.25 + 2 * 0.75)


class TestRegistry:
    def test_lookup_case_insensitive(self):
        assert get_distribution("Normal") is get_distribution("normal")

    def test_unknown_raises_with_known_list(self):
        with pytest.raises(DistributionError, match="normal"):
            get_distribution("definitely_not_a_distribution")

    def test_reregistration_same_class_ok(self):
        from repro.distributions.continuous import NormalDistribution

        register_distribution(NormalDistribution)  # idempotent

    def test_conflicting_registration_requires_replace(self):
        class Fake(Distribution):
            name = "normal"

            def validate_params(self, params):
                return tuple(params)

            def generate_batch(self, params, rng, size):
                return rng.random(size)

        with pytest.raises(DistributionError):
            register_distribution(Fake)
        # Restore with replace=True round trip.
        from repro.distributions.continuous import NormalDistribution

        register_distribution(Fake, replace=True)
        register_distribution(NormalDistribution, replace=True)

    def test_registered_list_contains_builtins(self):
        names = registered_distributions()
        for expected in ("normal", "poisson", "mvnormal", "categorical"):
            assert expected in names

    def test_capabilities(self):
        normal = get_distribution("normal")
        assert {"pdf", "cdf", "inverse_cdf", "mean", "variance"} <= normal.capabilities

    def test_unnamed_rejected(self):
        class NoName(Distribution):
            def validate_params(self, params):
                return ()

            def generate_batch(self, params, rng, size):
                return rng.random(size)

        with pytest.raises(DistributionError):
            register_distribution(NoName)


@settings(max_examples=30, deadline=None)
@given(
    mu=st.floats(-100, 100),
    sigma=st.floats(0.01, 50),
    u=st.floats(0.001, 0.999),
)
def test_normal_quantile_property(mu, sigma, u):
    """CDF(ICDF(u)) == u for arbitrary normal parameterisations."""
    dist = get_distribution("normal")
    params = dist.validate_params((mu, sigma))
    x = float(dist.inverse_cdf(params, u))
    assert float(dist.cdf(params, x)) == pytest.approx(u, abs=1e-9)


# ---------------------------------------------------------------------------
# Poisson and Normal kernels against the scipy.stats calls they replaced
# ---------------------------------------------------------------------------

#: Rates whose quantile table fits under the cap, and one whose does not.
TABLE_RATES = (0.01, 0.5, 4.2, 50.0, 1e3)
ABOVE_CAP_RATE = 5e3

NORMAL_PARAMS = ((0.0, 1.0), (5.0, 2.0), (-3.7, 0.013), (1e3, 50.0))


def _identical(got, want):
    """Equal element for element, nan matching nan, same shape."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got, want, equal_nan=True)


def _is_smallest_quantile(lam, u, q):
    """``cdf(q - 1) < u <= cdf(q)``: what ``scipy.stats.poisson.ppf`` documents."""
    below = np.where(q >= 1, sps.poisson.cdf(q - 1, lam), -1.0)
    return (below < u) & (u <= sps.poisson.cdf(q, lam))


def _cdf_steps(lam):
    """Every value ``cdf`` takes strictly inside (0, 1), in order."""
    poisson = get_distribution("poisson")
    reach = 40.0 * math.sqrt(lam) + 50.0
    k = np.arange(max(0.0, math.floor(lam - reach)), math.ceil(lam + reach))
    steps = np.unique(poisson.cdf((lam,), k))
    return steps[(steps > 0.0) & (steps < 1.0)]


def test_poisson_inverse_cdf_leaves_to_scipy_only_what_the_table_cannot_answer(monkeypatch):
    sizes = []

    def counting_ppf(u, lam, ppf=sps.poisson.ppf):
        sizes.append(np.size(u))
        return ppf(u, lam)

    monkeypatch.setattr(sps.poisson, "ppf", counting_ppf)
    poisson = get_distribution("poisson")
    u = np.random.default_rng(20100301).random(1000)
    for lam in TABLE_RATES:
        poisson.inverse_cdf((lam,), u)
    assert sizes == []
    u[[3, 500, 999]] = 0.0, 1.0, np.nan
    for lam in TABLE_RATES:
        poisson.inverse_cdf((lam,), u)
    assert sizes == [3] * len(TABLE_RATES)
    del sizes[:]
    poisson.inverse_cdf((ABOVE_CAP_RATE,), u)
    assert sizes == [1000]


@pytest.mark.parametrize("lam", TABLE_RATES + (ABOVE_CAP_RATE,))
def test_poisson_inverse_cdf_equals_scipy_on_uniforms(lam):
    poisson = get_distribution("poisson")
    u = np.random.default_rng(20100301).random(100000)
    q = poisson.inverse_cdf((lam,), u)
    assert q.dtype == np.float64
    assert _identical(q, sps.poisson.ppf(u, lam))
    assert _is_smallest_quantile(lam, u, q).all()


@pytest.mark.parametrize("lam", TABLE_RATES + (ABOVE_CAP_RATE,))
def test_poisson_inverse_cdf_endpoints_and_invalid_arguments(lam):
    poisson = get_distribution("poisson")
    u = np.array([[0.0, 1.0, np.nan, -0.1],
                  [1.1, 5e-324, np.nextafter(1.0, 0.0), 0.5]])
    want = sps.poisson.ppf(u, lam)
    assert want[0, 0] == -1.0 and want[0, 1] == np.inf  # scipy's endpoints
    assert _identical(poisson.inverse_cdf((lam,), u), want)
    for value, expected in zip(u.ravel(), want.ravel()):
        got = poisson.inverse_cdf((lam,), float(value))
        assert np.ndim(got) == 0 and _identical(got, expected)


@pytest.mark.parametrize("lam", TABLE_RATES)
def test_poisson_inverse_cdf_on_and_beside_every_cdf_value(lam):
    """On a ``cdf`` value and one ulp below it the table and scipy agree.  One
    ulp above, scipy sometimes still answers ``k`` although ``cdf(k) < u`` —
    its ``pdtrik`` root is not exact — so wherever the two differ, the table's
    answer has to be the one scipy documents and scipy's has to miss it."""
    poisson = get_distribution("poisson")
    steps = _cdf_steps(lam)
    assert len(steps) > 5
    for u in (steps, np.nextafter(steps, 0.0)):
        q = poisson.inverse_cdf((lam,), u)
        assert _identical(q, sps.poisson.ppf(u, lam))
        assert _is_smallest_quantile(lam, u, q).all()
    above = np.nextafter(steps, 1.0)
    q = poisson.inverse_cdf((lam,), above)
    reference = sps.poisson.ppf(above, lam)
    differs = q != reference
    assert _is_smallest_quantile(lam, above[differs], q[differs]).all()
    assert not _is_smallest_quantile(lam, above[differs], reference[differs]).any()


def test_poisson_inverse_cdf_above_cap_is_scipy_beside_cdf_values():
    poisson = get_distribution("poisson")
    steps = _cdf_steps(ABOVE_CAP_RATE)
    u = np.concatenate([steps, np.nextafter(steps, 0.0), np.nextafter(steps, 1.0)])
    assert _identical(poisson.inverse_cdf((ABOVE_CAP_RATE,), u),
                      sps.poisson.ppf(u, ABOVE_CAP_RATE))


@pytest.mark.parametrize("lam", TABLE_RATES + (ABOVE_CAP_RATE,))
def test_poisson_inverse_cdf_on_sampler_window_edges(lam):
    """The uniforms a ``[k, inf]`` window can produce at its two ends."""
    from repro.constraints.consistency import check_consistency
    from repro.constraints.independence import groups_for_condition
    from repro.sampling.options import SamplingOptions
    from repro.sampling.samplers import GroupSampler
    from repro.symbolic import VariableFactory, conjunction_of, var

    poisson = get_distribution("poisson")
    x = VariableFactory().create("poisson", (lam,))
    for k in sorted({0, 1, math.floor(lam), math.ceil(lam + 3.0 * math.sqrt(lam))}):
        condition = conjunction_of(var(x) >= k)
        (group,) = groups_for_condition(condition)
        sampler = GroupSampler(group, check_consistency(condition).bounds,
                               lambda arrays: True, rng_from_seed(1), SamplingOptions())
        (slot,) = sampler.layout.univariate_slots
        assert slot.strategy == "cdf" and slot.window_hi == 1.0
        u = np.array([slot.window_lo, slot.window_hi, np.nextafter(slot.window_hi, 0.0)])
        q = poisson.inverse_cdf((lam,), u)
        assert _identical(q, sps.poisson.ppf(u, lam))
        # cdf(k) - pmf(k) is cdf(k - 1) to within rounding, so the lowest
        # uniform of the window answers k - 1 or k — or -1 where it is 0.
        assert q[0] in (k - 1.0, float(k), -1.0) and q[1] == np.inf


POISSON_ARGUMENTS = np.array([
    -np.inf, -7.0, -2.5, -1.0, -0.5, -0.0, 0.0, 0.49, 0.5, 1.0, 2.5, 3.0, 3.999999,
    4.0, 17.0, 49.5, 1e3, 1e3 + 0.5, 5e3, 1e9, np.inf, np.nan,
])


@pytest.mark.parametrize("lam", TABLE_RATES + (ABOVE_CAP_RATE,))
def test_poisson_cdf_and_pdf_equal_scipy(lam):
    poisson = get_distribution("poisson")
    x = POISSON_ARGUMENTS
    with np.errstate(all="ignore"):  # pmf(inf) is nan on both sides
        assert _identical(poisson.cdf((lam,), x), sps.poisson.cdf(np.floor(x), lam))
        assert _identical(poisson.pdf((lam,), x), sps.poisson.pmf(np.round(x), lam))
        assert _identical(poisson.cdf((lam,), x.reshape(2, -1)),
                          sps.poisson.cdf(np.floor(x), lam).reshape(2, -1))
        for value in x.tolist() + [3, 0, -4]:
            for got, want in (
                (poisson.cdf((lam,), value), sps.poisson.cdf(np.floor(value), lam)),
                (poisson.pdf((lam,), value), sps.poisson.pmf(np.round(value), lam)),
            ):
                assert np.ndim(got) == 0 and _identical(got, want)


def test_poisson_domain_unchanged():
    poisson = get_distribution("poisson")
    for lam in (0.5, 4.2, 50.0):
        for value, mass in poisson.domain((lam,)):
            assert mass == float(sps.poisson.pmf(value, lam))


def _normal_arguments(mu, sigma):
    rng = np.random.default_rng(20100301)
    return np.concatenate([
        rng.normal(mu, 3.0 * sigma, 5000),
        mu + sigma * np.array([-40.0, -8.5, -1.0, -0.0, 0.0, 1.0, 8.5, 40.0]),
        [-np.inf, np.inf, np.nan, 0.0, -1.0, 0.5, 1e300, -1e300],
    ])


@pytest.mark.parametrize("mu,sigma", NORMAL_PARAMS)
def test_normal_pdf_and_cdf_equal_scipy(mu, sigma):
    normal = get_distribution("normal")
    x = _normal_arguments(mu, sigma)
    with np.errstate(all="ignore"):
        assert _identical(normal.pdf((mu, sigma), x), sps.norm.pdf(x, loc=mu, scale=sigma))
        assert _identical(normal.cdf((mu, sigma), x), sps.norm.cdf(x, loc=mu, scale=sigma))
        assert _identical(normal.cdf((mu, sigma), x.reshape(4, -1)),
                          sps.norm.cdf(x, loc=mu, scale=sigma).reshape(4, -1))
        for value in x[-40:].tolist() + [3, x[:3].tolist()]:
            for got, want in (
                (normal.pdf((mu, sigma), value), sps.norm.pdf(value, loc=mu, scale=sigma)),
                (normal.cdf((mu, sigma), value), sps.norm.cdf(value, loc=mu, scale=sigma)),
            ):
                assert _identical(got, want)


@pytest.mark.parametrize("mu,sigma", NORMAL_PARAMS)
def test_normal_inverse_cdf_equals_scipy(mu, sigma):
    normal = get_distribution("normal")
    u = np.concatenate([
        np.random.default_rng(20100301).random(5000),
        [0.0, 1.0, np.nan, -0.1, 1.1, 5e-324, 1e-300, np.nextafter(1.0, 0.0), 0.5],
    ])
    with np.errstate(all="ignore"):
        assert _identical(normal.inverse_cdf((mu, sigma), u), sps.norm.ppf(u, loc=mu, scale=sigma))
        for value in u[-12:].tolist():
            got = normal.inverse_cdf((mu, sigma), value)
            assert np.ndim(got) == 0
            assert _identical(got, sps.norm.ppf(value, loc=mu, scale=sigma))


def _normal_mean_in_before(params, interval):
    """``NormalDistribution.mean_in`` as it stood on ``scipy.stats.norm``."""
    mu, sigma = params
    if interval.is_empty:
        return math.nan
    a = (interval.lo - mu) / sigma if math.isfinite(interval.lo) else -math.inf
    b = (interval.hi - mu) / sigma if math.isfinite(interval.hi) else math.inf
    phi_a = sps.norm.pdf(a) if math.isfinite(a) else 0.0
    phi_b = sps.norm.pdf(b) if math.isfinite(b) else 0.0
    cdf_a = sps.norm.cdf(a) if math.isfinite(a) else 0.0
    cdf_b = sps.norm.cdf(b) if math.isfinite(b) else 1.0
    mass = cdf_b - cdf_a
    if mass <= 0.0:
        return math.nan
    return mu + sigma * (phi_a - phi_b) / mass


@pytest.mark.parametrize("mu,sigma", NORMAL_PARAMS)
def test_normal_mean_in_unchanged(mu, sigma):
    normal = get_distribution("normal")
    rng = np.random.default_rng(20100301)
    intervals = [Interval(), Interval.at_least(mu), Interval.at_most(mu - sigma),
                 Interval(mu + 50.0 * sigma, mu + 60.0 * sigma),  # no mass: nan
                 Interval.empty()]                                # nan
    for _ in range(200):
        lo, hi = np.sort(rng.normal(mu, 4.0 * sigma, 2))
        intervals += [Interval(float(lo), float(hi)), Interval.at_least(float(lo)),
                      Interval.at_most(float(hi))]
    for interval in intervals:
        assert _identical(normal.mean_in((mu, sigma), interval),
                          _normal_mean_in_before((mu, sigma), interval))


#: ``capabilities`` of every built-in class at the commit before the kernels
#: changed.  ``has("inverse_cdf")`` moves a class's sampler from ``natural``
#: to ``cdf`` and with it that class's sample streams.
CAPABILITIES_BEFORE = {
    "bernoulli": {"cdf", "mean", "pdf", "variance"},
    "beta": {"cdf", "inverse_cdf", "mean", "pdf", "variance"},
    "binomial": {"cdf", "mean", "pdf", "variance"},
    "categorical": {"cdf", "mean", "pdf", "variance"},
    "discreteuniform": {"cdf", "mean", "pdf", "variance"},
    "exponential": {"cdf", "inverse_cdf", "mean", "mean_in", "pdf", "variance"},
    "gamma": {"cdf", "inverse_cdf", "mean", "pdf", "variance"},
    "geometric": {"cdf", "mean", "pdf", "variance"},
    "laplace": {"cdf", "inverse_cdf", "mean", "pdf", "variance"},
    "lognormal": {"cdf", "inverse_cdf", "mean", "pdf", "variance"},
    "mvnormal": {"mean", "pdf", "variance"},
    "normal": {"cdf", "inverse_cdf", "mean", "mean_in", "pdf", "variance"},
    "pareto": {"cdf", "inverse_cdf", "mean", "pdf", "variance"},
    "poisson": {"cdf", "inverse_cdf", "mean", "pdf", "variance"},
    "studentt": {"cdf", "inverse_cdf", "mean", "pdf", "variance"},
    "triangular": {"cdf", "inverse_cdf", "mean", "pdf", "variance"},
    "uniform": {"cdf", "inverse_cdf", "mean", "mean_in", "pdf", "variance"},
    "weibull": {"cdf", "inverse_cdf", "mean", "pdf", "variance"},
    "zipf": {"cdf", "mean", "pdf", "variance"},
}


@pytest.mark.parametrize("name", sorted(CAPABILITIES_BEFORE))
def test_capabilities_unchanged(name):
    assert get_distribution(name).capabilities == frozenset(CAPABILITIES_BEFORE[name])


# ---------------------------------------------------------------------------
# Statement goldens: rows recorded when bank keys and world seeds became
# BLAKE2b digests (the kernels are pinned to scipy above)
# ---------------------------------------------------------------------------

GOLDEN_SEED = 20100301
GOLDEN_WINDOW = "partkey >= :lo AND partkey < :hi"

#: The six statement shapes of perfbench's ``cold_sampling`` workload over a
#: three-part model, 200 samples: ``(SQL, rows, bank samples_drawn)``.
COLD_GOLDENS = {
    "q5_rejection": (
        "SELECT partkey, expected_sum(demand - supply) AS v FROM model"
        " WHERE demand > supply AND " + GOLDEN_WINDOW + " GROUP BY partkey",
        [(0, 0.41883852858028014), (1, 0.6056910553433211), (2, 0.7221234697447294)], 768),
    "q4_cdf_window": (
        "SELECT partkey, expected_sum(demand * pop * price) AS v FROM model"
        " WHERE pop > 3.0 AND " + GOLDEN_WINDOW + " GROUP BY partkey",
        [(0, 9.304260847011625), (1, 32.038571999938014), (2, 6.947690460366541)], 1536),
    "normal_sum": (
        "SELECT partkey, expected_sum(a) AS v FROM model"
        " WHERE a + b > 11.0 AND " + GOLDEN_WINDOW + " GROUP BY partkey",
        [(0, 2.4924353101700043), (1, 3.1230423493294595), (2, 3.712788912351311)], 768),
    "conf_two_var": (
        "SELECT partkey, conf() AS v FROM model WHERE a > b AND " + GOLDEN_WINDOW,
        [(0, 0.29443359375), (1, 0.501708984375), (2, 0.6728515625)], 12288),
    "avg_ratio": (
        "SELECT expected_avg(demand * pop) AS v FROM model"
        " WHERE pop > 1.0 AND " + GOLDEN_WINDOW,
        [(8.37704558762756,)], 1536),
    "max_worlds": (
        "SELECT expected_max(a + b) AS v FROM model WHERE " + GOLDEN_WINDOW,
        [(12.296338752952986,)], 0),
}


@pytest.mark.parametrize("shape", sorted(COLD_GOLDENS))
def test_cold_sampling_shape_golden(shape):
    from repro import PIPDatabase
    from repro.sampling.options import SamplingOptions

    text, rows, drawn = COLD_GOLDENS[shape]
    db = PIPDatabase(seed=GOLDEN_SEED, options=SamplingOptions(n_samples=200))
    try:
        db.sql("CREATE TABLE parts (partkey int, price float, lam float, theta float,"
               " mu_a float, sd_a float, mu_b float, sd_b float)")
        db.insert_many("parts", [
            (0, 12.5, 3.6, 0.056, 5.1, 0.6, 5.9, 1.4),
            (1, 40.25, 4.2, 0.060, 5.5, 1.0, 5.5, 1.0),
            (2, 7.75, 4.4, 0.064, 5.9, 1.4, 5.2, 0.7),
        ])
        db.register("model", db.sql(
            "SELECT partkey, price,"
            " create_variable('poisson', lam) AS demand,"
            " create_variable('exponential', theta) AS supply,"
            " create_variable('exponential', 1.0) AS pop,"
            " create_variable('normal', mu_a, sd_a) AS a,"
            " create_variable('normal', mu_b, sd_b) AS b FROM parts"))
        assert db.prepare(text).run(lo=0, hi=3).rows() == rows
        assert db.sample_bank.stats()["samples_drawn"] == drawn
    finally:
        db.close()


def test_exact_iceberg_box_golden():
    """perfbench's ``exact_iceberg`` statement: four Normal ``cdf`` calls a
    row, no samples."""
    from repro import PIPDatabase

    db = PIPDatabase(seed=GOLDEN_SEED)
    try:
        db.sql("CREATE TABLE sightings (iceberg_id int, days float, lat0 float,"
               " lon0 float, sd_lat float, sd_lon float)")
        db.insert_many("sightings", [
            (0, 3.5, 44.8, -50.2, 0.4, 1.1),
            (1, 12.0, 45.6, -49.1, 1.3, 0.3),
            (2, 400.0, 45.1, -50.0, 0.7, 0.7),
            (3, 28.9, 47.9, -46.0, 0.9, 0.5),
        ])
        db.register("icebergs", db.sql(
            "SELECT iceberg_id, days,"
            " create_variable('normal', lat0, sd_lat) AS lat,"
            " create_variable('normal', lon0, sd_lon) AS lon FROM sightings"))
        statement = db.prepare(
            "SELECT iceberg_id, conf() AS p FROM icebergs"
            " WHERE lat > :a AND lat < :b AND lon > :c AND lon < :d AND days < :days")
        box = dict(a=44.0, b=46.0, c=-51.0, d=-49.0)
        everything = [(0, 0.6136596670779619), (1, 0.32261724812113657),
                      (2, 0.713648518413341), (3, 1.714101112400456e-11)]
        assert statement.run(dict(box, days=1.0e9)).rows() == everything
        assert statement.run(dict(box, days=30.0)).rows() == [
            row for row in everything if row[0] != 2]
        assert db.sample_bank.stats()["samples_drawn"] == 0
    finally:
        db.close()
