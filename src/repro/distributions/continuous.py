"""Continuous distribution classes.

Every class provides ``generate_batch`` (the mandatory ``Generate``) plus
the optional ``pdf``/``cdf``/``inverse_cdf``/``mean``/``variance``/``support``
accelerators where closed forms exist.  scipy supplies the special
functions; sampling itself goes through numpy's Generator so streams stay
reproducible under our seed-derivation scheme.
"""

import math

import numpy as np
from scipy import special
from scipy import stats as sps

from repro.distributions.base import Distribution, cdf_at, register_distribution
from repro.util.errors import DistributionError
from repro.util.intervals import Interval


def _require(cond, message):
    if not cond:
        raise DistributionError(message)


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _standard_normal_pdf(z):
    return np.exp(-(z * z) / 2.0) / _SQRT_2PI


def _standard_normal_cdf(_params, z):
    return special.ndtr(z)


class NormalDistribution(Distribution):
    """Normal(mu, sigma) — sigma is the *standard deviation*.

    The paper writes ``Normal(mu, sigma^2)``; we accept the standard
    deviation, matching numpy/scipy conventions, and document it here to
    avoid silent misparameterisation.

    ``pdf``, ``cdf`` and ``inverse_cdf`` evaluate the expressions
    ``scipy.stats.norm`` evaluates, in its order of operations and without
    its argument checking and broadcasting; their values are the same to the
    bit.
    """

    name = "normal"

    def validate_params(self, params):
        _require(len(params) == 2, "normal expects (mu, sigma)")
        mu, sigma = float(params[0]), float(params[1])
        _require(sigma > 0, "normal sigma must be positive")
        return (mu, sigma)

    def generate_batch(self, params, rng, size):
        mu, sigma = params
        return rng.normal(mu, sigma, size)

    def pdf(self, params, x):
        mu, sigma = params
        x = np.asarray(x, dtype=float)
        return _standard_normal_pdf((x - mu) / sigma) / sigma

    def cdf(self, params, x):
        mu, sigma = params
        if type(x) is not float:  # a Python float takes the same IEEE steps
            x = np.asarray(x, dtype=float)
        return special.ndtr((x - mu) / sigma)

    def inverse_cdf(self, params, u):
        mu, sigma = params
        u = np.asarray(u, dtype=float)
        return special.ndtri(u) * sigma + mu

    def mean(self, params):
        return params[0]

    def variance(self, params):
        return params[1] ** 2

    def mean_in(self, params, interval):
        """Truncated-normal mean on a (possibly half-open) interval."""
        mu, sigma = params
        if interval.is_empty:
            return math.nan
        a = (interval.lo - mu) / sigma  # an infinite edge keeps its sign
        b = (interval.hi - mu) / sigma
        phi_a = _standard_normal_pdf(a) if math.isfinite(a) else 0.0
        phi_b = _standard_normal_pdf(b) if math.isfinite(b) else 0.0
        cdf_a = cdf_at(_standard_normal_cdf, None, a)
        cdf_b = cdf_at(_standard_normal_cdf, None, b)
        mass = cdf_b - cdf_a
        if mass <= 0.0:
            return math.nan
        return mu + sigma * (phi_a - phi_b) / mass


class UniformDistribution(Distribution):
    """Uniform(lo, hi) over the closed interval [lo, hi]."""

    name = "uniform"

    def validate_params(self, params):
        _require(len(params) == 2, "uniform expects (lo, hi)")
        lo, hi = float(params[0]), float(params[1])
        _require(lo < hi, "uniform requires lo < hi")
        return (lo, hi)

    def generate_batch(self, params, rng, size):
        lo, hi = params
        return rng.uniform(lo, hi, size)

    def pdf(self, params, x):
        lo, hi = params
        x = np.asarray(x, dtype=float)
        return np.where((x >= lo) & (x <= hi), 1.0 / (hi - lo), 0.0)

    def cdf(self, params, x):
        lo, hi = params
        x = np.asarray(x, dtype=float)
        return np.clip((x - lo) / (hi - lo), 0.0, 1.0)

    def inverse_cdf(self, params, u):
        lo, hi = params
        u = np.asarray(u, dtype=float)
        return lo + u * (hi - lo)

    def mean(self, params):
        lo, hi = params
        return 0.5 * (lo + hi)

    def variance(self, params):
        lo, hi = params
        return (hi - lo) ** 2 / 12.0

    def mean_in(self, params, interval):
        """Conditioned uniform: midpoint of the clipped interval."""
        lo, hi = params
        clipped = interval.intersect(Interval(lo, hi))
        if clipped.is_empty:
            return math.nan
        return 0.5 * (clipped.lo + clipped.hi)

    def support(self, params):
        return Interval(params[0], params[1])


class ExponentialDistribution(Distribution):
    """Exponential(rate) with density rate * exp(-rate * x) on x >= 0."""

    name = "exponential"

    def validate_params(self, params):
        _require(len(params) == 1, "exponential expects (rate,)")
        rate = float(params[0])
        _require(rate > 0, "exponential rate must be positive")
        return (rate,)

    def generate_batch(self, params, rng, size):
        (rate,) = params
        return rng.exponential(1.0 / rate, size)

    def pdf(self, params, x):
        (rate,) = params
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, rate * np.exp(-rate * x), 0.0)

    def cdf(self, params, x):
        (rate,) = params
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, -np.expm1(-rate * x), 0.0)

    def inverse_cdf(self, params, u):
        (rate,) = params
        u = np.asarray(u, dtype=float)
        return -np.log1p(-u) / rate

    def mean(self, params):
        return 1.0 / params[0]

    def variance(self, params):
        return 1.0 / params[0] ** 2

    def mean_in(self, params, interval):
        """Truncated-exponential mean (memorylessness below, finite-window
        correction above)."""
        (rate,) = params
        clipped = interval.intersect(Interval.at_least(0.0))
        if clipped.is_empty:
            return math.nan
        a = clipped.lo
        if not math.isfinite(clipped.hi):
            return a + 1.0 / rate
        width = clipped.hi - a
        if width <= 0.0:
            return a
        # E[X | a <= X <= b] = a + 1/rate - width * e^{-rate*width} /
        #                                          (1 - e^{-rate*width})
        decay = math.exp(-rate * width)
        return a + 1.0 / rate - width * decay / (1.0 - decay)

    def support(self, params):
        return Interval.at_least(0.0)


class GammaDistribution(Distribution):
    """Gamma(shape, scale)."""

    name = "gamma"

    def validate_params(self, params):
        _require(len(params) == 2, "gamma expects (shape, scale)")
        shape, scale = float(params[0]), float(params[1])
        _require(shape > 0 and scale > 0, "gamma parameters must be positive")
        return (shape, scale)

    def generate_batch(self, params, rng, size):
        shape, scale = params
        return rng.gamma(shape, scale, size)

    def pdf(self, params, x):
        shape, scale = params
        return sps.gamma.pdf(x, a=shape, scale=scale)

    def cdf(self, params, x):
        shape, scale = params
        return sps.gamma.cdf(x, a=shape, scale=scale)

    def inverse_cdf(self, params, u):
        shape, scale = params
        return sps.gamma.ppf(u, a=shape, scale=scale)

    def mean(self, params):
        shape, scale = params
        return shape * scale

    def variance(self, params):
        shape, scale = params
        return shape * scale * scale

    def support(self, params):
        return Interval.at_least(0.0)


class BetaDistribution(Distribution):
    """Beta(alpha, beta) on [0, 1]."""

    name = "beta"

    def validate_params(self, params):
        _require(len(params) == 2, "beta expects (alpha, beta)")
        a, b = float(params[0]), float(params[1])
        _require(a > 0 and b > 0, "beta parameters must be positive")
        return (a, b)

    def generate_batch(self, params, rng, size):
        a, b = params
        return rng.beta(a, b, size)

    def pdf(self, params, x):
        a, b = params
        return sps.beta.pdf(x, a, b)

    def cdf(self, params, x):
        a, b = params
        return sps.beta.cdf(x, a, b)

    def inverse_cdf(self, params, u):
        a, b = params
        return sps.beta.ppf(u, a, b)

    def mean(self, params):
        a, b = params
        return a / (a + b)

    def variance(self, params):
        a, b = params
        return a * b / ((a + b) ** 2 * (a + b + 1.0))

    def support(self, params):
        return Interval(0.0, 1.0)


class LogNormalDistribution(Distribution):
    """LogNormal(mu, sigma): exp of a Normal(mu, sigma) variate."""

    name = "lognormal"

    def validate_params(self, params):
        _require(len(params) == 2, "lognormal expects (mu, sigma)")
        mu, sigma = float(params[0]), float(params[1])
        _require(sigma > 0, "lognormal sigma must be positive")
        return (mu, sigma)

    def generate_batch(self, params, rng, size):
        mu, sigma = params
        return rng.lognormal(mu, sigma, size)

    def pdf(self, params, x):
        mu, sigma = params
        return sps.lognorm.pdf(x, s=sigma, scale=math.exp(mu))

    def cdf(self, params, x):
        mu, sigma = params
        return sps.lognorm.cdf(x, s=sigma, scale=math.exp(mu))

    def inverse_cdf(self, params, u):
        mu, sigma = params
        return sps.lognorm.ppf(u, s=sigma, scale=math.exp(mu))

    def mean(self, params):
        mu, sigma = params
        return math.exp(mu + sigma * sigma / 2.0)

    def variance(self, params):
        mu, sigma = params
        s2 = sigma * sigma
        return (math.exp(s2) - 1.0) * math.exp(2.0 * mu + s2)

    def support(self, params):
        return Interval.at_least(0.0)


class LaplaceDistribution(Distribution):
    """Laplace(mu, b) — double-exponential around mu with scale b."""

    name = "laplace"

    def validate_params(self, params):
        _require(len(params) == 2, "laplace expects (mu, b)")
        mu, b = float(params[0]), float(params[1])
        _require(b > 0, "laplace scale must be positive")
        return (mu, b)

    def generate_batch(self, params, rng, size):
        mu, b = params
        return rng.laplace(mu, b, size)

    def pdf(self, params, x):
        mu, b = params
        x = np.asarray(x, dtype=float)
        return np.exp(-np.abs(x - mu) / b) / (2.0 * b)

    def cdf(self, params, x):
        mu, b = params
        x = np.asarray(x, dtype=float)
        return np.where(
            x < mu,
            0.5 * np.exp((x - mu) / b),
            1.0 - 0.5 * np.exp(-(x - mu) / b),
        )

    def inverse_cdf(self, params, u):
        mu, b = params
        u = np.asarray(u, dtype=float)
        return np.where(
            u < 0.5,
            mu + b * np.log(2.0 * u),
            mu - b * np.log(2.0 * (1.0 - u)),
        )

    def mean(self, params):
        return params[0]

    def variance(self, params):
        return 2.0 * params[1] ** 2


class TriangularDistribution(Distribution):
    """Triangular(lo, mode, hi)."""

    name = "triangular"

    def validate_params(self, params):
        _require(len(params) == 3, "triangular expects (lo, mode, hi)")
        lo, mode, hi = (float(p) for p in params)
        _require(lo <= mode <= hi and lo < hi, "need lo <= mode <= hi, lo < hi")
        return (lo, mode, hi)

    def generate_batch(self, params, rng, size):
        lo, mode, hi = params
        return rng.triangular(lo, mode, hi, size)

    def pdf(self, params, x):
        lo, mode, hi = params
        c = (mode - lo) / (hi - lo)
        return sps.triang.pdf(x, c, loc=lo, scale=hi - lo)

    def cdf(self, params, x):
        lo, mode, hi = params
        c = (mode - lo) / (hi - lo)
        return sps.triang.cdf(x, c, loc=lo, scale=hi - lo)

    def inverse_cdf(self, params, u):
        lo, mode, hi = params
        c = (mode - lo) / (hi - lo)
        return sps.triang.ppf(u, c, loc=lo, scale=hi - lo)

    def mean(self, params):
        lo, mode, hi = params
        return (lo + mode + hi) / 3.0

    def variance(self, params):
        lo, mode, hi = params
        return (
            lo * lo + mode * mode + hi * hi - lo * mode - lo * hi - mode * hi
        ) / 18.0

    def support(self, params):
        return Interval(params[0], params[2])


class WeibullDistribution(Distribution):
    """Weibull(shape, scale)."""

    name = "weibull"

    def validate_params(self, params):
        _require(len(params) == 2, "weibull expects (shape, scale)")
        shape, scale = float(params[0]), float(params[1])
        _require(shape > 0 and scale > 0, "weibull parameters must be positive")
        return (shape, scale)

    def generate_batch(self, params, rng, size):
        shape, scale = params
        return scale * rng.weibull(shape, size)

    def pdf(self, params, x):
        shape, scale = params
        return sps.weibull_min.pdf(x, shape, scale=scale)

    def cdf(self, params, x):
        shape, scale = params
        return sps.weibull_min.cdf(x, shape, scale=scale)

    def inverse_cdf(self, params, u):
        shape, scale = params
        return sps.weibull_min.ppf(u, shape, scale=scale)

    def mean(self, params):
        shape, scale = params
        return scale * math.gamma(1.0 + 1.0 / shape)

    def variance(self, params):
        shape, scale = params
        g1 = math.gamma(1.0 + 1.0 / shape)
        g2 = math.gamma(1.0 + 2.0 / shape)
        return scale * scale * (g2 - g1 * g1)

    def support(self, params):
        return Interval.at_least(0.0)


class ParetoDistribution(Distribution):
    """Pareto(alpha, x_min): density alpha x_min^alpha / x^(alpha+1)."""

    name = "pareto"

    def validate_params(self, params):
        _require(len(params) == 2, "pareto expects (alpha, x_min)")
        alpha, x_min = float(params[0]), float(params[1])
        _require(alpha > 0 and x_min > 0, "pareto parameters must be positive")
        return (alpha, x_min)

    def generate_batch(self, params, rng, size):
        alpha, x_min = params
        return x_min * (1.0 + rng.pareto(alpha, size))

    def pdf(self, params, x):
        alpha, x_min = params
        return sps.pareto.pdf(x, alpha, scale=x_min)

    def cdf(self, params, x):
        alpha, x_min = params
        return sps.pareto.cdf(x, alpha, scale=x_min)

    def inverse_cdf(self, params, u):
        alpha, x_min = params
        return sps.pareto.ppf(u, alpha, scale=x_min)

    def mean(self, params):
        alpha, x_min = params
        if alpha <= 1.0:
            return math.inf
        return alpha * x_min / (alpha - 1.0)

    def variance(self, params):
        alpha, x_min = params
        if alpha <= 2.0:
            return math.inf
        return x_min * x_min * alpha / ((alpha - 1.0) ** 2 * (alpha - 2.0))

    def support(self, params):
        return Interval.at_least(params[1])


class StudentTDistribution(Distribution):
    """StudentT(df, loc, scale)."""

    name = "studentt"

    def validate_params(self, params):
        if len(params) == 1:
            params = (params[0], 0.0, 1.0)
        _require(len(params) == 3, "studentt expects (df[, loc, scale])")
        df, loc, scale = float(params[0]), float(params[1]), float(params[2])
        _require(df > 0 and scale > 0, "studentt needs df > 0 and scale > 0")
        return (df, loc, scale)

    def generate_batch(self, params, rng, size):
        df, loc, scale = params
        return loc + scale * rng.standard_t(df, size)

    def pdf(self, params, x):
        df, loc, scale = params
        return sps.t.pdf(x, df, loc=loc, scale=scale)

    def cdf(self, params, x):
        df, loc, scale = params
        return sps.t.cdf(x, df, loc=loc, scale=scale)

    def inverse_cdf(self, params, u):
        df, loc, scale = params
        return sps.t.ppf(u, df, loc=loc, scale=scale)

    def mean(self, params):
        df, loc, _scale = params
        if df <= 1.0:
            return math.nan
        return loc

    def variance(self, params):
        df, _loc, scale = params
        if df <= 2.0:
            return math.inf
        return scale * scale * df / (df - 2.0)


CONTINUOUS_CLASSES = (
    NormalDistribution,
    UniformDistribution,
    ExponentialDistribution,
    GammaDistribution,
    BetaDistribution,
    LogNormalDistribution,
    LaplaceDistribution,
    TriangularDistribution,
    WeibullDistribution,
    ParetoDistribution,
    StudentTDistribution,
)


def register_continuous():
    """Register every built-in continuous class (idempotent)."""
    for cls in CONTINUOUS_CLASSES:
        register_distribution(cls)
