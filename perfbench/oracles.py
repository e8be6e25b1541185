"""Expected results computed without ``repro``: closed forms and numpy.

Every function here is an *independent oracle* — it imports nothing from the
program under test — so a statement counts as failed when its answer is
wrong, not only when it raises.

For a sampled estimate of ``E[Z]`` with ``Z = g(X)·1(condition)`` the oracle
gives the first two moments of ``Z``.  PIP draws ``n`` samples *of the
conditional distribution* and scales by an acceptance estimate taken from at
least ``n`` candidates, which is never noisier than plain Monte Carlo on
``n`` unconditional draws, so ``sqrt(Var Z / n)`` is an upper bound on the
estimate's standard deviation and ``within_sigmas`` a conservative check.
"""

import math

import numpy as np
from scipy.special import ndtr
from scipy.stats import poisson

SIGMAS = 5.0
#: Exact answers (CDF path, deterministic aggregates) must match this closely.
EXACT_TOLERANCE = 1e-9

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _phi(z):
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(z))


def normal_above(mu_a, sd_a, mu_s, sd_s, cov, threshold):
    """Moments of ``a·1(s > threshold)`` for jointly Normal ``(a, s)``.

    Returns ``(P[s > threshold], E[a·1], E[a²·1])``, elementwise.  With
    ``s = μs + σs·W`` and ``a = μa + β(s − μs) + r`` (``r`` independent of
    ``s``), the truncated moments of the standard Normal ``W`` close it.
    """
    z = (threshold - mu_s) / sd_s
    tail = ndtr(-z)
    density = _phi(z)
    beta_sd = cov / sd_s  # β·σs
    residual_var = np.square(sd_a) - np.square(beta_sd)
    first = mu_a * tail + beta_sd * density
    second = (
        np.square(mu_a) * tail
        + 2.0 * mu_a * beta_sd * density
        + np.square(beta_sd) * (tail + z * density)
        + residual_var * tail
    )
    return tail, first, second


def normal_a_given_a_above_b(mu_a, sd_a, mu_b, sd_b):
    """``normal_above`` for the event ``a > b``, independent Normals."""
    sd_s = np.sqrt(np.square(sd_a) + np.square(sd_b))
    return normal_above(mu_a, sd_a, mu_a - mu_b, sd_s, np.square(sd_a), 0.0)


def normal_a_given_sum_above(mu_a, sd_a, mu_b, sd_b, threshold):
    """``normal_above`` for the event ``a + b > threshold``."""
    sd_s = np.sqrt(np.square(sd_a) + np.square(sd_b))
    return normal_above(mu_a, sd_a, mu_a + mu_b, sd_s, np.square(sd_a), threshold)


def poisson_over_exponential(lam, theta):
    """Moments of ``(D − S)·1(D > S)``, ``D ~ Poisson(lam)``, ``S ~ Exp(rate
    theta)`` — the paper's Q5 shape.  Returns ``(P[D > S], E[Z], E[Z²])``.

    Conditioning on ``D = d``: ``∫₀ᵈ (d−s)ᵏ θe^{−θs} ds`` is
    ``1 − e^{−θd}``, ``d − (1 − e^{−θd})/θ`` and
    ``d² − 2d/θ + 2(1 − e^{−θd})/θ²`` for ``k = 0, 1, 2``.
    """
    lam = np.asarray(lam, dtype=float)[:, None]
    theta = np.asarray(theta, dtype=float)[:, None]
    top = int(lam.max() + 12.0 * math.sqrt(lam.max()) + 20.0)
    d = np.arange(1, top + 1, dtype=float)[None, :]
    mass = poisson.pmf(d, lam)
    hit = -np.expm1(-theta * d)  # 1 − e^{−θd}
    prob = (mass * hit).sum(axis=1)
    first = (mass * (d - hit / theta)).sum(axis=1)
    second = (mass * (d * d - 2.0 * d / theta + 2.0 * hit / (theta * theta))).sum(axis=1)
    return prob, first, second


def poisson_times_exponential_tail(lam, scale, threshold):
    """Moments of ``scale·D·P·1(P > threshold)``, ``D ~ Poisson(lam)``,
    ``P ~ Exp(1)`` independent — the paper's Q4 shape.  Returns
    ``(P[P > t], E[Z], E[Z²])``."""
    lam = np.asarray(lam, dtype=float)
    t = threshold
    tail = math.exp(-t)
    first = scale * lam * (t + 1.0) * tail
    second = np.square(scale) * (lam + np.square(lam)) * (t * t + 2.0 * t + 2.0) * tail
    return np.full(lam.shape, tail), first, second


def box_probability(lat0, lon0, sd_lat, sd_lon, box):
    """P[lat in (a, b) and lon in (c, d)] for independent Normals."""
    a, b, c, d = box
    in_lat = ndtr((b - lat0) / sd_lat) - ndtr((a - lat0) / sd_lat)
    in_lon = ndtr((d - lon0) / sd_lon) - ndtr((c - lon0) / sd_lon)
    return in_lat * in_lon


def normal_tail(mu, sd, threshold):
    """P[x > threshold] for a Normal."""
    return ndtr((mu - threshold) / sd)


def max_of_normal_sums(mu, sd, n_worlds, rng):
    """Monte Carlo reference for ``E[max_i x_i]`` over independent Normals
    (no closed form): returns ``(mean, std of the max)``."""
    worlds = rng.normal(mu, sd, size=(n_worlds, len(mu))).max(axis=1)
    return float(worlds.mean()), float(worlds.std())


def sigma_bound(first, second, n):
    """Upper bound on the standard deviation of an ``n``-sample estimate."""
    return np.sqrt(np.maximum(second - np.square(first), 0.0) / n)


def within_sigmas(estimate, truth, sigma):
    """Whether every estimate is within ``SIGMAS`` of its truth (with a
    floating-point floor so exact answers compare too)."""
    estimate = np.asarray(estimate, dtype=float)
    slack = SIGMAS * np.asarray(sigma) + EXACT_TOLERANCE * (1.0 + np.abs(truth))
    return bool(np.all(np.abs(estimate - truth) <= slack))


def relative_errors(estimate, truth):
    """``(estimate − truth)/truth`` for the cells whose truth is not tiny."""
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    keep = np.abs(truth) > 1e-6
    return ((estimate[keep] - truth[keep]) / truth[keep]).tolist()
