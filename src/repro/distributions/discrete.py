"""Discrete distribution classes.

Discrete variables in PIP can be *exploded*: a row containing a discrete
variable is replaced by one row per domain value, guarded by a ``X = v``
condition atom (Section III-C).  To support this, every class here exposes
:meth:`DiscreteDistribution.domain`, enumerating ``(value, probability)``
pairs.  Countably infinite distributions (Poisson, Geometric) enumerate a
prefix that covers all but :attr:`tail_mass` of the probability — the paper
assumes finite domains throughout, so this truncation only widens what we
can express.
"""

import math

import numpy as np
from scipy import special
from scipy import stats as sps

from repro.distributions.base import DiscreteDistribution, register_distribution
from repro.util.errors import DistributionError
from repro.util.intervals import Interval


def _require(cond, message):
    if not cond:
        raise DistributionError(message)


#: Most entries a Poisson quantile table may hold.  A rate whose table would
#: be larger (above ~1500) is inverted by scipy: building the table costs
#: about a microsecond an entry there, on every call.
QUANTILE_TABLE_CAP = 1024


class PoissonDistribution(DiscreteDistribution):
    """Poisson(lam).

    ``pdf`` and ``cdf`` evaluate the expressions ``scipy.stats.poisson``
    evaluates, without its argument checking and broadcasting; their values
    are the same to the bit.
    """

    name = "poisson"

    def validate_params(self, params):
        _require(len(params) == 1, "poisson expects (lam,)")
        lam = float(params[0])
        _require(lam > 0, "poisson rate must be positive")
        return (lam,)

    def generate_batch(self, params, rng, size):
        (lam,) = params
        return rng.poisson(lam, size).astype(float)

    def pdf(self, params, x):
        (lam,) = params
        k = np.round(x)
        mass = np.exp(special.xlogy(k, lam) - special.gammaln(k + 1) - lam)
        return np.where(k < 0, 0.0, mass)[()]

    def cdf(self, params, x):
        (lam,) = params
        k = np.floor(x)
        return np.where(k < 0, 0.0, special.pdtr(k, lam))[()]

    def inverse_cdf(self, params, u):
        """Smallest ``k`` with ``cdf(k) >= u``, found by binary search in the
        table of ``cdf`` over ``mean ± (12 sd + 32)``.

        The table holds what :meth:`cdf` returns, so a window edge the
        sampler computed with ``cdf`` sits exactly on an entry.  Everything
        the table cannot answer is left to ``scipy.stats.poisson.ppf``: the
        endpoints it maps to -1 and inf, ``u`` outside [0, 1] or nan, ``u``
        beyond either end of the table, and rates above
        :data:`QUANTILE_TABLE_CAP`.  Where the table answers, it equals
        scipy except in a band of ~1e-12 (relative) above each ``cdf(k)``,
        in which scipy's root finder still returns ``k``.
        """
        (lam,) = params
        spread = 12.0 * math.sqrt(lam) + 32.0
        lo = max(0, math.floor(lam - spread))
        hi = math.ceil(lam + spread)
        if hi - lo >= QUANTILE_TABLE_CAP:
            return sps.poisson.ppf(u, lam)
        shape = np.shape(u)
        u = np.asarray(u, dtype=float).reshape(-1)
        table = special.pdtr(np.arange(lo, hi + 1, dtype=float), lam)
        index = np.searchsorted(table, u, side="left")
        quantile = index + float(lo)
        # nan sorts past the last entry; below a first entry that is not
        # k = 0 the answer lies left of the table.
        unanswered = (index == len(table)) | (u <= 0.0) | (u >= 1.0)
        if lo > 0:
            unanswered |= index == 0
        if unanswered.any():
            quantile[unanswered] = sps.poisson.ppf(u[unanswered], lam)
        return quantile.reshape(shape)[()]

    def mean(self, params):
        return params[0]

    def variance(self, params):
        return params[0]

    def support(self, params):
        return Interval.at_least(0.0)

    def domain(self, params):
        (lam,) = params
        k = 0
        remaining = 1.0
        while remaining > self.tail_mass:
            p = float(self.pdf(params, k))
            yield (float(k), p)
            remaining -= p
            k += 1
            if k > lam + 40 * math.sqrt(lam) + 50:
                break


class BernoulliDistribution(DiscreteDistribution):
    """Bernoulli(p) over {0, 1}."""

    name = "bernoulli"

    def validate_params(self, params):
        _require(len(params) == 1, "bernoulli expects (p,)")
        p = float(params[0])
        _require(0.0 <= p <= 1.0, "bernoulli p must lie in [0, 1]")
        return (p,)

    def generate_batch(self, params, rng, size):
        (p,) = params
        return (rng.random(size) < p).astype(float)

    def pdf(self, params, x):
        (p,) = params
        x = np.asarray(x, dtype=float)
        return np.where(x == 1.0, p, np.where(x == 0.0, 1.0 - p, 0.0))

    def cdf(self, params, x):
        (p,) = params
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, np.where(x < 1.0, 1.0 - p, 1.0))

    def mean(self, params):
        return params[0]

    def variance(self, params):
        p = params[0]
        return p * (1.0 - p)

    def support(self, params):
        return Interval(0.0, 1.0)

    def domain(self, params):
        (p,) = params
        yield (0.0, 1.0 - p)
        yield (1.0, p)


class BinomialDistribution(DiscreteDistribution):
    """Binomial(n, p)."""

    name = "binomial"

    def validate_params(self, params):
        _require(len(params) == 2, "binomial expects (n, p)")
        n, p = int(params[0]), float(params[1])
        _require(n >= 0 and 0.0 <= p <= 1.0, "need n >= 0 and p in [0, 1]")
        return (n, p)

    def generate_batch(self, params, rng, size):
        n, p = params
        return rng.binomial(n, p, size).astype(float)

    def pdf(self, params, x):
        n, p = params
        return sps.binom.pmf(np.round(x), n, p)

    def cdf(self, params, x):
        n, p = params
        return sps.binom.cdf(np.floor(x), n, p)

    def mean(self, params):
        n, p = params
        return n * p

    def variance(self, params):
        n, p = params
        return n * p * (1.0 - p)

    def support(self, params):
        return Interval(0.0, float(params[0]))

    def domain(self, params):
        n, p = params
        for k in range(n + 1):
            yield (float(k), float(sps.binom.pmf(k, n, p)))


class GeometricDistribution(DiscreteDistribution):
    """Geometric(p): number of trials until first success, support {1, 2, …}."""

    name = "geometric"

    def validate_params(self, params):
        _require(len(params) == 1, "geometric expects (p,)")
        p = float(params[0])
        _require(0.0 < p <= 1.0, "geometric p must lie in (0, 1]")
        return (p,)

    def generate_batch(self, params, rng, size):
        (p,) = params
        return rng.geometric(p, size).astype(float)

    def pdf(self, params, x):
        (p,) = params
        return sps.geom.pmf(np.round(x), p)

    def cdf(self, params, x):
        (p,) = params
        return sps.geom.cdf(np.floor(x), p)

    def mean(self, params):
        return 1.0 / params[0]

    def variance(self, params):
        p = params[0]
        return (1.0 - p) / (p * p)

    def support(self, params):
        return Interval.at_least(1.0)

    def domain(self, params):
        (p,) = params
        k = 1
        remaining = 1.0
        while remaining > self.tail_mass:
            mass = p * (1.0 - p) ** (k - 1)
            yield (float(k), mass)
            remaining -= mass
            k += 1
            if k > 64 / max(p, 1e-9):
                break


class DiscreteUniformDistribution(DiscreteDistribution):
    """DiscreteUniform(lo, hi): integers lo..hi inclusive, equiprobable."""

    name = "discreteuniform"

    def validate_params(self, params):
        _require(len(params) == 2, "discreteuniform expects (lo, hi)")
        lo, hi = int(params[0]), int(params[1])
        _require(lo <= hi, "discreteuniform requires lo <= hi")
        return (lo, hi)

    def generate_batch(self, params, rng, size):
        lo, hi = params
        return rng.integers(lo, hi + 1, size).astype(float)

    def pdf(self, params, x):
        lo, hi = params
        x = np.asarray(x, dtype=float)
        n = hi - lo + 1
        in_domain = (x >= lo) & (x <= hi) & (x == np.round(x))
        return np.where(in_domain, 1.0 / n, 0.0)

    def cdf(self, params, x):
        lo, hi = params
        x = np.floor(np.asarray(x, dtype=float))
        n = hi - lo + 1
        return np.clip((x - lo + 1) / n, 0.0, 1.0)

    def mean(self, params):
        lo, hi = params
        return 0.5 * (lo + hi)

    def variance(self, params):
        lo, hi = params
        n = hi - lo + 1
        return (n * n - 1) / 12.0

    def support(self, params):
        return Interval(float(params[0]), float(params[1]))

    def domain(self, params):
        lo, hi = params
        n = hi - lo + 1
        for value in range(lo, hi + 1):
            yield (float(value), 1.0 / n)


class CategoricalDistribution(DiscreteDistribution):
    """Categorical(v1, p1, v2, p2, …): explicit finite value/probability list.

    This is the workhorse of the repair-key construction (Section V-A
    footnote: "for discrete distributions, PIP uses a repair-key operator").
    Parameters come flattened so they survive the string encoding the SQL
    front end uses.
    """

    name = "categorical"

    def validate_params(self, params):
        _require(len(params) >= 2 and len(params) % 2 == 0,
                 "categorical expects (v1, p1, v2, p2, …)")
        values = [float(v) for v in params[0::2]]
        probs = [float(p) for p in params[1::2]]
        _require(all(p >= 0 for p in probs), "probabilities must be >= 0")
        total = sum(probs)
        _require(total > 0, "probabilities must not all be zero")
        probs = [p / total for p in probs]
        _require(len(set(values)) == len(values), "values must be distinct")
        order = sorted(range(len(values)), key=lambda i: values[i])
        flat = []
        for i in order:
            flat.extend((values[i], probs[i]))
        return tuple(flat)

    def _pairs(self, params):
        return list(zip(params[0::2], params[1::2]))

    def generate_batch(self, params, rng, size):
        pairs = self._pairs(params)
        values = np.array([v for v, _ in pairs])
        probs = np.array([p for _, p in pairs])
        return rng.choice(values, size=size, p=probs)

    def pdf(self, params, x):
        pairs = self._pairs(params)
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for value, prob in pairs:
            out = np.where(x == value, prob, out)
        return out

    def cdf(self, params, x):
        pairs = self._pairs(params)
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for value, prob in pairs:
            out = out + np.where(x >= value, prob, 0.0)
        return out

    def mean(self, params):
        return sum(v * p for v, p in self._pairs(params))

    def variance(self, params):
        mu = self.mean(params)
        return sum(p * (v - mu) ** 2 for v, p in self._pairs(params))

    def support(self, params):
        pairs = self._pairs(params)
        return Interval(pairs[0][0], pairs[-1][0])

    def domain(self, params):
        for value, prob in self._pairs(params):
            yield (value, prob)


class ZipfDistribution(DiscreteDistribution):
    """Zipf(s, n): ranks 1..n with probability proportional to 1/rank^s."""

    name = "zipf"

    def validate_params(self, params):
        _require(len(params) == 2, "zipf expects (s, n)")
        s, n = float(params[0]), int(params[1])
        _require(s > 0 and n >= 1, "zipf needs s > 0 and n >= 1")
        return (s, n)

    def _probs(self, params):
        s, n = params
        weights = np.arange(1, n + 1, dtype=float) ** (-s)
        return weights / weights.sum()

    def generate_batch(self, params, rng, size):
        _s, n = params
        probs = self._probs(params)
        return rng.choice(np.arange(1, n + 1, dtype=float), size=size, p=probs)

    def pdf(self, params, x):
        _s, n = params
        probs = self._probs(params)
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        idx = np.round(x).astype(int)
        ok = (x == np.round(x)) & (idx >= 1) & (idx <= n)
        out[ok] = probs[idx[ok] - 1]
        return out

    def cdf(self, params, x):
        _s, n = params
        cum = np.concatenate([[0.0], np.cumsum(self._probs(params))])
        x = np.floor(np.asarray(x, dtype=float)).astype(int)
        x = np.clip(x, 0, n)
        return cum[x]

    def mean(self, params):
        _s, n = params
        probs = self._probs(params)
        return float(np.dot(np.arange(1, n + 1), probs))

    def variance(self, params):
        _s, n = params
        probs = self._probs(params)
        ranks = np.arange(1, n + 1, dtype=float)
        mu = float(np.dot(ranks, probs))
        return float(np.dot((ranks - mu) ** 2, probs))

    def support(self, params):
        return Interval(1.0, float(params[1]))

    def domain(self, params):
        _s, n = params
        probs = self._probs(params)
        for rank in range(1, n + 1):
            yield (float(rank), float(probs[rank - 1]))


DISCRETE_CLASSES = (
    PoissonDistribution,
    BernoulliDistribution,
    BinomialDistribution,
    GeometricDistribution,
    DiscreteUniformDistribution,
    CategoricalDistribution,
    ZipfDistribution,
)


def register_discrete():
    """Register every built-in discrete class (idempotent)."""
    for cls in DISCRETE_CLASSES:
        register_distribution(cls)
