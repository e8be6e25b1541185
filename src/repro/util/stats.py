"""Streaming statistics and error metrics.

Algorithm 4.3 maintains ``Sum`` and ``SumSq`` accumulators to decide when the
(epsilon, delta) precision goal is met; :class:`RunningStats` packages that
bookkeeping (as Welford's algorithm, which is numerically safer than the
naive sum-of-squares the pseudocode shows).  The module also carries the RMS
error metric used by Figure 7 of the paper.
"""

import math

import numpy as np

_sum = np.add.reduce  # what ``ndarray.sum`` and ``ndarray.mean`` call


class RunningStats:
    """Welford online mean/variance accumulator.

    Supports scalar updates and batched numpy updates; the two may be mixed.
    """

    __slots__ = ("count", "_mean", "_m2")

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def update(self, value):
        """Add one observation."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    def update_batch(self, values):
        """Add a batch of observations (numpy array or sequence)."""
        values = np.asarray(values, dtype=float)
        n_b = values.size
        if n_b == 0:
            return
        # ``values.mean()`` and ``((values - mean) ** 2).sum()`` bit for bit
        # (the same pairwise ``add.reduce``, the same division) without
        # their Python-level numpy wrappers: this runs once per result row.
        mean_b = float(_sum(values, None) / n_b)
        deviations = values - mean_b
        m2_b = float(_sum(deviations * deviations, None))
        if self.count == 0:
            self.count = n_b
            self._mean = mean_b
            self._m2 = m2_b
            return
        n_a = self.count
        delta = mean_b - self._mean
        total = n_a + n_b
        self._mean += delta * n_b / total
        self._m2 += m2_b + delta * delta * n_a * n_b / total
        self.count = total

    @property
    def mean(self):
        return self._mean if self.count else math.nan

    @property
    def variance(self):
        """Population variance (the estimator Algorithm 4.3 uses)."""
        if self.count == 0:
            return math.nan
        return self._m2 / self.count

    @property
    def sample_variance(self):
        """Unbiased sample variance."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    @property
    def stddev(self):
        var = self.variance
        return math.sqrt(var) if var == var else math.nan

    @property
    def stderr(self):
        """Standard error of the mean."""
        if self.count == 0:
            return math.inf
        return self.stddev / math.sqrt(self.count)

    def merge(self, other):
        """Combine with another accumulator (parallel Welford merge)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            return self
        n_a, n_b = self.count, other.count
        delta = other._mean - self._mean
        total = n_a + n_b
        self._mean += delta * n_b / total
        self._m2 += other._m2 + delta * delta * n_a * n_b / total
        self.count = total
        return self

    def __repr__(self):
        return "RunningStats(n=%d, mean=%.6g, sd=%.6g)" % (
            self.count,
            self.mean,
            self.stddev,
        )


def rms_error(estimates, truth):
    """Root-mean-square error of ``estimates`` around the true value,
    normalised by the true value — the metric plotted in Figure 7.

    ``truth`` may be a scalar (one quantity, many trials) or an array
    aligned with ``estimates``.
    """
    estimates = np.asarray(estimates, dtype=float)
    truth_arr = np.asarray(truth, dtype=float)
    if truth_arr.ndim == 0:
        denom = abs(float(truth_arr))
    else:
        denom = np.abs(truth_arr)
    rmse = np.sqrt(np.mean((estimates - truth_arr) ** 2))
    scale = float(np.mean(denom)) if np.ndim(denom) else denom
    if scale == 0:
        return float(rmse)
    return float(rmse / scale)


def relative_error(estimate, truth):
    """|estimate - truth| / |truth| with a zero-truth guard."""
    if truth == 0:
        return abs(estimate)
    return abs(estimate - truth) / abs(truth)


def z_for_confidence(epsilon):
    """z-score such that a two-sided normal tail has mass ``epsilon``.

    This is the paper's ``target = sqrt(2) * erf^-1(1 - epsilon)`` from
    Algorithm 4.3 line 3.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    return math.sqrt(2.0) * _erfinv(1.0 - epsilon)


def _erfinv(y):
    """Inverse error function via scipy when available, else Newton."""
    try:
        from scipy.special import erfinv

        return float(erfinv(y))
    except ImportError:  # pragma: no cover - scipy is a hard dependency
        x = 0.0
        for _ in range(60):
            err = math.erf(x) - y
            slope = 2.0 / math.sqrt(math.pi) * math.exp(-x * x)
            x -= err / slope
        return x
